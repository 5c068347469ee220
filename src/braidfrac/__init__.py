"""Groups of braided fractions of digit rewriting systems."""

from types import ModuleType as _ModuleType

from .braids import (
    BraidWord,
    DigitalBraid,
    act_bottom,
    dehornoy_sign,
    handle_reduce,
    lamination_apply,
    lamination_sign,
)
from .drs import (
    DigitRewritingSystem,
    ExpansionForest,
    ExpansionTree,
    RewriteRule,
    enumerate_expansions,
    forest_from_steps,
    forest_join,
    graft,
    parse_drs,
    steps_of,
)
from .families import (
    bh_type1,
    bh_type2,
    edge_shift_drs,
    houghton_drs,
    parse_edge_shift,
    thompson_drs,
)
from .fraction import (
    Flavor,
    FractionElement,
    GroupContext,
    format_element,
    identity_element,
    parse_element,
    random_element,
)
from .harness import Report, report_format, run_suite
from .magnus import (
    CombedForm,
    NcPolynomial,
    comb_word,
    free_word_sign,
    magnus_expand,
    pure_word_sign,
    recombine,
)
from .ordering import Comparison, Sign
from .plmaps import (
    PLMap,
    pl_compose,
    pl_sign,
    realization_sign,
    realize_forest,
    realize_pair,
)

# the API only: importing from the submodules also bound them here
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
