"""Groups of braided fractions of digit rewriting systems."""

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
    comb,
    free_word_sign,
    magnus_expand,
    pure_braid_sign,
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

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
