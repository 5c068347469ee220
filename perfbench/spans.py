"""Span tracing of the library's layers, from outside the library.

`Tracer.install` replaces each traced function, in every module namespace
that binds it, by a wrapper that records a span: name, start, end, parent
span and up to two size values.  Methods are wrapped on their class.  Spans are kept in flat arrays in memory, written out by
`Tracer.write` and reduced by `layer_metrics`; a layer's self time is its
span time minus the time of its direct child spans.

Namespaces are scanned by identity rather than by name because the same
function is bound in several of them: ``handle_reduce`` lives in
``braids`` and is imported into ``fraction``, the package root re-exports
most names, the benchmark's own modules import them too, and ``magnus``
imports ``handle_reduce`` at call time (which reads the patched ``braids``
attribute).
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array

import braidfrac.braids
import braidfrac.drs
import braidfrac.fraction
import braidfrac.magnus
import braidfrac.plmaps


def _hr(args, result):
    return len(args[0].letters), float(not result.letters)


def _act(args, result):
    w = result[1].word
    return w.strands, len(w.letters)


def _join(args, result):
    return result[0].leaf_count(), math.nan


def _realize(args, result):
    return len(result.breakpoints), math.nan


def _expand(args, result):
    return args[1], math.nan


# (module, attribute path, span name, size measure)
TRACED = (
    (braidfrac.braids, "handle_reduce", "braids.handle_reduce", _hr),
    (braidfrac.braids, "dehornoy_sign", "braids.dehornoy_sign", None),
    (braidfrac.braids, "act_bottom", "braids.act_bottom", _act),
    (braidfrac.drs, "forest_join", "drs.forest_join", _join),
    (braidfrac.drs, "graft", "drs.graft", None),
    (braidfrac.drs, "complement", "drs.complement", None),
    (braidfrac.drs, "ExpansionForest.__post_init__", "drs.ExpansionForest.validate", None),
    (braidfrac.plmaps, "realize_pair", "plmaps.realize_pair", _realize),
    (braidfrac.plmaps, "pl_sign", "plmaps.pl_sign", None),
    (braidfrac.magnus, "pure_word_sign", "magnus.pure_word_sign", None),
    (braidfrac.magnus, "free_word_sign", "magnus.free_word_sign", None),
    (braidfrac.magnus, "magnus_expand", "magnus.magnus_expand", _expand),
    (braidfrac.fraction, "FractionElement.__mul__", "fraction.mul", None),
    (braidfrac.fraction, "FractionElement.sign", "fraction.sign", None),
    (braidfrac.fraction, "FractionElement.compare", "fraction.compare", None),
    (braidfrac.fraction, "FractionElement.is_identity", "fraction.is_identity", None),
)

OP = "op"  # root span of one benchmark query
NAMES = (OP,) + tuple(name for _, _, name, _ in TRACED)


class Tracer:
    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.v0 = array("d")
        self.v1 = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.v0.append(math.nan)
        self.v1.append(math.nan)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name_id: int, measure):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if measure is not None:
                self.v0[idx], self.v1[idx] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op, *args):
        """Call op(*args) inside a root span."""
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return op(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def install(self) -> None:
        # every namespace, the benchmark's own modules included
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for name_id, (module, path, _, measure) in enumerate(TRACED, start=1):
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name_id, measure))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name_id, measure)
            for m in modules:
                for key, value in list(getattr(m, "__dict__", {}).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One JSON header line (names table, span count, array layout),
        then the raw arrays in header order: name index, parent index
        (-1 for a root), start, end, v0, v1 (NaN where unused)."""
        arrays = ("name", "parent", "start", "end", "v0", "v1")
        header = {
            "names": NAMES,
            "spans": len(self.start),
            "arrays": [[a, getattr(self, a).typecode, getattr(self, a).itemsize]
                       for a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                getattr(self, a).tofile(fh)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times and size statistics from the spans."""
    n = len(tr.start)
    names = len(NAMES)
    child = [0.0] * n
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    # bit flags of which names occur among each span's direct children
    kids = [0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
            kids[p] |= 1 << tr.name[i]
    calls = [0] * names
    self_s = [0.0] * names
    v0: list[list[float]] = [[] for _ in range(names)]
    v1: list[list[float]] = [[] for _ in range(names)]
    for i in range(n):
        k = tr.name[i]
        calls[k] += 1
        self_s[k] += dur[i] - child[i]
        if not math.isnan(tr.v0[i]):
            v0[k].append(tr.v0[i])
        if not math.isnan(tr.v1[i]):
            v1[k].append(tr.v1[i])
    ix = {name: k for k, name in enumerate(NAMES)}

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in NAMES[1:]:
        k = ix[name]
        out[f"{name}.calls"] = (calls[k], "count")
        out[f"{name}.self_s"] = (self_s[k], "s")
    hr, act = ix["braids.handle_reduce"], ix["braids.act_bottom"]
    out["braids.handle_reduce.in_letters.mean"] = (mean(v0[hr]), "letters")
    out["braids.handle_reduce.in_letters.max"] = (max(v0[hr], default=0), "letters")
    out["braids.handle_reduce.empty_ratio"] = (mean(v1[hr]), "share")
    out["braids.act_bottom.out_strands.max"] = (max(v0[act], default=0), "strands")
    out["braids.act_bottom.out_letters.mean"] = (mean(v1[act]), "letters")
    out["drs.forest_join.out_leaves.mean"] = (mean(v0[ix["drs.forest_join"]]), "leaves")
    out["plmaps.realize_pair.out_breakpoints.mean"] = (
        mean(v0[ix["plmaps.realize_pair"]]), "breakpoints")
    out["magnus.magnus_expand.degree.max"] = (
        max(v0[ix["magnus.magnus_expand"]], default=0), "degree")
    fws = calls[ix["magnus.free_word_sign"]]
    out["magnus.escalations_per_sign"] = (
        calls[ix["magnus.magnus_expand"]] / fws if fws else 0.0, "ratio")
    # a sign call fell back to the PL realization when it ran handle
    # reduction itself and then signed the PL map (braided and plain flavors)
    sign = ix["fraction.sign"]
    both = (1 << hr) | (1 << ix["plmaps.pl_sign"])
    fell = sum(1 for i in range(n) if tr.name[i] == sign and kids[i] & both == both)
    out["fraction.sign.pl_fallback_ratio"] = (
        fell / calls[sign] if calls[sign] else 0.0, "share")
    op_time = sum(dur[i] for i in range(n) if tr.name[i] == 0)
    out["trace.layer_share"] = (1 - self_s[0] / op_time if op_time else 0.0, "share")
    return out
