"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces each traced library function, at every module
attribute through which a caller reaches it, with a wrapper that records a
span: name, start, end and the enclosing span.  Nothing under `src/` is
edited; `uninstall` puts the originals back.  Spans stay in memory, in flat
arrays, until the run ends; `metrics` then derives the per-layer numbers.
A span's self time is its duration minus the durations of its children.
"""

import sys
import time
import types
from array import array
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import qmdual
from qmdual import scalars
from workloads import INEXACT

_MODULES = tuple(m for m in vars(qmdual).values()
                 if isinstance(m, types.ModuleType))

# traced functions, named by the module attribute that holds them; a name
# missing from the library is reported as 0
TRACED = (
    "lattice.enumerate_sector", "lattice.enumerate_zrp_sector",
    "lattice.intermediate_configs",
    "models.asep_generator", "models.column_sums",
    "models.reversible_measure", "models.single_species_measure",
    "models.qhahn_discrete_kernel",
    "qcalc.q_krawtchouk", "qcalc.q_fact", "qcalc.q_binom", "qcalc.phi10",
    "qcalc.q_poch", "qcalc.brace_int", "qcalc.q_int",
    "duality.multi_species_D", "duality.kraw_chain", "duality.correction_G",
    "duality.qhahn_D",
    "uqgl.algebraic_duality", "uqgl.unitary_U", "uqgl.nilpotent_q_exp",
    "uqgl.coproduct_apply", "uqgl.chain_generator",
)
# where a traced name's function lives when that is not the module itself
_OWNERS = {"models.column_sums": "GeneratorMatrix"}

# results kept until the run ends, to count the work they represent
_KEPT = ("lattice.enumerate_sector", "lattice.enumerate_zrp_sector",
         "models.asep_generator", "models.qhahn_discrete_kernel",
         "duality.multi_species_D", "duality.qhahn_D",
         "uqgl.algebraic_duality")

# per-layer metrics in the order they are reported: name -> unit
METRICS = {
    "lattice.enumerate_sector.self_s": "s",
    "lattice.enumerate_zrp_sector.self_s": "s",
    "lattice.intermediate_configs.calls": "count",
    "lattice.configs": "count",
    "models.asep_generator.self_s": "s",
    "models.column_sums.self_s": "s",
    "models.reversible_measure.calls": "count",
    "models.reversible_measure.self_s": "s",
    "models.single_species_measure.calls": "count",
    "models.single_species_measure.self_s": "s",
    "models.qhahn_discrete_kernel.self_s": "s",
    "models.nnz": "count",
    "qcalc.q_krawtchouk.calls": "count",
    "qcalc.q_krawtchouk.self_s": "s",
    "qcalc.q_fact.calls": "count",
    "qcalc.q_fact.self_s": "s",
    "qcalc.q_binom.calls": "count",
    "qcalc.phi10.calls": "count",
    "qcalc.phi10.self_s": "s",
    "qcalc.q_poch.calls": "count",
    "qcalc.q_poch.self_s": "s",
    "qcalc.brace_int.calls": "count",
    "qcalc.q_int.calls": "count",
    "duality.multi_species_D.calls": "count",
    "duality.multi_species_D.total_s": "s",
    "duality.kraw_chain.self_s": "s",
    "duality.correction_G.self_s": "s",
    "duality.qhahn_D.calls": "count",
    "duality.qhahn_D.self_s": "s",
    "duality.nonzero_ratio": "ratio",
    "uqgl.algebraic_duality.total_s": "s",
    "uqgl.unitary_U.self_s": "s",
    "uqgl.nilpotent_q_exp.calls": "count",
    "uqgl.nilpotent_q_exp.self_s": "s",
    "uqgl.coproduct_apply.self_s": "s",
    "uqgl.chain_generator.self_s": "s",
    "uqgl.D_nnz": "count",
    "scalars.max_bits": "bits",
    "scalars.snum_share": "ratio",
    "scalars.mpf_entries": "count",
    "residual.self_s": "s",
    "residual.entries": "count",
}


class Tracer:
    """Records spans of the traced library functions and of the benchmark's
    own `span` blocks; also the probe that `workloads.run_checks` feeds."""

    def __init__(self):
        self._ids = {}
        self._labels = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._kept = {name: [] for name in _KEPT}
        self._counts = {}
        self._values = {"D": [], "pi": [], "residual": []}
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self._labels)
            self._labels.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self._id(name)
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        kept = self._kept.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        idx = len(self._name)
        self._name.append(self._id(name))
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n):
        self._counts[name] = self._counts.get(name, 0) + n

    def values(self, kind, entries):
        self._values[kind].extend(entries)

    # -- installation --------------------------------------------------------

    def install(self):
        for name in TRACED:
            module, attr = name.split(".")
            owner = vars(qmdual).get(module)
            if name in _OWNERS:
                owner = vars(owner).get(_OWNERS[name])
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                print("trace: %s not found, reported as 0" % name,
                      file=sys.stderr)
                continue
            wrapper = self._wrap(original, name)
            for holder in (owner,) + _MODULES:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- derived metrics -----------------------------------------------------

    def metrics(self, factor=1.0):
        """Per-layer metrics of everything recorded, as name -> (value,
        unit), with times multiplied by `factor`; the tracing overhead needs
        the untraced run and is added by the caller."""
        n = len(self._name)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self._labels)
        self_s = [0.0] * len(self._labels)
        for i in range(n):
            calls[self._name[i]] += 1
            self_s[self._name[i]] += dur[i] - child[i]
        stats = {}
        for label, nid in self._ids.items():
            stats[label + ".calls"] = calls[nid]
            stats[label + ".self_s"] = self_s[nid]
            if label + ".total_s" in METRICS:
                stats[label + ".total_s"] = self._total(nid, dur)
        kept = self._kept
        stats["lattice.configs"] = sum(
            len(r) for name in ("lattice.enumerate_sector",
                                "lattice.enumerate_zrp_sector")
            for r in kept[name])
        stats["models.nnz"] = sum(
            _nnz(r.entries) for name in ("models.asep_generator",
                                         "models.qhahn_discrete_kernel")
            for r in kept[name])
        pairs = kept["duality.multi_species_D"] + kept["duality.qhahn_D"]
        stats["duality.nonzero_ratio"] = (
            sum(1 for v in pairs if v) / len(pairs) if pairs else 0.0)
        stats["uqgl.D_nnz"] = sum(
            _nnz(r.entries) for r in kept["uqgl.algebraic_duality"])
        exact = self._values["D"] + self._values["pi"]
        stats["scalars.max_bits"] = max((_bits(v) for v in exact), default=0)
        stats["scalars.snum_share"] = (
            sum(1 for v in exact if _irrational(v)) / len(exact)
            if exact else 0.0)
        stats["scalars.mpf_entries"] = sum(
            1 for kind in self._values.values() for v in kind
            if isinstance(v, INEXACT))
        stats.update(self._counts)
        return {name: (stats.get(name, 0) * (factor if unit == "s" else 1),
                       unit)
                for name, unit in METRICS.items()}

    def _total(self, nid, dur):
        # wall time inside the function, counting a recursive call once
        total = 0.0
        for i in range(len(self._name)):
            if self._name[i] != nid:
                continue
            p = self._parent[i]
            while p >= 0 and self._name[p] != nid:
                p = self._parent[p]
            if p < 0:
                total += dur[i]
        return total


def _nnz(entries):
    return sum(1 for v in np.asarray(entries, dtype=object).flat if v)


def _irrational(v):
    """In Q(sqrt(q)) but not in Q: a field element with a nonzero s-part."""
    return isinstance(v, scalars.SNum) and v.b != 0


def _bits(v):
    """Largest numerator or denominator bit length of an exact scalar."""
    if isinstance(v, scalars.SNum):
        return max(_bits(v.a), _bits(v.b))
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return v.bit_length()
    return 0
