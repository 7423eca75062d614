"""The benchmark's workloads: from a model spec and a sector to identities
checked exactly.

Each workload has a `build` step (the set-up: the `Sector`, `DualityParams`,
`TensorBasis` and couplings) and a `verify` step that calls the library and
records one pass/fail outcome per identity check.  The library is reached
only through module attributes (`models.asep_generator`, not a name bound
at import), so the tracer's wrappers and the tests' substitutes see every
call.  Residuals are formed with the operators' own `.T` and `@`.

The seed shuffles the order in which basis states and (xi, eta) pairs reach
the library.  A value the library returns for a state of its own basis is
stored at that state's index; the shuffled zero-range windows become the
kernels' bases, so the kernels and D are permuted together.  Either way
the identities and the work are the same for every seed.
"""

import contextlib
import random
import traceback
from fractions import Fraction

import mpmath
import numpy as np

from qmdual import duality, lattice, models, uqgl

Q = Fraction(1, 3)

# An identity checked exactly must not rest on a float: these types fail it.
INEXACT = (float, complex, mpmath.mpf, mpmath.mpc)


class NullProbe:
    """Probe of the untraced run: every hook is a no-op."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n):
        pass

    def values(self, kind, entries):
        pass


def has_inexact(entries):
    return any(isinstance(v, INEXACT) for v in entries)


def exact_zero(entries):
    """True when every entry is an exact zero; a float zero does not count."""
    return all(not isinstance(v, INEXACT) and v == 0 for v in entries)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _pairs(rng, nrows, ncols):
    return _shuffled(rng, ((i, j) for i in range(nrows) for j in range(ncols)))


class AsepSelfDual:
    """Nested q-Krawtchouk self-duality L^T D = D L on one sector."""

    checks = ("intertwining",)

    def __init__(self, theta, k, alpha):
        self.theta, self.k, self.alpha = theta, k, alpha

    def build(self, seed):
        return {"sector": lattice.Sector(self.k, self.theta),
                "params": duality.DualityParams(self.alpha, Q),
                "rng": random.Random(seed)}

    def verify(self, inp, outcome, probe):
        gen = models.asep_generator(inp["sector"], Q)
        basis = gen.basis
        N = len(basis)
        D = np.empty((N, N), dtype=object)
        for i, j in _pairs(inp["rng"], N, N):
            D[i, j] = duality.multi_species_D(basis[i], basis[j], inp["params"])
        probe.values("D", D.flat)
        L = gen.entries
        with probe.span("residual"):
            R = L.T @ D - D @ L
            ok = exact_zero(R.flat)
        probe.count("residual.entries", R.size)
        probe.values("residual", R.flat)
        outcome["intertwining"] = ok and not has_inexact(D.flat)


class UqAlgebraic:
    """U_q(gl_{n+1}) algebraic duality: L^T D = D L and
    D^T diag(left) D = diag(right)."""

    checks = ("intertwining", "orthogonality")

    def __init__(self, n, theta, alphas, shifts):
        self.n, self.theta, self.alphas, self.shifts = n, theta, alphas, shifts

    def build(self, seed):
        # nothing in this workload reaches the library in an order the seed
        # could shuffle: the tensor basis enumerates its own states
        return {"tbasis": uqgl.TensorBasis(self.n, self.theta),
                "lambdas": [uqgl.duality_lambda(a, self.theta, Q, shift=s)
                            for a, s in zip(self.alphas, self.shifts)]}

    def verify(self, inp, outcome, probe):
        tb = inp["tbasis"]
        ad = uqgl.algebraic_duality(inp["lambdas"], tb, Q)
        L = uqgl.chain_generator(tb, Q)
        D = ad.entries
        probe.values("D", D.flat)
        inexact = has_inexact(D.flat)
        with probe.span("residual"):
            R = L.T @ D - D @ L
            ok = exact_zero(R.flat)
        probe.count("residual.entries", R.size)
        probe.values("residual", R.flat)
        outcome["intertwining"] = ok and not inexact
        left = np.diag(np.array(ad.left_weight, dtype=object))
        right = np.diag(np.array(ad.right_weight, dtype=object))
        with probe.span("residual"):
            R = D.T @ left @ D - right
            ok = exact_zero(R.flat)
        probe.count("residual.entries", R.size)
        probe.values("residual", R.flat)
        outcome["orthogonality"] = (ok and not inexact
                                    and not has_inexact(ad.left_weight)
                                    and not has_inexact(ad.right_weight))


class QHahnKernel:
    """Zero-range q-Hahn kernels: column sums 1 on both windows, and the
    rectangular cross duality Pr^T D = D Pl in Q(sqrt(q))."""

    checks = ("stochastic-right", "stochastic-left", "intertwining")

    def __init__(self, xi_counts, eta_counts, L, lam, mu):
        self.xi_counts, self.eta_counts, self.L = xi_counts, eta_counts, L
        self.lam, self.mu = lam, mu

    def build(self, seed):
        return {"rng": random.Random(seed)}

    def verify(self, inp, outcome, probe):
        rng = inp["rng"]
        wx = _shuffled(rng, lattice.enumerate_zrp_sector(self.xi_counts, self.L))
        we = _shuffled(rng, lattice.enumerate_zrp_sector(self.eta_counts, self.L))
        Pr = models.qhahn_discrete_kernel(wx, self.lam, self.mu, Q, "right")
        Pl = models.qhahn_discrete_kernel(we, self.lam, self.mu, Q, "left")
        for name, ker in (("stochastic-right", Pr), ("stochastic-left", Pl)):
            sums = ker.column_sums()
            outcome[name] = (not has_inexact(sums)
                             and all(s == 1 for s in sums))
        D = np.empty((len(wx), len(we)), dtype=object)
        for i, j in _pairs(rng, len(wx), len(we)):
            D[i, j] = duality.qhahn_D(we[j], wx[i], Q)
        probe.values("D", D.flat)
        with probe.span("residual"):
            R = Pr.entries.T @ D - D @ Pl.entries
            ok = exact_zero(R.flat)
        probe.count("residual.entries", R.size)
        probe.values("residual", R.flat)
        outcome["intertwining"] = ok and not has_inexact(D.flat)


class AsepBalance:
    """Exclusion generator on a large sparse sector: column sums 0 and
    detailed balance against the reversible measure."""

    checks = ("conservative", "detailed-balance")

    def __init__(self, theta, k):
        self.theta, self.k = theta, k

    def build(self, seed):
        return {"sector": lattice.Sector(self.k, self.theta),
                "rng": random.Random(seed)}

    def verify(self, inp, outcome, probe):
        gen = models.asep_generator(inp["sector"], Q)
        sums = gen.column_sums()
        outcome["conservative"] = (not has_inexact(sums)
                                   and all(s == 0 for s in sums))
        basis = gen.basis
        N = len(basis)
        pi = [None] * N
        for i in _shuffled(inp["rng"], range(N)):
            pi[i] = models.reversible_measure(basis[i], Q)
        probe.values("pi", pi)
        # pi(j) L(i, j) = pi(i) L(j, i), entry by entry as the tests state it;
        # a pair of zero rates balances trivially and forms no residual
        with probe.span("residual"):
            rows = [gen.entries[i] for i in range(N)]
            residual = []
            for i in range(N):
                for j in range(i):
                    a, b = rows[i][j], rows[j][i]
                    if a or b:
                        residual.append(pi[j] * a - pi[i] * b)
            ok = exact_zero(residual)
        probe.count("residual.entries", len(residual))
        probe.values("residual", residual)
        outcome["detailed-balance"] = ok and not has_inexact(pi)


def _qhahn(xi_counts, eta_counts, L):
    return QHahnKernel(xi_counts, eta_counts, L, Fraction(1, 2), Fraction(1, 3))


# Sized so that one verification takes 0.5 to 4 s at reference speed and a
# run holds several fresh-process samples.  A dense generator much larger
# than 560 states (N = 1260: 13 MB of pointers, walked column-wise) made the
# balance timing follow other tenants' memory traffic, which the speed
# probe does not see.
WORKLOADS = {
    "asep-selfdual": AsepSelfDual((2, 2, 2, 2), (1, 3, 4), (4, 9)),
    "uq-algebraic": UqAlgebraic(2, (2, 2), (4, 9), (1, 2)),
    "qhahn-kernel": _qhahn((2, 2), (2, 1), 3),
    "asep-balance": AsepBalance((1,) * 8, (3, 3, 2)),
}

# the same workloads on tiny instances, for the benchmark's own tests
TINY = {
    "asep-selfdual": AsepSelfDual((2, 2, 2), (2, 2, 2), (4, 9)),
    "uq-algebraic": UqAlgebraic(2, (1, 1), (4, 9), (1, 2)),
    "qhahn-kernel": _qhahn((1, 1), (1, 1), 2),
    "asep-balance": AsepBalance((1,) * 4, (2, 1, 1)),
}


def run_checks(workload, inputs, probe):
    """Verify once; returns {check: passed}.  When a call raises, the
    traceback goes to stderr and every check not yet passed counts as
    failed."""
    outcome = dict.fromkeys(workload.checks, False)
    try:
        workload.verify(inputs, outcome, probe)
    except Exception:
        traceback.print_exc()
    return {name: bool(outcome[name]) for name in workload.checks}
