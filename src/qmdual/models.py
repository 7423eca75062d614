"""Markov generators and transition kernels of the lattice gas family.

Three model classes share this module: the multi-species exclusion process
with per-site capacities, the discrete-time zero-range chain driven by the
Phi weight, and its continuous-time derivative including the single-jump
limit.  Reversible product measures for the exclusion chain live here too.

Every generator and kernel is a GeneratorMatrix whose entries are an
`ops.SparseMatrix` in the column convention: entry (i, j) is the rate
(continuous time) or probability (discrete time) of moving from basis
state j to basis state i, so columns sum to 0 resp. 1.  Column sums are
exact on the rational backend, not a floating-point aspiration.

Two Gaussian-binomial normalizations coexist on purpose: the reversible
measures use the symmetric q_binom, the Phi weight uses the
(q;q)-normalized qq_binom.  Mixing them breaks detailed balance resp.
stochasticity; both facts are pinned by tests.
"""

import itertools
import json
from collections import namedtuple
from fractions import Fraction

import mpmath

from .errors import DomainError
from .lattice import Config, enumerate_sector, n_total
from .ops import SparseMatrix
from .qcalc import brace_int, q_binom, q_fact, q_poch, qq_binom
from .scalars import SNum, parse_scalar


class GeneratorMatrix:
    """Sector block of a generator or stochastic kernel, column convention:
    its entries as a SparseMatrix, plus the basis, the index that maps each
    configuration of the basis to its position, and the kind."""

    __slots__ = ("sector", "basis", "index", "entries", "kind")

    def __init__(self, sector, basis, index, entries, kind):
        self.sector = sector
        self.basis = tuple(basis)
        self.index = index
        self.entries = entries
        self.kind = kind

    @property
    def size(self):
        return len(self.basis)

    def rate(self, source, target):
        """Entry for the move source -> target, addressed by configuration."""
        return self.entries[self.index[target], self.index[source]]

    def column_sums(self):
        """Exact sum of each column over its stored entries."""
        return self.entries.column_sums()

    def __repr__(self):
        return "GeneratorMatrix(kind=%s, size=%d)" % (self.kind, self.size)


def assemble(sector, basis, moves, kind="generator"):
    """The chain on `basis` as a GeneratorMatrix.

    moves(cfg) yields (target, value) pairs; each value is added at entry
    (target, cfg).  For a generator it is also taken off the diagonal entry
    (cfg, cfg), so that every column sums to zero.  Only the entries that
    some move reaches are stored.
    """
    if kind not in ("generator", "kernel"):
        raise DomainError("no matrix kind %r" % (kind,))
    index = {cfg: i for i, cfg in enumerate(basis)}
    rows = {}
    for j, cfg in enumerate(basis):
        for target, value in moves(cfg):
            i = index.get(target)
            if i is None:
                raise DomainError("move %r -> %r leaves the basis"
                                  % (cfg, target))
            row = rows.setdefault(i, {})
            row[j] = row[j] + value if j in row else value
            if kind == "generator":
                diag = rows.setdefault(j, {})
                diag[j] = diag[j] - value if j in diag else -value
    entries = SparseMatrix(rows, (len(basis), len(basis)))
    return GeneratorMatrix(sector, basis, index, entries, kind)


# -- exclusion chain ---------------------------------------------------------

def asep_two_site_rates(site_x, site_x1, q):
    """Jump rates across one bond of the exclusion chain.

    site_x, site_x1: occupation tuples (species 0..n-1 plus the hole row n)
    at the left and right end of the bond.  For each ordered species pair
    k < l there are two exchanges: k hops right while l hops left (rate
    carries q^-1) and l hops right while k hops left (rate carries q).
    Exchanges missing a particle on either side are dropped.

    Returns a list of ((new site_x, new site_x1), rate) pairs.
    """
    if len(site_x) != len(site_x1):
        raise DomainError("bond ends %r and %r disagree on the species count"
                          % (site_x, site_x1))
    rows = len(site_x)
    out = []
    for k in range(rows):
        for l in range(k + 1, rows):
            if site_x[k] > 0 and site_x1[l] > 0:
                rate = (q ** (-1)
                        * q ** (2 * sum(site_x[:k])) * brace_int(site_x[k], q)
                        * q ** (2 * sum(site_x1[l + 1:]))
                        * brace_int(site_x1[l], q))
                out.append((_swap(site_x, site_x1, k, l), rate))
            if site_x[l] > 0 and site_x1[k] > 0:
                rate = (q
                        * q ** (2 * sum(site_x[:l])) * brace_int(site_x[l], q)
                        * q ** (2 * sum(site_x1[k + 1:]))
                        * brace_int(site_x1[k], q))
                out.append((_swap(site_x, site_x1, l, k), rate))
    return out


def _swap(site_x, site_x1, a, b):
    # one particle of species a at x trades places with one of species b at x+1
    new_x = list(site_x)
    new_x1 = list(site_x1)
    new_x[a] -= 1
    new_x[b] += 1
    new_x1[a] += 1
    new_x1[b] -= 1
    assert new_x[a] >= 0 and new_x1[b] >= 0
    return tuple(new_x), tuple(new_x1)


def asep_moves(q):
    """moves(cfg) for `assemble`: the exclusion chain's (target, rate) per
    bond swap out of cfg.  Each closure computes the rates of a distinct
    (site x, site x+1) pair once and reuses them for every configuration."""
    bond_rates = {}

    def moves(cfg):
        sites = tuple(zip(*cfg.counts))
        for x in range(1, cfg.L):
            pair = sites[x - 1], sites[x]
            if pair not in bond_rates:
                bond_rates[pair] = asep_two_site_rates(*pair, q)
            for (new_x, new_x1), rate in bond_rates[pair]:
                yield _replace_sites(cfg, x, new_x, new_x1), rate

    return moves


def asep_generator(sector, q):
    """Generator block on one conserved-counts sector, column convention."""
    return assemble(sector, enumerate_sector(sector), asep_moves(q))


def _replace_sites(cfg, x, new_x, new_x1):
    # a bond swap keeps every column sum and sign, so the target needs no
    # second validation
    counts = tuple(row[:x - 1] + (a, b) + row[x + 1:]
                   for row, a, b in zip(cfg.counts, new_x, new_x1))
    return Config._unchecked(counts, cfg.theta, cfg.n)


# -- reversible measures -----------------------------------------------------

def reversible_measure(cfg, q):
    """Weight of one configuration under its sector's reversible measure.

    Exact backend: pass q as a Fraction; the q^{(count^2)/2} factor puts the
    value in Q(s) with s^2 = q, so an SNum comes back when any count is odd.
    An SNum q is refused, since that root lies outside its field.
    """
    if cfg.is_zero_range:
        raise DomainError("the reversible measure needs capacity mode")
    if isinstance(q, SNum):
        raise DomainError("q=%r must be a rational or a float" % (q,))
    halves = 0  # exponent of q in units of 1/2
    value = 1
    for x in range(1, cfg.L + 1):
        for i in range(cfg.rows):
            c = cfg.count(i, x)
            if c:
                value = value / q_fact(c, q)
            halves += c * c
    cross = 0
    for x in range(2, cfg.L + 1):
        for y in range(1, x):
            for i in range(cfg.rows - 1):
                cross += cfg.range_count(x, 0, i) * cfg.count(i + 1, y)
    return value * q ** (-2 * cross) * _half_power(q, halves)


def _half_power(q, halves):
    """q^(halves/2) on either backend; halves is an integer."""
    if isinstance(q, int):
        q = Fraction(q)
    if isinstance(q, Fraction):
        whole = q ** (halves // 2)
        if halves % 2 == 0:
            return whole
        return whole * SNum(0, 1, q)  # the leftover half is s = sqrt(q)
    return q ** (mpmath.mpf(halves) / 2)


def mixture_measure(cfg, weights, q):
    """Sum of sector measures with coefficients a_k, evaluated at cfg.

    weights maps conserved-count tuples (including the hole row) to
    coefficients; configurations outside the support weigh 0.
    """
    k = tuple(n_total(cfg, i) for i in range(cfg.rows))
    a = weights.get(k)
    if a is None:
        return 0
    return a * reversible_measure(cfg, q)


def single_species_measure(xi, theta, alpha, q):
    """One-species product measure with fugacity alpha on capacities theta.

    xi may be a per-site count tuple, or an n=1 capacity-mode Config (then
    theta is ignored in favor of the stored capacities).  Returns 0 on
    counts outside [0, theta^x].  Uses the symmetric Gaussian binomial.
    """
    if isinstance(xi, Config):
        if xi.is_zero_range or xi.n != 1:
            raise DomainError("need a one-species capacity-mode Config")
        theta = xi.theta
        xi = xi.row(0)
    xi = tuple(xi)
    theta = tuple(theta)
    if len(xi) != len(theta):
        raise DomainError("%d counts for %d capacities" % (len(xi), len(theta)))
    value = 1
    cap_left = 0  # capacity strictly to the left
    for c, t in zip(xi, theta):
        if c < 0 or c > t:
            return 0
        value = value * alpha ** c * q_binom(t, c, q) * q ** (-(2 * cap_left + t) * c)
        cap_left += t
    return value


# -- Phi weight and the zero-range chains ------------------------------------

def _chi(beta, gamma):
    return sum((beta[i] - gamma[i]) * gamma[j]
               for i in range(len(beta)) for j in range(i + 1, len(beta)))


def phi_weight(gamma, beta, lam, mu, q):
    """Probability that batch gamma leaves a site holding beta.

    Vector-valued gamma, beta; scalar parameters lam, mu, q.  Zero outside
    0 <= gamma <= beta componentwise.  Stochastic in gamma for any lam, mu;
    the reversibility lemma additionally wants 0 < lam <= 1, 0 <= mu < 1,
    which is not enforced here (derivative checks step past lam = 1).
    """
    gamma = tuple(int(g) for g in gamma)
    beta = tuple(int(b) for b in beta)
    if len(gamma) != len(beta):
        raise DomainError("batch %r and site %r disagree on the species count"
                          % (gamma, beta))
    if lam == 0:
        raise DomainError("lambda = 0 collapses the weight")
    if not all(0 <= g <= b for g, b in zip(gamma, beta)):
        return 0
    g, b = sum(gamma), sum(beta)
    if isinstance(mu, int) and isinstance(lam, int):
        ratio = Fraction(mu, lam)
    else:
        ratio = mu / lam
    value = (q ** _chi(beta, gamma) * ratio ** g * q_poch(lam, q, g)
             * q_poch(ratio, q, b - g) / q_poch(mu, q, b))
    for bi, gi in zip(beta, gamma):
        value = value * qq_binom(bi, gi, q)
    return value


def phi_weight_dlambda(gamma, beta, mu, q):
    """d/dlambda of phi_weight at lambda = 1, for gamma != 0; nonpositive.

    (lambda; q)_{|gamma|} has a simple zero at lambda = 1, so only the term
    differentiating that factor survives: replace it by -(q; q)_{|gamma|-1}
    and evaluate everything else at lambda = 1.
    """
    gamma = tuple(int(g) for g in gamma)
    beta = tuple(int(b) for b in beta)
    if not all(0 <= g <= b for g, b in zip(gamma, beta)):
        return 0
    g, b = sum(gamma), sum(beta)
    if g < 1:
        raise DomainError("the lambda-derivative at the empty batch is minus "
                          "the rest")
    value = (-(q ** _chi(beta, gamma)) * mu ** g * q_poch(q, q, g - 1)
             * q_poch(mu, q, b - g) / q_poch(mu, q, b))
    for bi, gi in zip(beta, gamma):
        value = value * qq_binom(bi, gi, q)
    return value


def qhahn_continuous_rates(beta, mu, q):
    """Continuous-time departure rates -Phi' for every nonzero batch.

    Returns {gamma: rate}; rates are nonnegative for mu in [0, 1),
    q in (0, 1), and every rate carries a factor mu^{|gamma|}.
    """
    beta = tuple(int(b) for b in beta)
    rates = {}
    for gamma in itertools.product(*(range(b + 1) for b in beta)):
        if all(g == 0 for g in gamma):
            continue
        r = -phi_weight_dlambda(gamma, beta, mu, q)
        if r != 0:
            rates[gamma] = r
    return rates


def qtazrp_rates(beta, q):
    """Single-particle jump rates in the vanishing-mu limit, per unit mu.

    Every continuous-chain rate carries mu^{|gamma|}, so the only
    non-degenerate limit is rate/mu: batches of two or more drop out and
    species i departs at rate q^{beta_[0,i-1]} (1 - q^{beta_i})/(1 - q).
    """
    beta = tuple(int(b) for b in beta)
    rates = {}
    prefix = 0
    for i, b in enumerate(beta):
        if b > 0:
            e_i = tuple(int(j == i) for j in range(len(beta)))
            rates[e_i] = q ** prefix * (1 - q ** b) / (1 - q)
        prefix += b
    return rates


# -- zero-range kernels and generators ---------------------------------------

def _move_batch(cfg, x, gamma, step):
    rows = [list(row) for row in cfg.counts]
    for i, g in enumerate(gamma):
        rows[i][x - 1] -= g
        rows[i][x - 1 + step] += g
        assert rows[i][x - 1] >= 0
    return Config.zero_range(rows)


def _zrp_window(window, direction):
    """Basis, sector label (totals, L), emitting sites and batch step of a
    zero-range window; the direction picks the sites and the step."""
    basis = list(window)
    if not basis or not all(cfg.is_zero_range for cfg in basis):
        raise DomainError("a window is a nonempty list of zero-range "
                          "configurations")
    L = basis[0].L
    totals = tuple(n_total(basis[0], i) for i in range(basis[0].rows))
    for cfg in basis:
        if cfg.L != L or cfg.rows != basis[0].rows:
            raise DomainError("window configurations differ in shape")
        if tuple(n_total(cfg, i) for i in range(cfg.rows)) != totals:
            raise DomainError("window configurations differ in totals")
    if direction == "left":
        return basis, (totals, L), range(2, L + 1), -1
    if direction == "right":
        return basis, (totals, L), range(1, L), +1
    raise DomainError("direction must be left or right, got %r" % (direction,))


def qhahn_discrete_kernel(window, lam, mu, q, direction):
    """One-step kernel of the sitewise batch-moving chain on a window.

    window: list of zero-range configurations closed under the dynamics
    (one conserved-counts sector).  direction "left": sites 2..L emit and
    batches land one site down; "right": sites 1..L-1 emit, batches land
    one site up.  Every site emits simultaneously, so one step multiplies
    independent per-site weights.
    """
    basis, sector, emit, step = _zrp_window(window, direction)

    def moves(cfg):
        choices = [
            list(itertools.product(*(range(c + 1) for c in cfg.site(x))))
            for x in emit
        ]
        for batches in itertools.product(*choices):
            prob = 1
            target = cfg
            for x, gamma in zip(emit, batches):
                prob = prob * phi_weight(gamma, cfg.site(x), lam, mu, q)
                if prob == 0:
                    break
                target = _move_batch(target, x, gamma, step)
            if prob != 0:
                yield target, prob

    return assemble(sector, basis, moves, "kernel")


def _zrp_generator(window, direction, site_rates):
    basis, sector, emit, step = _zrp_window(window, direction)

    def moves(cfg):
        for x in emit:
            for gamma, rate in site_rates(cfg.site(x)).items():
                yield _move_batch(cfg, x, gamma, step), rate

    return assemble(sector, basis, moves)


def qhahn_continuous_generator(window, mu, q, direction):
    """Continuous-time generator matching -d/dlambda of the kernel at 1."""
    return _zrp_generator(window, direction,
                          lambda beta: qhahn_continuous_rates(beta, mu, q))


def qtazrp_generator(window, q, direction):
    """Generator of the single-jump chain (vanishing-mu limit, per unit mu)."""
    return _zrp_generator(window, direction,
                          lambda beta: qtazrp_rates(beta, q))


# -- model descriptions ------------------------------------------------------

ModelSpec = namedtuple("ModelSpec",
                       ["model", "L", "n", "theta", "q", "lam", "mu",
                        "direction"])

_MODELS = ("asep", "qhahn_d", "qhahn_c", "qtazrp")


def parse_model_spec(obj):
    """Validate a model description {model, L, n, theta?, q, lambda?, mu?,
    direction?} given as a dict or JSON text."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    model = obj["model"]
    if model not in _MODELS:
        raise DomainError("unknown model %r, expected one of %s"
                          % (model, ", ".join(_MODELS)))
    L = int(obj["L"])
    n = int(obj["n"])
    if L < 1 or n < 1:
        raise DomainError("need L >= 1 and n >= 1")
    theta = obj.get("theta")
    if theta is not None:
        theta = tuple(int(t) for t in theta)
        if len(theta) != L:
            raise DomainError("theta length %d != L = %d" % (len(theta), L))
    if model == "asep" and theta is None:
        raise DomainError("the exclusion chain needs per-site capacities")
    direction = obj.get("direction")
    if direction not in (None, "left", "right"):
        raise DomainError("direction must be left or right")
    if model in ("qhahn_d", "qhahn_c", "qtazrp") and direction is None:
        raise DomainError("zero-range models need a direction")
    q = _parse_number(obj["q"])
    lam = _parse_number(obj.get("lambda"))
    mu = _parse_number(obj.get("mu"))
    if model == "qhahn_d" and (lam is None or mu is None):
        raise DomainError("the discrete chain needs lambda and mu")
    if model == "qhahn_c" and mu is None:
        raise DomainError("the continuous chain needs mu")
    return ModelSpec(model, L, n, theta, q, lam, mu, direction)


def _parse_number(v):
    if v is None:
        return None
    if isinstance(v, str):
        return parse_scalar(v)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return mpmath.mpf(v)
    return v
