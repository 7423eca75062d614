"""Markov generators and transition kernels of the lattice gas family.

Three model classes share this module: the multi-species exclusion process
with per-site capacities, the discrete-time zero-range chain driven by the
Phi weight, and its continuous-time derivative including the single-jump
limit.  Reversible product measures for the exclusion chain live here too.

Every generator and kernel is a GeneratorMatrix whose entries are an
`ops.SparseMatrix` in the column convention: entry (i, j) is the rate
(continuous time) or probability (discrete time) of moving from basis
state j to basis state i, so columns sum to 0 resp. 1.  Column sums are
exact, as all arithmetic is: a float q or coupling raises `DomainError`.

Two Gaussian-binomial normalizations coexist on purpose: the reversible
measures use the symmetric q_binom, the Phi weight uses the
(q;q)-normalized qq_binom.  Mixing them breaks detailed balance resp.
stochasticity; both facts are pinned by tests.
"""

import itertools
import math
from fractions import Fraction

from .errors import DomainError
from .lattice import Config, enumerate_sector
from .ops import SparseMatrix
from .qcalc import brace_int, q_binom, q_fact, q_poch, qq_binom
from .scalars import check_q, div, exact, ints, power_parts, q_root


class GeneratorMatrix:
    """Sector block of a generator or stochastic kernel, column convention:
    its entries as a SparseMatrix, plus the basis, the index that maps each
    configuration of the basis to its position, and the kind."""

    __slots__ = ("basis", "index", "entries", "kind")

    def __init__(self, basis, index, entries, kind):
        self.basis = tuple(basis)
        self.index = index
        self.entries = entries
        self.kind = kind

    @property
    def size(self):
        return len(self.basis)

    def column_sums(self):
        """Exact sum of each column over its stored entries."""
        return self.entries.column_sums()

    def __repr__(self):
        return "GeneratorMatrix(kind=%s, size=%d)" % (self.kind, self.size)


def assemble(basis, moves, kind="generator"):
    """The chain on `basis` as a GeneratorMatrix.

    moves(cfg) yields (target, value) pairs; each value is added at entry
    (target, cfg).  For a generator, the diagonal entry (cfg, cfg) of a
    column with a move is then the value landing there, if any, minus the
    column's sum from `SparseMatrix.column_sums`, so that every column sums
    to zero.  Only the entries that some move reaches are stored.  A basis
    that repeats a configuration raises `DomainError`, as a move out of the
    basis does.
    """
    if kind not in ("generator", "kernel"):
        raise DomainError("no matrix kind %r" % (kind,))
    index = {cfg: i for i, cfg in enumerate(basis)}
    if len(index) != len(basis):
        raise DomainError("the basis repeats a configuration")
    rows = {}
    for j, cfg in enumerate(basis):
        for target, value in moves(cfg):
            i = index.get(target)
            if i is None:
                raise DomainError("move %r -> %r leaves the basis"
                                  % (cfg, target))
            row = rows.setdefault(i, {})
            row[j] = row[j] + value if j in row else value
    shape = (len(basis), len(basis))
    if kind == "generator":
        sums = SparseMatrix(rows, shape).column_sums()
        for j in sorted({c for row in rows.values() for c in row}):
            diag = rows.setdefault(j, {})
            diag[j] = diag[j] - sums[j] if j in diag else -sums[j]
    return GeneratorMatrix(basis, index, SparseMatrix(rows, shape), kind)


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
    site_x, site_x1 = ints(site_x, "bond end", 0), ints(site_x1, "bond end", 0)
    if len(site_x) != len(site_x1):
        raise DomainError("bond ends %r, %r differ in length" % (site_x, site_x1))
    q = check_q(q)
    rows = len(site_x)
    out = []
    for k in range(rows):
        for l in range(k + 1, rows):
            for a, b, sign in ((k, l, -1), (l, k, 1)):
                if site_x[a] > 0 and site_x1[b] > 0:
                    rate = (q ** sign
                            * q ** (2 * sum(site_x[:a]))
                            * brace_int(site_x[a], q)
                            * q ** (2 * sum(site_x1[b + 1:]))
                            * brace_int(site_x1[b], q))
                    out.append((_swap(site_x, site_x1, a, b), rate))
    return out


def _swap(site_x, site_x1, a, b):
    # one particle of species a at x trades places with one of species b at x+1
    new_x = list(site_x)
    new_x1 = list(site_x1)
    new_x[a] -= 1
    new_x[b] += 1
    new_x1[a] += 1
    new_x1[b] -= 1
    return tuple(new_x), tuple(new_x1)


def asep_moves(q):
    """moves(cfg) for `assemble`: the exclusion chain's (target, rate) per
    bond swap out of cfg.  Each closure computes the rates of a distinct
    (site x, site x+1) pair once and reuses them for every configuration."""
    q = check_q(q)
    bond_rates = {}

    def moves(cfg):
        sites = tuple(zip(*cfg.counts))
        for x in range(1, cfg.L):
            pair = sites[x - 1], sites[x]
            if pair not in bond_rates:
                bond_rates[pair] = asep_two_site_rates(*pair, q)
            # a bond swap keeps every column sum and sign, so the target
            # needs no second validation
            for swapped, rate in bond_rates[pair]:
                counts = tuple(zip(*sites[:x - 1], *swapped, *sites[x + 1:]))
                yield Config._unchecked(counts, cfg.theta, cfg.n), rate

    return moves


def asep_generator(sector, q):
    """Generator block on one conserved-counts sector, column convention."""
    return assemble(enumerate_sector(sector), asep_moves(q))


# -- reversible measures -----------------------------------------------------

def reversible_measure(cfg, q):
    """Weight of one configuration under its sector's reversible measure,
    mu(xi) = q^{sum c^2/2 - 2 sum_{y<x} sum_i xi^x_{[0,i]} xi^y_{i+1}}
    / prod [c]_q!, c running over every count xi^x_i, holes included.

    Pass q as an int or a Fraction.  The factorials and the integral power
    of q are kept as an int pair and reduced once to a Fraction.  The
    q^{(count^2)/2} factor puts the value in Q(s), s = `q_root(q)`: an
    SNum when the squared counts sum to an odd number and q is not a
    square, a Fraction otherwise.  An SNum, a float or a negative q raises
    `DomainError`.
    """
    if cfg.is_zero_range:
        raise DomainError("the reversible measure needs capacity mode")
    q = check_q(q)
    s = q_root(q)
    facts = {}
    left = [0] * cfg.rows  # each row's count strictly left of the site
    halves = cross = 0  # halves: exponent of q in units of 1/2
    num = den = 1  # the value as an int pair, reduced once at the end
    for site in zip(*cfg.counts):
        below = 0  # rows 0..i-1 at this site
        for i, c in enumerate(site):
            cross += below * left[i]
            left[i] += c
            below += c
            halves += c * c
            if c > 1:  # [0]_q! = [1]_q! = 1
                if c not in facts:
                    facts[c] = q_fact(c, q)
                num *= facts[c].denominator
                den *= facts[c].numerator
    e = halves // 2 - 2 * cross
    p, r = power_parts(q, e)
    value = Fraction(num * p, den * r)
    return value * s if halves % 2 else value


def single_species_measure(xi, theta, alpha, q):
    """One-species product measure with fugacity alpha on capacities theta,
    alpha^{sum c} q^{-sum (2 cap_left + t) c} prod [t choose c]_q over the
    sites, with c = xi^x, t = theta^x and cap_left the capacity strictly
    left of x.

    xi is the per-site count tuple of the species; a count outside
    [0, theta^x] raises `DomainError`.  Uses the symmetric Gaussian binomial,
    each distinct one with 0 < c < t once per call (the others are 1).  A
    float alpha or q raises `DomainError`.
    """
    xi, theta = ints(xi, "counts"), ints(theta, "capacities")
    if len(xi) != len(theta) or not all(0 <= c <= t for c, t in zip(xi, theta)):
        raise DomainError("counts %r do not fit capacities %r" % (xi, theta))
    q, alpha = check_q(q), exact(alpha, "alpha")
    binoms, value = {}, 1
    count = expo = cap_left = 0  # cap_left: capacity strictly to the left
    for c, t in zip(xi, theta):
        count += c
        expo -= (2 * cap_left + t) * c
        cap_left += t
        if 0 < c < t:
            if (t, c) not in binoms:
                binoms[t, c] = q_binom(t, c, q)
            value = value * binoms[t, c]
    return value * alpha ** count * q ** expo


# -- Phi weight and the zero-range chains ------------------------------------

def _chi(beta, gamma):
    return sum((beta[i] - gamma[i]) * gamma[j]
               for i in range(len(beta)) for j in range(i + 1, len(beta)))


def _phi(gamma, beta, lead, ratio, mu, q, memo):
    """q^chi ratio^|gamma| lead(|gamma|) (ratio; q)_{|beta|-|gamma|}
    / (mu; q)_{|beta|} times the (q;q)-binomials at a checked q and mu, the
    product shared by the Phi weight and its lambda-derivative; 0 outside
    0 <= gamma <= beta.  Each q-scalar is read from memo, computed there
    on first use: lead(g), (ratio; q)_m, (mu; q)_b and qq_binom(b, g, q)."""
    gamma, beta = ints(gamma, "batch"), ints(beta, "site counts", 0)
    if len(gamma) != len(beta):
        raise DomainError("batch %r and site %r disagree on the species count"
                          % (gamma, beta))
    if not all(0 <= g <= b for g, b in zip(gamma, beta)):
        return 0

    def scalar(key, compute, *args):
        if key not in memo:
            memo[key] = compute(*args)
        return memo[key]

    g, b = sum(gamma), sum(beta)
    value = (q ** _chi(beta, gamma) * ratio ** g * scalar(("lead", g), lead, g)
             * scalar(("ratio", b - g), q_poch, ratio, q, b - g)
             / scalar(("mu", b), q_poch, mu, q, b))
    for bi, gi in zip(beta, gamma):
        value = value * scalar((bi, gi), qq_binom, bi, gi, q)
    return value


def _weights(lam, mu, q):
    """The Phi weight at lambda, or for lam None its lambda-derivative at
    lambda = 1, as a function weight(gamma, beta) of `_phi`: lead(g) is
    (lambda; q)_g resp. -(q; q)_{g-1}, ratio is mu/lambda resp. mu, and one
    memo keeps each q-scalar for the life of the function."""
    q, mu, memo = check_q(q), exact(mu, "mu"), {}
    if lam is None:
        lead, ratio = (lambda g: -q_poch(q, q, g - 1)), mu
    elif exact(lam, "lambda") == 0:
        raise DomainError("lambda = 0 collapses the weight")
    else:
        lead, ratio = (lambda g: q_poch(lam, q, g)), div(mu, lam)
    return lambda gamma, beta: _phi(gamma, beta, lead, ratio, mu, q, memo)


def phi_weight(gamma, beta, lam, mu, q):
    """Probability that batch gamma leaves a site holding beta.

    Vector-valued gamma, beta; scalar parameters lam, mu, q.  Zero outside
    0 <= gamma <= beta componentwise; a negative entry of beta raises
    `DomainError`.  Stochastic in gamma for any lam, mu;
    the reversibility lemma additionally wants 0 < lam <= 1, 0 <= mu < 1,
    which is not enforced here (derivative checks step past lam = 1).
    """
    return _weights(lam, mu, q)(gamma, beta)


def phi_weight_dlambda(gamma, beta, mu, q):
    """d/dlambda of phi_weight at lambda = 1, for gamma != 0; nonpositive.

    (lambda; q)_{|gamma|} has a simple zero at lambda = 1, so only the term
    differentiating that factor survives: replace it by -(q; q)_{|gamma|-1}
    and evaluate everything else at lambda = 1.
    """
    if not any(ints(gamma, "batch")):
        raise DomainError("the lambda-derivative at the empty batch is "
                          "minus the rest")
    return _weights(None, mu, q)(gamma, beta)


def qhahn_continuous_rates(beta, mu, q):
    """Continuous-time departure rates -Phi' for every nonzero batch, by one
    weight function of `_weights`.

    Returns {gamma: rate}; rates are nonnegative for mu in [0, 1),
    q in (0, 1), and every rate carries a factor mu^{|gamma|}.
    """
    beta, weight = ints(beta, "site counts", 0), _weights(None, mu, q)
    rates = {gamma: -weight(gamma, beta)
             for gamma in itertools.product(*(range(b + 1) for b in beta))
             if any(gamma)}
    return {gamma: r for gamma, r in rates.items() if r != 0}


def qtazrp_rates(beta, q):
    """Single-particle jump rates in the vanishing-mu limit, per unit mu.

    Every continuous-chain rate carries mu^{|gamma|}, so the only
    non-degenerate limit is rate/mu: batches of two or more drop out and
    species i departs at rate q^{beta_[0,i-1]} (1 - q^{beta_i})/(1 - q).
    """
    beta, q = ints(beta, "site counts", 0), check_q(q)
    rates = {}
    prefix = 0
    for i, b in enumerate(beta):
        if b > 0:
            e_i = tuple(1 if j == i else 0 for j in range(len(beta)))
            rates[e_i] = q ** prefix * (1 - q ** b) / (1 - q)
        prefix += b
    return rates


# -- zero-range kernels and generators ---------------------------------------

def _move_batches(cfg, batches, step):
    # move each (x, gamma) of batches from site x to x + step in one edit;
    # gamma <= site x's content, and `assemble` refuses targets off the window
    rows = [list(row) for row in cfg.counts]
    for x, gamma in batches:
        for row, g in zip(rows, gamma):
            row[x - 1] -= g
            row[x - 1 + step] += g
    return Config._unchecked(tuple(map(tuple, rows)), None, cfg.n)


def _zrp_window(window, q, direction):
    """Basis, emitting sites and batch step of a zero-range window of one
    sector at a checked q; the direction picks the sites and the step."""
    check_q(q)
    basis = list(window)
    if not basis or not all(cfg.is_zero_range for cfg in basis):
        raise DomainError("a window is a nonempty list of zero-range "
                          "configurations")
    L = basis[0].L
    totals = tuple(map(sum, basis[0].counts))
    for cfg in basis:
        if cfg.L != L or cfg.rows != basis[0].rows:
            raise DomainError("window configurations differ in shape")
        if tuple(map(sum, cfg.counts)) != totals:
            raise DomainError("window configurations differ in totals")
    if direction == "left":
        return basis, range(2, L + 1), -1
    if direction == "right":
        return basis, range(1, L), +1
    raise DomainError("direction must be left or right, got %r" % (direction,))


def qhahn_discrete_kernel(window, lam, mu, q, direction):
    """One-step kernel of the sitewise batch-moving chain on a window.

    window: list of zero-range configurations closed under the dynamics
    (one conserved-counts sector).  direction "left": sites 2..L emit and
    batches land one site down; "right": sites 1..L-1 emit, batches land
    one site up.  Every site emits simultaneously, so one step multiplies
    independent per-site weights, each computed once per site content by
    one weight function of `_weights`: each q-scalar once per kernel.
    """
    basis, emit, step = _zrp_window(window, q, direction)
    weight, site_weights = _weights(lam, mu, q), {}

    def weights(beta):
        if beta not in site_weights:
            site_weights[beta] = [
                (gamma, weight(gamma, beta))
                for gamma in itertools.product(*(range(c + 1) for c in beta))]
        return site_weights[beta]

    def moves(cfg):
        choices = [weights(cfg.site(x)) for x in emit]
        for batches in itertools.product(*choices):
            prob = math.prod(weight for _, weight in batches)
            if prob != 0:
                moved = zip(emit, (gamma for gamma, _ in batches))
                yield _move_batches(cfg, moved, step), prob

    return assemble(basis, moves, "kernel")


def _zrp_generator(window, q, direction, site_rates):
    """The single-site moves of a window, site_rates(beta) read once per
    distinct site content beta, as the kernel reads its weights."""
    basis, emit, step = _zrp_window(window, q, direction)
    rates = {}

    def moves(cfg):
        for x in emit:
            beta = cfg.site(x)
            if beta not in rates:
                rates[beta] = site_rates(beta)
            for gamma, rate in rates[beta].items():
                yield _move_batches(cfg, ((x, gamma),), step), rate

    return assemble(basis, moves)


def qhahn_continuous_generator(window, mu, q, direction):
    """Continuous-time generator matching -d/dlambda of the kernel at 1."""
    return _zrp_generator(window, q, direction,
                          lambda beta: qhahn_continuous_rates(beta, mu, q))


def qtazrp_generator(window, q, direction):
    """Generator of the single-jump chain (vanishing-mu limit, per unit mu)."""
    return _zrp_generator(window, q, direction,
                          lambda beta: qtazrp_rates(beta, q))
