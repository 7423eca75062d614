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

from .errors import DomainError
from .lattice import Config, enumerate_sector, n_total
from .ops import SparseMatrix
from .qcalc import _check_q, _div, brace_int, q_binom, q_fact, q_poch, qq_binom
from .scalars import q_root


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
    return GeneratorMatrix(basis, index, entries, kind)


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
    q = _check_q(q)
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
    assert new_x[a] >= 0 and new_x1[b] >= 0
    return tuple(new_x), tuple(new_x1)


def asep_moves(q):
    """moves(cfg) for `assemble`: the exclusion chain's (target, rate) per
    bond swap out of cfg.  Each closure computes the rates of a distinct
    (site x, site x+1) pair once and reuses them for every configuration."""
    q = _check_q(q)
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
    return assemble(enumerate_sector(sector), asep_moves(q))


def _replace_sites(cfg, x, new_x, new_x1):
    # a bond swap keeps every column sum and sign, so the target needs no
    # second validation
    counts = tuple(row[:x - 1] + (a, b) + row[x + 1:]
                   for row, a, b in zip(cfg.counts, new_x, new_x1))
    return Config._unchecked(counts, cfg.theta, cfg.n)


# -- reversible measures -----------------------------------------------------

def reversible_measure(cfg, q):
    """Weight of one configuration under its sector's reversible measure.

    Exact backend: pass q as a Fraction.  The q^{(count^2)/2} factor puts the
    value in Q(s), s = `q_root(q)`: an SNum when the squared counts sum to an
    odd number and q is not a square, a Fraction otherwise.  An SNum q or a
    negative q raises `DomainError`.
    """
    if cfg.is_zero_range:
        raise DomainError("the reversible measure needs capacity mode")
    q = _check_q(q)
    s = q_root(q)
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
    value = value * q ** (halves // 2 - 2 * cross)
    return value * s if halves % 2 else value


def single_species_measure(xi, theta, alpha, q):
    """One-species product measure with fugacity alpha on capacities theta.

    xi is the per-site count tuple of the species.  Returns 0 on counts
    outside [0, theta^x].  Uses the symmetric Gaussian binomial.
    """
    xi = tuple(xi)
    theta = tuple(theta)
    if len(xi) != len(theta):
        raise DomainError("%d counts for %d capacities" % (len(xi), len(theta)))
    q = _check_q(q)
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


def _phi(gamma, beta, lead, ratio, mu, q):
    """q^chi ratio^|gamma| lead(|gamma|) (ratio; q)_{|beta|-|gamma|}
    / (mu; q)_{|beta|} times the (q;q)-binomials, the product shared by the
    Phi weight and its lambda-derivative; 0 outside 0 <= gamma <= beta."""
    q = _check_q(q)
    gamma = tuple(int(g) for g in gamma)
    beta = tuple(int(b) for b in beta)
    if len(gamma) != len(beta):
        raise DomainError("batch %r and site %r disagree on the species count"
                          % (gamma, beta))
    if not all(0 <= g <= b for g, b in zip(gamma, beta)):
        return 0
    g, b = sum(gamma), sum(beta)
    value = (q ** _chi(beta, gamma) * ratio ** g * lead(g)
             * q_poch(ratio, q, b - g) / q_poch(mu, q, b))
    for bi, gi in zip(beta, gamma):
        value = value * qq_binom(bi, gi, q)
    return value


def phi_weight(gamma, beta, lam, mu, q):
    """Probability that batch gamma leaves a site holding beta.

    Vector-valued gamma, beta; scalar parameters lam, mu, q.  Zero outside
    0 <= gamma <= beta componentwise.  Stochastic in gamma for any lam, mu;
    the reversibility lemma additionally wants 0 < lam <= 1, 0 <= mu < 1,
    which is not enforced here (derivative checks step past lam = 1).
    """
    if lam == 0:
        raise DomainError("lambda = 0 collapses the weight")
    return _phi(gamma, beta, lambda g: q_poch(lam, q, g), _div(mu, lam), mu, q)


def phi_weight_dlambda(gamma, beta, mu, q):
    """d/dlambda of phi_weight at lambda = 1, for gamma != 0; nonpositive.

    (lambda; q)_{|gamma|} has a simple zero at lambda = 1, so only the term
    differentiating that factor survives: replace it by -(q; q)_{|gamma|-1}
    and evaluate everything else at lambda = 1.
    """
    def lead(g):
        if g < 1:
            raise DomainError("the lambda-derivative at the empty batch is "
                              "minus the rest")
        return -q_poch(q, q, g - 1)

    return _phi(gamma, beta, lead, mu, mu, q)


def qhahn_continuous_rates(beta, mu, q):
    """Continuous-time departure rates -Phi' for every nonzero batch.

    Returns {gamma: rate}; rates are nonnegative for mu in [0, 1),
    q in (0, 1), and every rate carries a factor mu^{|gamma|}.
    """
    q = _check_q(q)
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
    q = _check_q(q)
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


def _zrp_window(window, q, direction):
    """Basis, emitting sites and batch step of a zero-range window of one
    sector at a checked q; the direction picks the sites and the step."""
    _check_q(q)
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
    independent per-site weights, each computed once per site content.
    """
    basis, emit, step = _zrp_window(window, q, direction)
    site_weights = {}

    def weights(beta):
        if beta not in site_weights:
            site_weights[beta] = [
                (gamma, phi_weight(gamma, beta, lam, mu, q))
                for gamma in itertools.product(*(range(c + 1) for c in beta))]
        return site_weights[beta]

    def moves(cfg):
        choices = [weights(cfg.site(x)) for x in emit]
        for batches in itertools.product(*choices):
            prob = 1
            target = cfg
            for x, (gamma, weight) in zip(emit, batches):
                prob = prob * weight
                if prob == 0:
                    break
                target = _move_batch(target, x, gamma, step)
            if prob != 0:
                yield target, prob

    return assemble(basis, moves, "kernel")


def _zrp_generator(window, q, direction, site_rates):
    basis, emit, step = _zrp_window(window, q, direction)

    def moves(cfg):
        for x in emit:
            for gamma, rate in site_rates(cfg.site(x)).items():
                yield _move_batch(cfg, x, gamma, step), rate

    return assemble(basis, moves)


def qhahn_continuous_generator(window, mu, q, direction):
    """Continuous-time generator matching -d/dlambda of the kernel at 1."""
    return _zrp_generator(window, q, direction,
                          lambda beta: qhahn_continuous_rates(beta, mu, q))


def qtazrp_generator(window, q, direction):
    """Generator of the single-jump chain (vanishing-mu limit, per unit mu)."""
    return _zrp_generator(window, q, direction,
                          lambda beta: qtazrp_rates(beta, q))
