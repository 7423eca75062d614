"""Orthogonal-polynomial duality functions for the exclusion and zero-range chains.

The exclusion-process self-duality function is a nested product of
q-Krawtchouk polynomials on intermediate configurations, times a ground-state
correction G, a product of measures; the conserved correction C pairs with it
in the orthogonality relations.  C^2 is a closed form of sector totals, one
value per (sector of xi, sector of eta) block, positive on every pair when
`outside_orthogonality_range`, which reads only a, q and |theta|, flags none.
Degenerating the site capacities yields the zero-range duality `qhahn_D`, a
half-power form in the quadratic field Q(s), s^2 = q, so it stays exact for
every rational base.  The q-TAZRP duality at asymmetry q is `qhahn_D` at
base q^2, with the left process as the first argument.

Conventions:
- public entry points take the exclusion asymmetry parameter q and run the
  hypergeometric series in base q^2.
- the zero-range exponent h counts the xi suffix in the eta term from the
  site itself; the generator intertwining check fails for the suffix that
  starts strictly right of it.  `qhahn_D` multiplies s^h by its factors
  (1 - s^e) as one running int triple (A + B s)/C, then makes A/C and B/C
  two Fractions; the tests hold the oracles: the "strict" h, G^2 as a ratio
  of four measures, the site-by-site form of C^2 derived from the
  orthogonality weights and its Pochhammer-ratio reading, and the
  1phi0-series and finite-product forms of `qhahn_D`.

Memo: a `DualityParams` object is what a caller builds once per duality
matrix, and the exclusion-duality functions that take it read their
pair-independent invariants through a private memo on it:
- the inverse 1/mu(xi) of each configuration's reversible measure, as an
  int pair with its s-parity: mu(xi) is r s^odd with r rational, and the
  entry is (num, den, odd) with 1/mu(xi) = num/den s^odd;
- the single-species measure of each (species, row, capacities) that a
  row xi_i shows on the capacities theta^{(i)} of its pair;
- each q-Krawtchouk site factor K_e(q^{-2c}; p q^{2s}, t; q^2) with e and
  c positive, keyed by species, degree e, argument c, capacity t and
  shift s.
Species measures and site factors are int pairs (numerator, denominator): a
pair multiplies them, 1/mu(xi) and its powers of a_i and q as ints, then
builds one Fraction, times s once when its power of s is odd.
No key names a pair.  On a sector of N configurations with n species,
`multi_species_D` and `correction_G` read xi's measures only, on the pairs
that `intermediate_configs` does not refuse.  There the key (xi_i,
theta^{(i)}) holds rows i and i+1 of zeta^{(i+1)}, a configuration of the
sector (zeta^{(n)} = xi), so they store at most N sector measures and nN
species measures.  The site factors are bounded by the capacities alone.
The memo lives and dies with the params object, which is immutable;
nothing is cached at module level.
"""

from fractions import Fraction
from operator import add

from .errors import DomainError
from .lattice import Config, intermediate_configs
from .models import reversible_measure, single_species_measure
from .qcalc import q_krawtchouk, q_poch_ratio
from .scalars import (SNum, check_q, exact, lift_int, power_parts, q_root,
                      rational_q)


class DualityParams:
    """Per-species parameters of the nested duality function.

    a: the coupling a_i = sqrt(alpha_i) per species (length n, species
    0..n-1), positive and exact.  The formulas read alpha_i = a_i^2; at
    rational a and q every value of D lies in Q(s), s^2 = q.
    q: the asymmetry parameter, a rational.  An SNum q is refused: the
    sector measures carry q^(1/2), which has no place in the field of q.
    A float a or q raises `DomainError`.
    The ground-state correction uses each sector's unnormalized reversible
    measure.  Weighing sector k by w_k instead only divides D(xi, eta) by
    sqrt(w_k(xi) w_k(eta)), the sector-constant freedom of any duality.

    The object is immutable and carries the memo described in the module
    docstring: int pairs whose products give each pair's value as a single
    Fraction.  It grows with the configurations passed in, never with the
    number of pairs, and is freed with the object.
    """

    __slots__ = ("a", "q", "_memo")

    def __init__(self, a, q):
        a, q = tuple(lift_int(exact(v, "a")) for v in a), rational_q(q)
        if not all(v > 0 for v in a):
            raise DomainError("couplings a=%r must be positive" % (a,))
        self.a = a
        self.q = q
        self._memo = {}

    def __setattr__(self, name, value):
        if hasattr(self, "_memo"):
            raise AttributeError("DualityParams is immutable")
        object.__setattr__(self, name, value)

    @property
    def n(self):
        return len(self.a)

    def __repr__(self):
        return "DualityParams(a=%r, q=%r)" % (self.a, self.q)


# -- multi-species duality -----------------------------------------------------


def _intermediates(xi, eta, params):
    """`intermediate_configs` of the pair, None when it is infeasible, after
    checking its species count against params."""
    intermediates = intermediate_configs(xi, eta)
    if xi.n != params.n:
        raise DomainError("params carry %d species but configs have %d"
                          % (params.n, xi.n))
    return intermediates


def _site_p(params, i, shift):
    """Shifted Krawtchouk parameter p q^{2 shift} of species i,
    p = 1/(a_i^2 q)."""
    q = params.q
    return 1 / (params.a[i] ** 2 * q) * (q * q) ** shift


def _inverse_measure(mu):
    """The sector memo entry (num, den, odd) of a measure mu = r s^odd, r
    rational: 1/mu = num/den s^odd, since 1/(r s) = s/(r q)."""
    odd = type(mu) is SNum
    inverse = 1 / (mu.b * mu.sbase) if odd else 1 / mu
    return inverse.numerator, inverse.denominator, int(odd)


def _G(xi, params, intermediates, num=1, den=1):
    """`correction_G` of a feasible pair times num/den, by the int pass of the
    module docstring.  A power of a_i whose exponent is 0 is skipped: inside
    a sector e = c for every species, and there
    G = prod_i mu_i(xi_i; theta^{(i)}) / mu(xi).  k counts the powers of s,
    those of 1/mu(xi) included, so one q_root product serves an odd k."""
    memo, q, a = params._memo, params.q, params.a
    key = ("sector", xi)
    mn, md, odd = memo.get(key) or memo.setdefault(
        key, _inverse_measure(reversible_measure(xi, q)))
    num, den, k = num * mn, den * md, odd
    for iv in intermediates:
        i, row, theta = iv.i, xi.counts[iv.i], iv.theta
        c, e = sum(row), sum(iv.row)
        if e != c:
            k += c * c - e * e
            pn, pd = power_parts(a[i], e - c)
            num, den = num * pn, den * pd
        key = ("species", i, row, theta)
        mn, md = memo.get(key) or memo.setdefault(key, power_parts(
            single_species_measure(row, theta, a[i] ** 2, q)))
        num, den = num * mn, den * md
    pn, pd = power_parts(q, k // 2)  # s^k = q^(k//2) s^(k%2)
    value = Fraction(num * pn, den * pd)
    if k % 2:
        return value * q_root(q)  # an odd k adds s, as in the measure
    # an even k with an odd 1/mu(xi) has s^2 from two SNum factors, so the
    # value is a product of SNums: an SNum with a zero s-part
    return SNum(value) if odd else value


def correction_G(xi, eta, params):
    """Ground-state correction G = prod_i a_i^(e-c) q^((c^2-e^2)/2)
    mu_i(xi_i; theta^{(i)}) / mu(xi), c = |xi_i|, e = |zeta^{(i)}_i|; 0 on an
    infeasible pair.  From zeta^{(i)} to zeta^{(i+1)} only rows i and i+1
    change, so mu changes by mu_i(xi_i) / mu_i(zeta^{(i)}_i) q^(c^2-e^2)
    alpha_i^(e-c); telescoping from eta to xi makes G the positive root of
    prod_i mu_i(xi_i) mu_i(zeta^{(i)}_i) / (mu(xi) mu(eta))."""
    intermediates = _intermediates(xi, eta, params)
    return 0 if intermediates is None else _G(xi, params, intermediates)


def correction_C_sq(xi, eta, params):
    """Radicand of the conserved correction C, 0 on an infeasible pair.

    It is the orthogonality weight ratio w(xi_i)/h(zeta_i) on theta^{(i)} at
    p = 1/(alpha_i q), base q^2, over the measures mu_i(xi_i) mu_i(zeta_i),
    which closes to prod_i of
      (-1)^(t-c+e) alpha_i^(t-c-e) q^(-t^2+2tc-c+e)
        (p q^{2(e+1)}; q^2)_inf / (p q^{2(t-c+1)}; q^2)_inf
    with c = |xi_i|, e = |zeta^{(i)}_i| and t = |theta^{(i)}|: the
    q^2-binomials of w/h and of the measures cancel site by site, and the
    cross-site exponents cancel or sum to these totals.  t and e are sector
    totals, so C^2 is constant on each (sector of xi, sector of eta) block.
    Proved: the ratio is m = |t-c-e| factors (1 - p q^{2k})^(+-1), 1 <= k <=
    |theta|, each negative inside the range of `outside_orthogonality_range`;
    as (-1)^(t-c+e) = (-1)^m, C^2 > 0 on every feasible pair.  A factor is 0
    exactly at alpha_i = q^(2k-1), where `DomainError` names the species.
    That the relation fails outside the range is pinned by tests, not proved.
    """
    intermediates = _intermediates(xi, eta, params)
    if intermediates is None:
        return 0
    value = 1
    for iv in intermediates:
        value = value * _C_sq_factor(params, iv.i, sum(xi.counts[iv.i]),
                                     sum(iv.row), sum(iv.theta))
    return value


def _C_sq_factor(params, i, c, e, t):
    """Species i's factor of `correction_C_sq` from its three totals."""
    q, alpha = params.q, params.a[i] ** 2
    try:
        ratio = q_poch_ratio(_site_p(params, i, 0), q * q, e + 1, t - c + 1)
    except ZeroDivisionError:
        raise DomainError("C^2 has a pole: species %d has alpha = %s, an odd "
                          "power of q = %s" % (i, alpha, q)) from None
    return ((-1) ** (t - c + e) * alpha ** (t - c - e)
            * q ** (-t * t + 2 * t * c - c + e) * ratio)


def kraw_chain(xi, eta, params):
    """The nested q-Krawtchouk product over intermediate configurations,
    without the ground-state correction; 0 on infeasible pairs."""
    num, den, factors = _kraw_chain(xi, params, _intermediates(xi, eta, params))
    if not (num and factors):
        return num and 1  # 0 if a factor is, 1 if no site contributes
    return Fraction(num, den)


def _kraw_chain(xi, params, intermediates):
    """(num, den, factors): the product over species i and sites x of
    K_e(q^{-2c}; p q^{2 shift}, t; q^2) is num/den, of `factors` factors;
    num is 0 on an infeasible pair or if a factor is 0.  (c, e, t) are the
    entries of xi_i, zeta^{(i)}_i, theta^{(i)} at x, and shift is
    left(theta) - left(xi) + right(eta), strictly left or right of x.  A
    site with e = 0 or c = 0 contributes K_0(x) = K_e(1) = 1 and is skipped.
    `intermediate_configs` checked the rows, so e and c lie in 0..t."""
    if intermediates is None:
        return 0, 1, 0
    memo, q, num, den, factors = params._memo, params.q, 1, 1, 0
    for iv in intermediates:
        i, shift = iv.i, sum(iv.row)
        for c, e, t in zip(xi.counts[i], iv.row, iv.theta):
            shift -= e
            if c and e:
                key = ("kraw", i, e, c, t, shift)
                fn, fd = memo.get(key) or memo.setdefault(key, power_parts(
                    q_krawtchouk(e, c, _site_p(params, i, shift), t, q * q)))
                num, den, factors = num * fn, den * fd, factors + 1
            shift += t - c
    return num, den, factors


def multi_species_D(xi, eta, params):
    """Self-duality value for the multi-species exclusion chain: the
    q-Krawtchouk chain times G.  Exact params give a value in Q(s), s^2 = q,
    on every pair, cross-sector ones included."""
    intermediates = _intermediates(xi, eta, params)
    num, den, _ = _kraw_chain(xi, params, intermediates)
    return num and _G(xi, params, intermediates, num, den)


def outside_orthogonality_range(params, theta):
    """The species i whose alpha_i = a_i^2 is not below min(q, q^(2|theta|-1)),
    |theta| = sum(theta): one answer for every pair (see `correction_C_sq`)."""
    total = sum(theta)
    bound = min(params.q, params.q ** (2 * total - 1))
    return tuple(i for i, a in enumerate(params.a) if not a * a < bound)


# -- zero-range duality functions ----------------------------------------------


def h_exponent(xi, eta):
    """Integer exponent h of two zero-range configurations: the sum over
    sites x and species i < n-1 of eta_i^x xi_m(>= x) - xi_i^x eta_m(> x),
    m = n-2-i, where cfg_m(>= x) counts species 0..m at sites >= x.  With
    the sum over x taken inside the sum over the suffix sites y, it is one
    pass per species with two running sums: the sum over y of
    Xi_m^y eta_i(<= y) - Eta_m^y xi_i(< y), Xi_m^y and Eta_m^y the counts of
    species 0..m at y."""
    if not (isinstance(xi, Config) and isinstance(eta, Config)):
        raise DomainError("configurations expected")
    if not (xi.is_zero_range and eta.is_zero_range):
        raise DomainError("zero-range configurations expected")
    if xi.n != eta.n or xi.L != eta.L:
        raise DomainError("zero-range configs disagree in species count or length")
    total, xi_m, eta_m = 0, (0,) * xi.L, (0,) * xi.L
    for m in range(xi.n - 1):
        i = xi.n - 2 - m
        xi_m = tuple(map(add, xi_m, xi.counts[m]))
        eta_m = tuple(map(add, eta_m, eta.counts[m]))
        eta_upto = xi_before = 0  # eta_i at sites <= y, xi_i at sites < y
        for e, c, xs, es in zip(eta.counts[i], xi.counts[i], xi_m, eta_m):
            eta_upto += e
            total += xs * eta_upto - es * xi_before
            xi_before += c
    return total


def qhahn_D(eta, xi, q):
    """Half-power duality value for the zero-range chains in base q.

    Argument order follows the left process first: eta moves left, xi moves
    right.  For rational q the value is exact in Q(s), s^2 = q, and rational
    when q is a perfect square.  An SNum, a float or a negative q raises
    `DomainError`, and q in {-1, 0, 1} `DegenerateQError`.  It is also the
    duality of the single-jump chains `qtazrp_generator` at the same base.

    Newton's q-binomial theorem sums each 1phi0 series: D = s^h prod_e
    (1 - s^e), each e odd and negative, so each factor is 1 - q^-j s with
    j = (1 - e)/2.  For q = num/den the running product is one int triple
    (A + B s)/C: a factor maps it to (A num^j - B den^(j-1) num + (B num^j
    - A den^j) s) / (C num^j).  A/C and B/C are the only divisions.
    """
    h, q = h_exponent(xi, eta), check_q(q)  # h_exponent checks the pair
    s, (num, den) = q_root(q), power_parts(q)  # q_root refuses an SNum q
    k, odd = divmod(h, 2)  # s^h = q^k s^odd
    top, low = power_parts(q, k)
    a, b = (0, top) if odd else (top, 0)
    for row, partner in zip(xi.counts, reversed(eta.counts)):
        k = sum(partner)  # row left of x, plus c, plus partner right of x
        for c, p in zip(row, partner):
            k += c - p
            for j in range(k - c + 1, k + 1):  # times (1 - q^-j s)
                nj, dj = num ** j, den ** (j - 1)
                a, b, low = a * nj - b * dj * num, b * nj - a * dj * den, low * nj
    a, b = Fraction(a, low), Fraction(b, low)
    return SNum._make(a, b, q) if isinstance(s, SNum) else a + s * b
