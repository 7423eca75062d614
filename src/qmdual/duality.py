"""Orthogonal-polynomial duality functions for the exclusion and zero-range chains.

The exclusion-process self-duality function is a nested product of
q-Krawtchouk polynomials evaluated on intermediate configurations, times a
square-root ground-state correction G; the conserved correction C pairs with
it in the orthogonality relations.  C is the form derived from the
orthogonality weights.  Degenerating the site capacities yields the
zero-range duality `qhahn_D`, a half-power form that lives in the quadratic
field Q(s), s^2 = q, so it stays exact for every rational base.  The
q-TAZRP duality at asymmetry q is `qhahn_D` at base q^2, with the left
process as the first argument.

Conventions:
- public entry points take the exclusion asymmetry parameter q and run the
  hypergeometric series in base q^2.
- the zero-range exponent h counts the xi suffix in the eta term from the
  site itself; the generator intertwining check fails for the suffix that
  starts strictly right of it.  `qhahn_D` expands s^h prod (1 - s^e) in s;
  the tests hold the oracles: the "strict" h, the closed Pochhammer-ratio
  form of C, and the 1phi0-series and finite-product forms of `qhahn_D`.

Memo: a `DualityParams` object is what a caller builds once per duality
matrix, and the exclusion-duality functions that take it read their
pair-independent invariants through a private memo on it:
- the reversible measure of each configuration's sector;
- the single-species measure of each (species, row, capacities) that an
  intermediate configuration shows;
- each q-Krawtchouk site factor K_e(q^{-2c}; p q^{2s}, t; q^2), keyed by
  species, degree e, argument c, capacity t and shift s, and its shifted
  parameter p q^{2s}.
No key names a pair.  On a sector of N configurations with n species,
`multi_species_D` and `correction_C_sq` read measures only on pairs whose
intermediate configurations are all feasible; each such configuration lies
in the sector and fixes its (row, capacities) keys, so they store at most
N sector measures and 2nN species measures.  The site factors and shifted
parameters are bounded by the capacities alone.  Every key carries the
working precision, so a float entry is never reused at another one.  The
memo lives and dies with the params object, which is immutable; nothing is
cached at module level.
"""

import math
from itertools import accumulate

import mpmath

from .errors import DomainError
from .lattice import Config, intermediate_configs, is_feasible
from .models import reversible_measure, single_species_measure
from .qcalc import _check_q, _exact_q, q_krawtchouk, q_poch, q_poch_ratio
from .scalars import SNum, is_exact, q_root, sqrt, to_mpf


class DualityParams:
    """Per-species parameters of the nested duality function.

    a: the coupling a_i = sqrt(alpha_i) per species (length n, species
    0..n-1), positive.  The formulas read alpha_i = a_i^2; at rational a and
    q every value of D lies in Q(s), s^2 = q.
    q: the asymmetry parameter, a rational or a float.  An SNum q is refused:
    the sector measures carry q^(1/2), which has no place in the field of q.
    An mpf among a and q turns them all into mpfs.
    The ground-state correction uses each sector's unnormalized reversible
    measure.  Weighing sector k by w_k instead only divides D(xi, eta) by
    sqrt(w_k(xi) w_k(eta)), the sector-constant freedom of any duality.

    The object is immutable and carries the memo of pair-independent
    invariants described in the module docstring; it grows with the number
    of configurations passed in, never with the number of pairs, and is
    freed with the object.
    """

    __slots__ = ("a", "q", "_memo")

    def __init__(self, a, q):
        a = tuple(_exact_q(v) for v in a)
        q = _check_q(q)
        if isinstance(q, SNum):
            raise DomainError("q=%r must be a rational or a float" % (q,))
        if any(not is_exact(v) for v in a + (q,)):
            a = tuple(to_mpf(v) for v in a)
            q = to_mpf(q)
        for v in a:
            if not v > 0:
                raise DomainError("species coupling a=%r must be positive" % (v,))
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

    def _cached(self, key, compute):
        """compute(), once per key and working precision."""
        key = (mpmath.mp.prec,) + key
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def __repr__(self):
        return "DualityParams(a=%r, q=%r)" % (self.a, self.q)


# -- single-species building block --------------------------------------------


def _site_shifts(xi_row, eta_row, theta_row):
    """Per-site exponent left(theta) - left(xi) + right(eta) of the shifted
    Krawtchouk parameter p_x = p q^{shift}."""
    eta_right = sum(eta_row)
    theta_cum = 0
    xi_cum = 0
    out = []
    for c, e, t in zip(xi_row, eta_row, theta_row):
        eta_right -= e
        out.append(theta_cum - xi_cum + eta_right)
        theta_cum += t
        xi_cum += c
    return out


def _kraw_sites(xi_row, eta_row, theta_row, params, i):
    """prod_x `_site_factor`(params, i, eta^x, xi^x, theta^x, shift_x) over
    the sites where xi or eta is occupied (an empty site contributes
    K_0(1) = 1); 0 when an index exceeds its site capacity."""
    for c, e, t in zip(xi_row, eta_row, theta_row):
        if not (0 <= c <= t and 0 <= e <= t):
            return 0
    value = 1
    for x, shift in enumerate(_site_shifts(xi_row, eta_row, theta_row)):
        if eta_row[x] == 0 and xi_row[x] == 0:
            continue
        value = value * _site_factor(params, i, eta_row[x], xi_row[x],
                                     theta_row[x], shift)
    return value


def w_over_h(xi_row, eta_row, theta_row, p, q):
    """Ratio weight(xi)/norm(eta) of the site-nested q-Krawtchouk family.

    Both pieces carry an infinite q-Pochhammer whose tails cancel in the
    ratio, so the result is a finite product and stays exact on the exact
    backend.
    """
    if not len(xi_row) == len(eta_row) == len(theta_row):
        raise DomainError("rows %s, %s do not match capacities %s"
                          % (xi_row, eta_row, theta_row))
    n_th, n_xi, n_eta = sum(theta_row), sum(xi_row), sum(eta_row)
    value = _exact_q((-1) ** (n_th - n_xi + n_eta))
    value = value * q_poch_ratio(p, q, n_eta + 1, n_th - n_xi + 1)
    value = value * q ** (-math.comb(n_th + 1, 2)) * p ** (-n_th)
    xi_left = 0
    eta_right = n_eta
    for x in range(len(theta_row)):
        c, e, t = xi_row[x], eta_row[x], theta_row[x]
        if not (0 <= c <= t and 0 <= e <= t):
            raise DomainError("occupancy %s or %s outside 0..%s at site %d"
                              % (c, e, t, x + 1))
        value = value * q_poch(q, q, t) ** 2
        value = value * q ** (math.comb(c, 2) + math.comb(e + 1, 2)
                              + t * (xi_left - eta_right))
        value = value / (q_poch(q, q, c) * q_poch(q, q, t - c)
                         * q_poch(q, q, e) * q_poch(q, q, t - e))
        xi_left += c
        eta_right -= e
    return value


# -- multi-species duality -----------------------------------------------------


def _check_pair(xi, eta, params):
    """Types and species count; `intermediate_configs` checks the rest."""
    if not (isinstance(xi, Config) and isinstance(eta, Config)):
        raise DomainError("configurations expected")
    if xi.n != params.n:
        raise DomainError("params carry %d species but configs have %d"
                          % (params.n, xi.n))


def _sector_measure(cfg, params):
    """Reversible measure of cfg in the ground-state correction, once per
    configuration."""
    return params._cached(("sector", cfg),
                          lambda: reversible_measure(cfg, params.q))


def _species_measure(params, i, row, theta):
    """Single-species measure of species i's row on capacities theta, at
    fugacity alpha_i = a_i^2."""
    return params._cached(("species", i, row, theta), lambda: single_species_measure(
        row, theta, params.a[i] ** 2, params.q))


def _site_p(params, i, shift):
    """Shifted Krawtchouk parameter p q^{2 shift} of species i,
    p = 1/(a_i^2 q)."""
    q = params.q
    return params._cached(("p", i, shift),
                          lambda: 1 / (params.a[i] ** 2 * q) * (q * q) ** shift)


def _site_factor(params, i, e, c, t, shift):
    """K_e(q^{-2c}; p q^{2 shift}, t; q^2) of species i."""
    q = params.q
    return params._cached(("kraw", i, e, c, t, shift), lambda: q_krawtchouk(
        e, c, _site_p(params, i, shift), t, q * q))


def correction_G_sq(xi, eta, params):
    """Radicand of the ground-state correction G (exact-friendly)."""
    _check_pair(xi, eta, params)
    return _G_sq(xi, eta, params, intermediate_configs(xi, eta))


def _G_sq(xi, eta, params, intermediates):
    num = 1
    for iv in intermediates:
        num = num * _species_measure(params, iv.i, xi.row(iv.i), iv.theta)
        num = num * _species_measure(params, iv.i, iv.rows[iv.i], iv.theta)
    return num / (_sector_measure(xi, params) * _sector_measure(eta, params))


def correction_G(xi, eta, params):
    """Ground-state correction: square root of the measure ratio, exact in
    Q(s) at exact params; a radicand with no root there raises
    `DomainError`."""
    return sqrt(correction_G_sq(xi, eta, params), params.q)


def correction_C_sq(xi, eta, params):
    """Radicand of the conserved correction C: the orthogonality weight ratio
    divided by the single-species measures, which is the form the
    orthogonality relation guarantees."""
    _check_pair(xi, eta, params)
    q = params.q
    intermediates = intermediate_configs(xi, eta)
    if not all(is_feasible(iv) for iv in intermediates):
        return 0
    value = 1
    for iv in intermediates:
        xi_row, zeta_row = xi.row(iv.i), iv.rows[iv.i]
        num = w_over_h(xi_row, zeta_row, iv.theta, _site_p(params, iv.i, 0),
                       q * q)
        den = (_species_measure(params, iv.i, xi_row, iv.theta)
               * _species_measure(params, iv.i, zeta_row, iv.theta))
        value = value * num / den
    return value


def correction_C(xi, eta, params):
    """Conserved correction C: square root of `correction_C_sq`, always an
    mpf.  The radicand is exact at exact params, but most pairs' C^2 is no
    square in Q(s), so the root is taken in floats on purpose."""
    return sqrt(to_mpf(correction_C_sq(xi, eta, params)))


def kraw_chain(xi, eta, params):
    """The nested q-Krawtchouk product over intermediate configurations,
    without the ground-state correction; 0 on infeasible pairs."""
    _check_pair(xi, eta, params)
    return _kraw_chain(xi, params, intermediate_configs(xi, eta))


def _kraw_chain(xi, params, intermediates):
    value = 1
    for iv in intermediates:
        if not is_feasible(iv):
            return 0
        factor = _kraw_sites(xi.row(iv.i), iv.rows[iv.i], iv.theta,
                             params, iv.i)
        if not factor:
            return 0
        value = value * factor
    return value


def multi_species_D(xi, eta, params):
    """Self-duality value for the multi-species exclusion chain: the
    q-Krawtchouk chain times G.  Exact params give a value in Q(s), s^2 = q,
    on every pair, cross-sector ones included; mpf params an mpf."""
    _check_pair(xi, eta, params)
    intermediates = intermediate_configs(xi, eta)
    value = _kraw_chain(xi, params, intermediates)
    if not value:
        return 0
    return sqrt(_G_sq(xi, eta, params, intermediates), params.q) * value


def orthogonality_range_report(xi, eta, params):
    """Sites where the q-Krawtchouk orthogonality constraint p q^{2c} > 1 fails.

    Violations are reported, not enforced: the duality value itself is still
    well defined there, only the orthogonality weights lose positivity.
    """
    _check_pair(xi, eta, params)
    q = params.q
    q2 = q * q
    report = []
    for iv in intermediate_configs(xi, eta):
        if not is_feasible(iv):
            continue
        shifts = _site_shifts(xi.row(iv.i), iv.rows[iv.i], iv.theta)
        for x, (shift, t) in enumerate(zip(shifts, iv.theta), start=1):
            bound = _site_p(params, iv.i, shift) * q2 ** t
            if not bound > 1:
                report.append("species %d site %d: p q^(2 theta) = %s <= 1"
                              % (iv.i, x, bound))
    return report


# -- zero-range duality functions ----------------------------------------------


def h_exponent(xi, eta):
    """Integer exponent h of two zero-range configurations: the sum over
    sites x and species i < n-1 of eta_i^x xi_m(>= x) - xi_i^x eta_m(> x),
    m = n-2-i, where cfg_m(>= x) counts species 0..m at sites >= x."""
    if not (isinstance(xi, Config) and isinstance(eta, Config)):
        raise DomainError("configurations expected")
    if not (xi.is_zero_range and eta.is_zero_range):
        raise DomainError("zero-range configurations expected")
    if xi.n != eta.n or xi.L != eta.L:
        raise DomainError("zero-range configs disagree in species count or length")
    xi_suffix = eta_suffix = [0] * xi.n
    total = 0
    sites = zip(zip(*xi.counts), zip(*eta.counts))  # (xi, eta) columns
    for xi_site, eta_site in reversed(list(sites)):  # right to left
        xi_suffix = [a + b for a, b in zip(xi_suffix, accumulate(xi_site))]
        total += sum(e * xs - x * es for e, x, xs, es in zip(
            eta_site, xi_site, xi_suffix[-2::-1], eta_suffix[-2::-1]))
        eta_suffix = [a + b for a, b in zip(eta_suffix, accumulate(eta_site))]
    return total


def qhahn_D(eta, xi, q):
    """Half-power duality value for the zero-range chains in base q.

    Argument order follows the left process first: eta moves left, xi moves
    right.  For rational q the value is exact in Q(s), s^2 = q, and rational
    when q is a perfect square.  An SNum q or a negative q raises
    `DomainError`, and q in {-1, 0, 1} `DegenerateQError`.  It is also the
    duality of the single-jump chains `qtazrp_generator` at the same base.

    Newton's q-binomial theorem sums each 1phi0 series: D = s^h prod_e
    (1 - s^e) over odd e, expanded in s with int coefficients and summed as
    even(q) + s odd(q).  The sums cancel at most (2 (1+q) / |1-q|)^N-fold
    over N factors; an mpf q adds the log2 of that to the working bits.
    """
    poly = {h_exponent(xi, eta): 1}  # h_exponent checks the pair
    q = _check_q(q)
    for row, partner in zip(xi.counts, reversed(eta.counts)):
        k = sum(partner)  # row left of x, plus c, plus partner right of x
        for c, p in zip(row, partner):
            k += c - p
            for e in range(1 - 2 * k, 1 - 2 * (k - c), 2):  # times (1 - s^e)
                for power, v in list(poly.items()):
                    poly[power + e] = poly.get(power + e, 0) - v
    low, prec = min(poly) // 2, mpmath.mp.prec
    if not is_exact(q):  # log2 of len(poly) (2 (1+q) / |1-q|)^N, rounded up
        n_factors = sum(map(sum, xi.counts))
        prec += mpmath.mag(len(poly)) + n_factors * mpmath.mag(2 * (1 + q) / (1 - q))
    with mpmath.workprec(prec):
        s, parts = q_root(q), [0, 0]  # even, odd: s^p = q^(p // 2) s^(p % 2)
        for j in range(max(poly) // 2, low - 1, -1):  # Horner in q
            parts = [v * q + poly.get(2 * j + r, 0) for r, v in enumerate(parts)]
        value = (parts[0] + s * parts[1]) * q ** low
    return value if is_exact(q) else +value
