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
  starts strictly right of it.  That "strict" form, the closed
  Pochhammer-ratio form of C and the finite-product form of `qhahn_D` live
  in the tests as oracles.

Memo: a `DualityParams` object is what a caller builds once per duality
matrix, and the exclusion-duality functions that take it read their
pair-independent invariants through a private memo on it:
- the measure of each configuration's sector (reversible or mixture);
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
from fractions import Fraction
from functools import partial
from types import MappingProxyType

import mpmath

from .errors import DomainError
from .lattice import Config, charge_parity, intermediate_configs, is_feasible
from .models import mixture_measure, reversible_measure, single_species_measure
from .qcalc import phi10, q_krawtchouk, q_poch, q_poch_ratio
from .scalars import SNum, exact_sqrt, field_base, is_exact, sqrt, to_mpf


def _as_scalar(v):
    """Ints become Fractions so that division never leaves the exact backend."""
    if isinstance(v, int):
        return Fraction(v)
    return v


def _sqrt_param(q):
    """Square root of a positive scalar parameter: exact for exact q, since
    every value built from it must share q's backend."""
    if not is_exact(q):
        return sqrt(q)
    root = exact_sqrt(q, field_base(q))
    if root is None:
        raise DomainError("parameter %r has no exact real square root; "
                          "pass a float to use the float backend" % (q,))
    return root


class DualityParams:
    """Per-species parameters of the nested duality function.

    alpha: positive scalar per species (length n, species 0..n-1).
    q: the asymmetry parameter, a rational or a float.  An SNum q is refused:
    the sector measures carry q^(1/2), which has no place in the field of q.
    weights: optional mixture weights for the reversible measure in the
    ground-state correction, keyed by the full species-count tuple (holes
    included); None means the unnormalized per-sector measure.  A read-only
    copy is kept, so later changes to the caller's dict have no effect.

    The object is immutable and carries the memo of pair-independent
    invariants described in the module docstring; it grows with the number
    of configurations passed in, never with the number of pairs, and is
    freed with the object.
    """

    __slots__ = ("alpha", "q", "weights", "_memo")

    def __init__(self, alpha, q, weights=None):
        alpha = tuple(_as_scalar(a) for a in alpha)
        q = _as_scalar(q)
        if isinstance(q, SNum):
            raise DomainError("q=%r must be a rational or a float" % (q,))
        if any(not is_exact(v) for v in alpha + (q,)):
            alpha = tuple(to_mpf(a) for a in alpha)
            q = to_mpf(q)
        for a in alpha:
            positive = a.sign() > 0 if isinstance(a, SNum) else a > 0
            if not positive:
                raise DomainError("species parameter alpha=%r must be positive" % (a,))
        self.alpha = alpha
        self.q = q
        self.weights = None if weights is None else MappingProxyType(dict(weights))
        self._memo = {}

    def __setattr__(self, name, value):
        if hasattr(self, "_memo"):
            raise AttributeError("DualityParams is immutable")
        object.__setattr__(self, name, value)

    @property
    def n(self):
        return len(self.alpha)

    def _cached(self, key, compute):
        """compute(), once per key and working precision."""
        key = (mpmath.mp.prec,) + key
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def __repr__(self):
        return "DualityParams(alpha=%r, q=%r)" % (self.alpha, self.q)


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


def _kraw_sites(xi_row, eta_row, theta_row, factor):
    """prod_x factor(eta^x, xi^x, theta^x, shift_x) over the sites where xi
    or eta is occupied (an empty site contributes K_0(1) = 1); 0 when an
    index exceeds its site capacity."""
    if not len(xi_row) == len(eta_row) == len(theta_row):
        raise DomainError("rows %s, %s do not match capacities %s"
                          % (xi_row, eta_row, theta_row))
    for c, e, t in zip(xi_row, eta_row, theta_row):
        if not (0 <= c <= t and 0 <= e <= t):
            return 0
    value = 1
    for x, shift in enumerate(_site_shifts(xi_row, eta_row, theta_row)):
        if eta_row[x] == 0 and xi_row[x] == 0:
            continue
        value = value * factor(eta_row[x], xi_row[x], theta_row[x], shift)
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
    value = _as_scalar((-1) ** (n_th - n_xi + n_eta))
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
    if not (isinstance(xi, Config) and isinstance(eta, Config)):
        raise DomainError("configurations expected")
    if xi.is_zero_range or eta.is_zero_range:
        raise DomainError("capacity-mode configurations expected")
    if xi.theta != eta.theta:
        raise DomainError("configurations live on different capacity profiles")
    if xi.n != params.n or eta.n != params.n:
        raise DomainError("params carry %d species but configs have %d"
                          % (params.n, xi.n))


def _sector_measure(cfg, params):
    """Measure of cfg in the ground-state correction, once per configuration."""
    def measure():
        if params.weights is None:
            value = reversible_measure(cfg, params.q)
        else:
            value = mixture_measure(cfg, params.weights, params.q)
        if not value:
            raise DomainError("reversible-measure mixture vanishes on the sector "
                              "of %r; weights must be positive on occupied sectors"
                              % (cfg,))
        return value
    return params._cached(("sector", cfg), measure)


def _species_measure(params, i, row, theta):
    """Single-species measure of species i's row on capacities theta."""
    return params._cached(("species", i, row, theta), lambda: single_species_measure(
        row, theta, params.alpha[i], params.q))


def _site_p(params, i, shift):
    """Shifted Krawtchouk parameter p q^{2 shift} of species i, p = 1/(alpha_i q)."""
    q = params.q
    return params._cached(("p", i, shift),
                          lambda: 1 / (params.alpha[i] * q) * (q * q) ** shift)


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
    """Ground-state correction: square root of the measure ratio."""
    return sqrt(correction_G_sq(xi, eta, params), field_base(params.q))


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
        num = w_over_h(xi_row, zeta_row, iv.theta,
                       1 / (params.alpha[iv.i] * q), q * q)
        den = (_species_measure(params, iv.i, xi_row, iv.theta)
               * _species_measure(params, iv.i, zeta_row, iv.theta))
        value = value * num / den
    return value


def correction_C(xi, eta, params):
    """Conserved correction C: square root of `correction_C_sq`."""
    return sqrt(correction_C_sq(xi, eta, params), field_base(params.q))


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
                             partial(_site_factor, params, iv.i))
        if not factor:
            return 0
        value = value * factor
    return value


def multi_species_D(xi, eta, params):
    """Self-duality value for the multi-species exclusion chain."""
    _check_pair(xi, eta, params)
    intermediates = intermediate_configs(xi, eta)
    value = _kraw_chain(xi, params, intermediates)
    if not value:
        return 0
    g = sqrt(_G_sq(xi, eta, params, intermediates), field_base(params.q))
    if not is_exact(g):
        value = to_mpf(value)  # mpf refuses mixed arithmetic with SNum
    return g * value


def vertex_duality_D(xi, eta, params):
    """Duality value for the right-moving stochastic vertex dynamics: the
    exclusion duality function composed with the species reversal of eta."""
    return multi_species_D(xi, charge_parity(eta), params)


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
            ok = bound.sign() > 0 and bound > 1 if isinstance(bound, SNum) else bound > 1
            if not ok:
                report.append("species %d site %d: p q^(2 theta) = %s <= 1"
                              % (iv.i, x, bound))
    return report


# -- zero-range duality functions ----------------------------------------------


def _check_zrp_pair(xi, eta):
    if not (isinstance(xi, Config) and isinstance(eta, Config)):
        raise DomainError("configurations expected")
    if not (xi.is_zero_range and eta.is_zero_range):
        raise DomainError("zero-range configurations expected")
    if xi.n != eta.n or xi.L != eta.L:
        raise DomainError("zero-range configs disagree in species count or length")


def _species_suffix(cfg, m, start):
    """Total occupancy of species 0..m at sites >= start."""
    return sum(cfg.range_count(y, 0, m) for y in range(start, cfg.L + 1))


def h_exponent(xi, eta):
    """Integer exponent h coupling the two zero-range configurations; the
    suffix count of xi in the eta term starts at the site itself."""
    _check_zrp_pair(xi, eta)
    n, L = xi.n, xi.L
    total = 0
    for x in range(1, L + 1):
        for i in range(n - 1):
            m = n - 2 - i
            c = xi.count(i, x)
            if c:
                total -= c * _species_suffix(eta, m, x + 1)
            e = eta.count(i, x)
            if e:
                total += e * _species_suffix(xi, m, x)
    return total


def qhahn_D(eta, xi, q):
    """Half-power duality value for the zero-range chains in base q.

    Argument order follows the left process first: eta moves left, xi moves
    right.  For rational q the value is exact in Q(s), s^2 = q, and rational
    when q is a perfect square.  It is also the duality of the single-jump
    chains `qtazrp_generator` at the same base.
    """
    _check_zrp_pair(xi, eta)
    q = _as_scalar(q)
    s = _sqrt_param(q)
    n, L = xi.n, xi.L
    value = s ** h_exponent(xi, eta)
    for i in range(n):
        partner = eta.row(n - 1 - i)  # species-reversed dual row
        left = 0
        for x in range(1, L + 1):
            c = xi.count(i, x)
            if c:
                right = sum(partner[x:])
                value = value * phi10(c, q, s ** (-2 * (left + right) + 1))
            left += c
    return value
