"""Duality functions: Krawtchouk products, corrections, zero-range forms."""

import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmdual import duality as du
from qmdual.duality import (
    DualityParams,
    correction_C_sq,
    correction_G,
    h_exponent,
    kraw_chain,
    multi_species_D,
    outside_orthogonality_range,
    qhahn_D,
)
from qmdual.errors import DomainError
from qmdual.lattice import (
    Config,
    Sector,
    enumerate_sector,
    enumerate_zrp_sector,
    intermediate_configs,
)
from qmdual.models import (
    asep_generator,
    qhahn_continuous_generator,
    qhahn_discrete_kernel,
    qtazrp_generator,
    reversible_measure,
    single_species_measure,
)
from qmdual.qcalc import phi10, q_krawtchouk, q_poch, q_poch_ratio
from qmdual.scalars import SNum, check_q, is_exact, q_root, sqrt, to_mpf

F = Fraction


# -- oracles -------------------------------------------------------------------

def printed_reference_D(q, a0, a1):
    """The worked 4x4 two-species duality example, basis order as produced by
    enumerate_sector for k=(1,1,2), theta=(2,2)."""
    C0 = a0 * q**2 + a0 - q**3
    return [
        [(q**2 + 1) * (a1 - q) * C0 / q**8,
         a1 * (q**2 + 1) * (a0 - q) / q**6,
         a0 * a1 * (q + 1 / q) / q**5,
         0],
        [a1 * (q**2 + 1) * C0 / q**8,
         (a0 - q) * (a1 * q**2 + a1 - q**5) / q**6,
         a0 * (a1 * q**2 + a1 - q**5) / q**6,
         0],
        [0,
         a0 * (a1 * q**2 + a1 - q**3) / q**4,
         (a0 - q**3) * (a1 * q**2 + a1 - q**3) / q**4,
         a1 * (q**2 + 1) * C0 / q**4],
        [0,
         a0 * a1 * (q + 1 / q) / q**3,
         a1 * (q**2 + 1) * (a0 - q**3) / q**4,
         (q**2 + 1) * (a1 - q**5) * C0 / q**4],
    ]


def two_species_case_delta(case, n1, n2, q):
    """Closed two-species values: n1 first-species at x1, n2 second at x2,
    single duals at (y1, y2); six cases by the position of y1, y2."""
    lo1 = q_poch(q ** (-2 * n1 + 1), q**2, n1)
    hi1 = q_poch(q ** (-2 * n1 - 1), q**2, n1)
    lo2 = q_poch(q ** (-2 * n2 + 1), q**2, n2)
    hi2 = q_poch(q ** (-2 * n2 - 1), q**2, n2)
    return {
        1: q**n1 * hi1 * lo2,
        2: q**n1 * lo1 * lo2,
        3: q**-n1 * hi1 * lo2,
        4: q**-n1 * lo1 * lo2,
        5: q**-n1 * hi1 * hi2,
        6: q**-n1 * lo1 * hi2,
    }[case]


def two_species_case(x1, x2, y1, y2):
    assert x1 < x2
    if y1 <= x1:
        return 1 if y2 > x1 else 2
    if y1 <= x2:
        return 3 if y2 > x1 else 4
    return 5 if y2 > x1 else 6


def site_count(cfg, x, lo, hi=None):
    """xi^x_{[lo,hi]} read from cfg.counts: the species rows lo..hi (lo
    alone when hi is None) at the 1-indexed site x; 0 on an empty range."""
    hi = lo if hi is None else hi
    return sum(row[x - 1] for row in cfg.counts[lo:hi + 1])


def qhahn_product_oracle(eta, xi, q):
    """Finite-product route for the half-power zero-range duality: the series
    argument absorbed into a q-Pochhammer with the site-inclusive left count."""
    s = q_root(q)
    n, L = xi.n, xi.L
    value = s ** h_exponent(xi, eta)
    for i in range(n):
        partner = eta.counts[n - 1 - i]
        left = 0
        for x in range(1, L + 1):
            c = site_count(xi, x, i)
            left += c
            if c:
                right = sum(partner[x:])
                value = value * q_poch(s ** (-2 * (left + right) + 1), q, c)
    return value


def _h_double_loop(xi, eta, xi_from):
    """The zero-range exponent by its double loop over sites x and species
    i < n-1, m = n-2-i: eta_i^x xi_{[0,m]}(>= x + xi_from)
    - xi_i^x eta_{[0,m]}(> x), each suffix count summed afresh."""
    n = xi.n

    def suffix(cfg, m, start):
        return sum(site_count(cfg, y, 0, m) for y in range(start, cfg.L + 1))

    return sum(site_count(eta, x, i) * suffix(xi, n - 2 - i, x + xi_from)
               - site_count(xi, x, i) * suffix(eta, n - 2 - i, x + 1)
               for x in range(1, xi.L + 1) for i in range(n - 1))


def h_exponent_oracle(xi, eta):
    """`h_exponent` by the double loop, the xi suffix starting at the site."""
    return _h_double_loop(xi, eta, 0)


def h_suffix_oracle(xi, eta):
    """`h_exponent` by site columns right to left, with fresh suffix lists
    of species 0..m at every site."""
    xi_suffix = eta_suffix = [0] * xi.n
    total = 0
    sites = zip(zip(*xi.counts), zip(*eta.counts))
    for xi_site, eta_site in reversed(list(sites)):
        xi_suffix = [a + b for a, b in zip(xi_suffix, itertools.accumulate(xi_site))]
        total += sum(e * xs - x * es for e, x, xs, es in zip(
            eta_site, xi_site, xi_suffix[-2::-1], eta_suffix[-2::-1]))
        eta_suffix = [a + b for a, b in zip(eta_suffix, itertools.accumulate(eta_site))]
    return total


def strict_h_exponent(xi, eta):
    """The zero-range exponent with the xi suffix in the eta term starting
    strictly right of the site; `h_exponent` starts it at the site itself."""
    return _h_double_loop(xi, eta, 1)


def qhahn_series_oracle(eta, xi, q):
    """The zero-range duality as the product of the 1phi0 series that define
    it, with h by its double loop; `qhahn_D` sums each series in closed form
    and multiplies the closed forms as one int product in Q(s)."""
    q = check_q(q)
    s = q_root(q)
    n, L = xi.n, xi.L
    value = s ** h_exponent_oracle(xi, eta)
    for i in range(n):
        partner = eta.counts[n - 1 - i]  # species-reversed dual row
        left = 0
        for x in range(1, L + 1):
            c = site_count(xi, x, i)
            if c:
                right = sum(partner[x:])
                value = value * phi10(c, q, s ** (-2 * (left + right) + 1))
            left += c
    return value


def assert_matches_oracles(eta, xi, q):
    """`qhahn_D` equals the series and product oracles in value and type."""
    got = qhahn_D(eta, xi, q)
    for oracle in (qhahn_series_oracle, qhahn_product_oracle):
        want = oracle(eta, xi, q)
        assert type(got) is type(want) and got == want, (
            "%r != %s %r at %s %s" % (got, oracle.__name__, want, xi, eta))


def colocation_sum(xi, eta):
    """h_exponent minus its strict form: eta against co-located xi."""
    n = xi.n
    return sum(site_count(eta, x, i) * site_count(xi, x, 0, n - 2 - i)
               for x in range(1, xi.L + 1) for i in range(n))


def w_over_h(xi_row, eta_row, theta_row, p, q):
    """Ratio weight(xi)/norm(eta) of the site-nested q-Krawtchouk family, on
    rows within their capacities.

    Both pieces carry an infinite q-Pochhammer whose tails cancel in the
    ratio, so the result is a finite product and stays exact on the exact
    backend.
    """
    n_th, n_xi, n_eta = sum(theta_row), sum(xi_row), sum(eta_row)
    value = F((-1) ** (n_th - n_xi + n_eta))
    value = value * q_poch_ratio(p, q, n_eta + 1, n_th - n_xi + 1)
    value = value * q ** (-math.comb(n_th + 1, 2)) * p ** (-n_th)
    xi_left = 0
    eta_right = n_eta
    for c, e, t in zip(xi_row, eta_row, theta_row):
        value = value * q_poch(q, q, t) ** 2
        value = value * q ** (math.comb(c, 2) + math.comb(e + 1, 2)
                              + t * (xi_left - eta_right))
        value = value / (q_poch(q, q, c) * q_poch(q, q, t - c)
                         * q_poch(q, q, e) * q_poch(q, q, t - e))
        xi_left += c
        eta_right -= e
    return value


def G_sq_oracle(xi, eta, params, measures=None):
    """The ground-state radicand by its definition, the measure ratio
    prod_i mu_i(xi_i) mu_i(zeta^{(i)}_i) / (mu(xi) mu(eta)) on the
    capacities theta^{(i)} at fugacity alpha_i = a_i^2; 0 on an infeasible
    pair.  `correction_G` is its root as a product of xi's measures.
    measures, if given, is a dict that keeps each measure across calls with
    the same params."""
    intermediates = intermediate_configs(xi, eta)
    if intermediates is None:
        return 0
    q, measures = params.q, {} if measures is None else measures

    def cached(key, compute):
        if key not in measures:
            measures[key] = compute()
        return measures[key]

    value = 1
    for iv in intermediates:
        alpha = params.a[iv.i] ** 2
        for row in (xi.counts[iv.i], iv.row):
            value = value * cached((iv.i, row, iv.theta), lambda: (
                single_species_measure(row, iv.theta, alpha, q)))
    return value / (cached(xi, lambda: reversible_measure(xi, q))
                    * cached(eta, lambda: reversible_measure(eta, q)))


def G_product_oracle(xi, eta, params):
    """`correction_G` by its product form in Fraction and SNum arithmetic:
    prod_i a_i^(e-c) mu_i(xi_i; theta^{(i)}) q^(k/2) / mu(xi), k = sum_i
    c^2 - e^2, with q^(k/2) = q^(k//2) q_root(q)^(k%2); 0 on an infeasible
    pair."""
    intermediates = intermediate_configs(xi, eta)
    if intermediates is None:
        return 0
    q, value, k = params.q, F(1), 0
    for iv in intermediates:
        a, row = params.a[iv.i], xi.counts[iv.i]
        c, e = sum(row), sum(iv.row)
        k += c * c - e * e
        value = value * a ** (e - c) * single_species_measure(
            row, iv.theta, a * a, q)
    value = value * q ** (k // 2)
    if k % 2:
        value = value * q_root(q)
    return value / reversible_measure(xi, q)


def derived_C_sq_oracle(xi, eta, params, measures):
    """The C radicand as derived from the orthogonality weights, site by
    site: prod_i w/h(xi_i, zeta_i; theta^{(i)}, p, q^2) / (mu_i(xi_i)
    mu_i(zeta_i)), p = 1/(alpha_i q); 0 on an infeasible pair.
    `correction_C_sq` is its closed form in the sector totals.  measures
    is a dict that keeps each single-species measure across calls with the
    same params."""
    intermediates = intermediate_configs(xi, eta)
    if intermediates is None:
        return 0
    q = params.q

    def mu(i, row, theta):
        if (i, row, theta) not in measures:
            measures[i, row, theta] = single_species_measure(
                row, theta, params.a[i] ** 2, q)
        return measures[i, row, theta]

    value = 1
    for iv in intermediates:
        xi_row = xi.counts[iv.i]
        num = w_over_h(xi_row, iv.row, iv.theta, 1 / (params.a[iv.i] ** 2 * q),
                       q * q)
        value = value * num / (mu(iv.i, xi_row, iv.theta)
                               * mu(iv.i, iv.row, iv.theta))
    return value


def pochhammer_C_sq_oracle(xi, eta, params):
    """Closed Pochhammer-ratio reading of the C radicand in base q, on a
    feasible pair; `correction_C_sq` is the form derived from the weights."""
    q = params.q
    value = 1
    for iv in intermediate_configs(xi, eta):
        n_xi, n_zeta = sum(xi.counts[iv.i]), sum(iv.row)
        # species-count jump across the nesting step
        upper = sum(site_count(eta, x, 0, iv.i + 1) - site_count(xi, x, 0, iv.i)
                    for x in range(1, xi.L + 1))
        value = value * q ** (math.comb(n_xi, 2) - math.comb(n_zeta, 2))
        value = value * q_poch_ratio(params.a[iv.i] ** 2, q, 1 - upper, 1 - n_zeta)
    return value


def printed_basis():
    return enumerate_sector(Sector((1, 1, 2), (2, 2)))


def all_capacity_configs(theta, n):
    """Every configuration on the capacity profile, all sectors."""
    out = []
    total = sum(theta)
    for k in itertools.product(range(total + 1), repeat=n):
        if sum(k) > total:
            continue
        out.extend(enumerate_sector(Sector(k + (total - sum(k),), theta)))
    return out


def d_matrix(rows, cols, params):
    D = np.empty((len(rows), len(cols)), dtype=object)
    for i, xi in enumerate(rows):
        for j, eta in enumerate(cols):
            D[i, j] = multi_species_D(xi, eta, params)
    return D


def residual_max(R):
    return max(abs(to_mpf(v)) for v in R.flat)


def sp_at(theta, species, site, count=1):
    """Capacity config holding `count` particles of one species at one site."""
    rows = [[0] * len(theta) for _ in range(2)]
    rows[species][site - 1] = count
    return Config.capacity(rows, theta)


# -- single-species building block ----------------------------------------------

def kraw_product(xi_row, eta_row, theta_row, p, q):
    """Oracle: prod_x K_{eta^x}(q^{-xi^x}; p q^{s_x}, theta^x; q) with the
    shift s_x = (capacity left of x) - (xi left of x) + (eta right of x);
    0 when a count exceeds its site capacity."""
    value = 1
    for x, (c, e, t) in enumerate(zip(xi_row, eta_row, theta_row)):
        if not (0 <= c <= t and 0 <= e <= t):
            return 0
        shift = sum(theta_row[:x]) - sum(xi_row[:x]) + sum(eta_row[x + 1:])
        value = value * q_krawtchouk(e, c, p * q ** shift, t, q)
    return value


def single_species_D(xi_row, eta_row, theta_row, alpha, q):
    """Oracle: the one-species duality value, the q-Krawtchouk product in
    base q^2 with p = 1/(alpha q)."""
    return kraw_product(xi_row, eta_row, theta_row, 1 / (alpha * q), q * q)


def one_species(row, theta):
    return Config.capacity([row], theta)


class TestSingleSpeciesD:
    # kraw_chain on one-species Configs is the library's single-species value
    def test_hand_value_one_site(self):
        # theta=(1): K_1(q^{-2}; p, 1, q^2) = 1 - p q^2 = 1 - q/alpha, alpha = a^2
        cfg = one_species((1,), (1,))
        for q, a in [(F(1, 2), F(2)), (F(2, 3), F(5)), (F(3, 2), F(1))]:
            got = kraw_chain(cfg, cfg, DualityParams((a,), q))
            assert got == 1 - q / a ** 2, "D((1),(1)) = %s, want 1 - q/alpha" % got

    def test_degree_zero_rows_give_one(self):
        got = kraw_chain(one_species((1, 2), (2, 2)), one_species((0, 0), (2, 2)),
                         DualityParams((F(3),), F(1, 2)))
        assert got == 1, "eta = 0 must give the constant polynomial, got %s" % got

    def test_out_of_range_counts_give_zero(self):
        # no Config holds these counts; the oracle's convention is pinned
        assert single_species_D((1,), (3,), (2,), F(2), F(1, 2)) == 0
        assert single_species_D((3,), (1,), (2,), F(2), F(1, 2)) == 0

    def test_accepts_single_species_config(self):
        th = (2, 1)
        via_cfg = kraw_chain(one_species((1, 1), th), one_species((2, 0), th),
                             DualityParams((F(2),), F(1, 2)))
        via_rows = single_species_D((1, 1), (2, 0), th, F(2) ** 2, F(1, 2))
        assert via_cfg == via_rows

    def test_matches_n1_nested_chain(self):
        # the n=1 nested product is the bare single-species value
        th = (2, 2)
        params = DualityParams((F(3),), F(1, 2))
        for k1 in range(5):
            for k2 in range(5):
                for xi in enumerate_sector(Sector((k1, sum(th) - k1), th)):
                    for eta in enumerate_sector(Sector((k2, sum(th) - k2), th)):
                        chain = kraw_chain(xi, eta, params)
                        bare = single_species_D(xi.counts[0], eta.counts[0],
                                                th, F(3) ** 2, F(1, 2))
                        assert chain == bare, (
                            "n=1 chain %s != single-species %s at %s %s"
                            % (chain, bare, xi, eta))


class TestOrthogonalityWeightRatio:
    def test_positive_on_admissible_range(self):
        # p q^{theta+1} > 1 keeps w/h positive; p=8, q=1/2, theta=(2,)
        val = w_over_h((1,), (1,), (2,), F(8), F(1, 2))
        assert val > 0, "weight ratio should be positive, got %s" % val

    def test_single_site_sum_is_kronecker(self):
        # sum_xi (w(xi)/h(eta)) K(xi,eta) K(xi,eta') = delta_{eta,eta'}
        th, q, p = (3,), F(1, 2), F(16)
        for e1 in range(4):
            for e2 in range(4):
                tot = 0
                for c in range(4):
                    k1 = kraw_product((c,), (e1,), th, p, q)
                    k2 = kraw_product((c,), (e2,), th, p, q)
                    tot += w_over_h((c,), (e1,), th, p, q) * k1 * k2
                want = 1 if e1 == e2 else 0
                assert tot == want, "sum %s != %s at eta=(%d,%d)" % (tot, want, e1, e2)


# -- the worked 4x4 matrix -------------------------------------------------------

class TestPrintedDualityMatrix:
    POINTS = [(F(1, 2), F(2), F(3)), (F(2, 3), F(1), F(2)),
              (F(3, 2), F(3), F(1)), (F(9, 16), F(4), F(1))]

    @pytest.mark.parametrize("q,a0,a1", POINTS)
    def test_all_sixteen_entries_exact(self, q, a0, a1):
        basis = printed_basis()
        ref = printed_reference_D(q, a0 ** 2, a1 ** 2)
        params = DualityParams((a0, a1), q)
        for i, xi in enumerate(basis):
            for j, eta in enumerate(basis):
                got = multi_species_D(xi, eta, params)
                assert is_exact(got), "entry (%d,%d) left the exact backend" % (i, j)
                assert got == ref[i][j], (
                    "entry (%d,%d) = %s, reference %s at q=%s" % (i, j, got, ref[i][j], q))

    def test_structural_zeros(self):
        # the zeros are the infeasible pairs: every nested quantity is the
        # exact int 0 there, the ground-state correction included
        basis = printed_basis()
        params = DualityParams((F(2), F(3)), F(1, 2))
        zeros = [(0, 3), (1, 3), (2, 0), (3, 0)]
        for i, j in zeros:
            assert intermediate_configs(basis[i], basis[j]) is None
            for f in (kraw_chain, multi_species_D, correction_C_sq, correction_G):
                got = f(basis[i], basis[j], params)
                assert type(got) is int and got == 0, \
                    "%s = %r at structural zero (%d,%d)" % (f.__name__, got, i, j)


class TestZeroAndSymmetryPatterns:
    TH = (2, 2, 2)

    def test_single_particle_cross_zeros(self):
        # single species-0 at site i against single species-1 at site j:
        # nonzero only when both sit at site 1
        params = DualityParams((F(2), F(3)), F(1, 2))
        xs = [sp_at(self.TH, 0, i) for i in (1, 2, 3)]
        ys = [sp_at(self.TH, 1, i) for i in (1, 2, 3)]
        base = multi_species_D(xs[0], ys[0], params)
        assert base != 0, "co-located pair should not vanish"
        for i in (1, 2):
            assert multi_species_D(xs[i], ys[0], params) == 0, \
                "D(x%d, y1) must vanish" % (i + 1)
            assert multi_species_D(xs[0], ys[i], params) == 0, \
                "D(x1, y%d) must vanish" % (i + 1)

    def test_filled_dual_symmetry(self):
        # duals with species 1 on every remaining slot restore the symmetry
        params = DualityParams((F(2), F(3)), F(1, 2))
        xs = [sp_at(self.TH, 0, i) for i in (1, 2, 3)]
        ys = [Config.capacity([(1, 0, 0), (1, 2, 2)], self.TH),
              Config.capacity([(0, 1, 0), (2, 1, 2)], self.TH),
              Config.capacity([(0, 0, 1), (2, 2, 1)], self.TH)]
        for i in range(3):
            lhs_sq = G_sq_oracle(xs[i], ys[0], params) \
                * kraw_chain(xs[i], ys[0], params) ** 2
            rhs_sq = G_sq_oracle(xs[0], ys[i], params) \
                * kraw_chain(xs[0], ys[i], params) ** 2
            assert lhs_sq == rhs_sq, "squared values differ at i=%d" % (i + 1)
            sl = kraw_chain(xs[i], ys[0], params)
            sr = kraw_chain(xs[0], ys[i], params)
            assert (sl > 0) == (sr > 0), "signs differ at i=%d" % (i + 1)


# -- generator intertwining ------------------------------------------------------

class TestSelfDuality:
    SECTORS = [Sector((1, 1, 2), (2, 2)), Sector((2, 1, 1), (2, 2)),
               Sector((2, 2), (2, 2)), Sector((1, 3), (2, 2)),
               Sector((1, 1, 1), (1, 1, 1))]

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    def test_generator_intertwines_exactly(self, sector):
        q = F(1, 2)
        n = len(sector.k) - 1
        params = DualityParams((F(2), F(3))[:n], q)
        basis = enumerate_sector(sector)
        L = asep_generator(sector, q).entries
        D = d_matrix(basis, basis, params)
        assert all(is_exact(v) for v in D.flat), "sector left the exact backend"
        R = L.T @ D - D @ L
        assert all(v == 0 for v in R.flat), (
            "intertwining residual %s on %s" % (residual_max(R), sector))

    def test_cross_sector_blocks_intertwine(self):
        # duality pairs configurations across different conserved counts too,
        # exactly: a rational coupling a keeps every radicand a square
        q = F(1, 2)
        params = DualityParams((F(2), F(3)), q)
        s_xi, s_eta = Sector((1, 1, 2), (2, 2)), Sector((2, 1, 1), (2, 2))
        bx, be = enumerate_sector(s_xi), enumerate_sector(s_eta)
        Lx = asep_generator(s_xi, q).entries
        Le = asep_generator(s_eta, q).entries
        D = d_matrix(bx, be, params)
        assert all(is_exact(v) for v in D.flat), "cross block left Q(sqrt(q))"
        R = Lx.T @ D - D @ Le
        assert all(v == 0 for v in R.flat), \
            "cross-sector residual %s" % residual_max(R)

    def test_cross_sector_radicand_has_an_exact_root(self):
        # a cross-sector G radicand: its root stays in the field of q
        params = DualityParams((F(2), F(3)), F(1, 2))
        xi = Config.capacity([(1, 0), (1, 0)], (2, 2))
        eta = Config.capacity([(2, 0), (0, 1)], (2, 2))
        assert G_sq_oracle(xi, eta, params) == 477757440000
        g = correction_G(xi, eta, params)
        assert type(g) is F and g == 691200

    def test_three_site_cross_block_stays_exact(self):
        # a cross block with many distinct G radicands: every entry is
        # exact, and it intertwines
        q = F(1, 2)
        params = DualityParams((F(2), F(3)), q)
        s_xi, s_eta = Sector((1, 2, 3), (2, 2, 2)), Sector((2, 2, 2), (2, 2, 2))
        bx, be = enumerate_sector(s_xi), enumerate_sector(s_eta)
        D = d_matrix(bx, be, params)
        radicands = {G_sq_oracle(xi, eta, params)
                     for (i, xi), (j, eta) in itertools.product(enumerate(bx),
                                                                enumerate(be))
                     if D[i, j] != 0}
        assert D.shape == (15, 21) and len(radicands) > 1
        assert all(is_exact(v) for v in D.flat)
        R = (asep_generator(s_xi, q).entries.T @ D
             - D @ asep_generator(s_eta, q).entries)
        assert all(v == 0 for v in R.flat)

    def test_zero_krawtchouk_factor_gives_the_int_zero(self):
        # at q = 4 and a = (2,), alpha = q sits at the C^2 pole, and the
        # diagonal pair of ((2,0),(0,1)) has a zero site factor: D is the
        # int 0 there, and the sector still intertwines exactly
        q, sector = F(4), Sector((2, 1), (2, 1))
        params = DualityParams((F(2),), q)
        xi = Config(((2, 0), (0, 1)), theta=(2, 1))
        for f in (kraw_chain, multi_species_D):
            assert type(f(xi, xi, params)) is int and f(xi, xi, params) == 0
        basis = enumerate_sector(sector)
        D = d_matrix(basis, basis, params)
        assert [v == 0 for v in D.flat] == [True, False, False, False]
        L = asep_generator(sector, q).entries
        assert all(v == 0 for v in (L.T @ D - D @ L).flat)

    def test_square_alpha_sector_stays_exact_and_silent(self):
        # the benchmark's couplings a = (4, 9): every radicand is a square in
        # Q(sqrt(q))
        params = DualityParams((F(4), F(9)), F(1, 3))
        basis = enumerate_sector(Sector((2, 2, 2), (2, 2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = d_matrix(basis, basis, params)
        assert all(is_exact(v) for v in D.flat)


def site_species_reversal(cfg):
    """RP: site x -> L + 1 - x and species j -> n - j, the holes (row n)
    included, so the image lives on the reversed capacities."""
    return Config(tuple(row[::-1] for row in reversed(cfg.counts)),
                  cfg.theta[::-1])


class TestSiteSpeciesReversal:
    """RP is a symmetry of the exclusion chain: it carries the generator at
    q on a sector onto the generator at q on the sector with reversed counts
    and capacities, and so D_q(RP xi, RP eta) is a second self-duality."""

    SECTORS = [Sector((1, 1, 1), (1, 1, 1))] + [
        Sector(k, theta) for theta in [(2, 1, 1), (1, 2, 1)]
        for k in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]]

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    def test_rates_map_onto_the_reversed_sector(self, sector):
        q = F(1, 2)
        L = asep_generator(sector, q)
        image = asep_generator(Sector(sector.k[::-1], sector.theta[::-1]), q)
        perm = [image.index[site_species_reversal(c)] for c in L.basis]
        A, B = L.entries.toarray(), image.entries.toarray()
        assert all(A[i, j] == B[perm[i], perm[j]]
                   for i in range(L.size) for j in range(L.size))
        assert sum(1 for v in A.flat if v) > L.size  # off-diagonal rates

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    def test_reversed_duality_intertwines(self, sector):
        q = F(1, 2)
        params = DualityParams((F(1, 2), F(1, 2)), q)
        L = asep_generator(sector, q)
        reversed_basis = [site_species_reversal(c) for c in L.basis]
        D_rp = d_matrix(reversed_basis, reversed_basis, params)
        R = L.entries.T @ D_rp - D_rp @ L.entries
        assert all(v == 0 for v in R.flat), residual_max(R)
        # a duality of its own, not the nested D again
        assert (D_rp != d_matrix(L.basis, L.basis, params)).any()


# -- the closed exact backend ------------------------------------------------------

rationals = st.builds(F, st.integers(1, 12), st.integers(1, 12))


class TestClosedBackend:
    """At rational couplings a and rational q, every value of the nested D
    lies in Q(sqrt(q)): no pair raises and none is a float, cross-sector
    pairs included."""

    @given(a=st.tuples(rationals, rationals, rationals),
           q=rationals.filter(lambda q: q != 1))
    @example(a=(F(3, 2), F(5, 7), F(2, 3)), q=F(2, 7))
    @example(a=(F(4, 3), F(2, 9), F(7, 5)), q=3)
    @example(a=(F(5, 2), F(1, 3), F(3, 4)), q=F(7, 2))
    @settings(max_examples=2, deadline=None)
    def test_every_pair_is_exact(self, a, q):
        for theta, n in (((2, 2), 2), ((1, 1, 1), 3), ((2, 1, 2), 2)):
            params = DualityParams(a[:n], q)
            basis = all_capacity_configs(theta, n)
            D = {(xi, eta): multi_species_D(xi, eta, params)
                 for xi in basis for eta in basis}
            inexact = [pair for pair, v in D.items() if not is_exact(v)]
            assert not inexact, "%d inexact pairs on %s" % (len(inexact), theta)
        # one cross-sector block of the last D, theta = (2,1,2), intertwines
        # exactly
        q = check_q(q)
        s_xi, s_eta = Sector((1, 2, 2), (2, 1, 2)), Sector((2, 1, 2), (2, 1, 2))
        bx, be = enumerate_sector(s_xi), enumerate_sector(s_eta)
        block = np.array([[D[xi, eta] for eta in be] for xi in bx], dtype=object)
        assert any(v != 0 for v in block.flat)
        R = (asep_generator(s_xi, q).entries.T @ block
             - block @ asep_generator(s_eta, q).entries)
        assert all(v == 0 for v in R.flat)


class TestGroundStateCorrection:
    """G, a product of xi's measures, is the positive root of the measure
    ratio G^2 on every pair, cross-sector ones included: the root `sqrt`
    takes in Q(s), in value and type, and 0 as an int on an infeasible
    pair."""

    SHAPES = [((2, 2), 2, (F(3, 2), F(5, 7))),
              ((2, 1, 2), 2, (F(2), F(3))),
              ((1, 1, 1), 3, (F(2), F(3), F(5, 4)))]

    @pytest.mark.parametrize("q", [F(2, 7), F(3)], ids=repr)
    @pytest.mark.parametrize("theta,n,a", SHAPES, ids=repr)
    def test_product_is_the_root_of_the_measure_ratio(self, theta, n, a, q):
        params, measures = DualityParams(a, q), {}
        basis = all_capacity_configs(theta, n)
        for xi, eta in itertools.product(basis, repeat=2):
            g = correction_G(xi, eta, params)
            g_sq = G_sq_oracle(xi, eta, params, measures)
            if intermediate_configs(xi, eta) is None:
                assert type(g) is int and g == 0 == g_sq, (xi, eta)
                continue
            root = sqrt(g_sq, q)
            assert g * g == g_sq and type(g) is type(root) and g == root, (
                "G %r, root of the ratio %r at %s %s" % (g, root, xi, eta))

    # the parities of the s-power: k = sum_i c^2 - e^2 odd or even, times
    # mu(xi) in Q or in Q*s.  Only cross-sector pairs have k != 0, and mu's
    # parity is that of |theta|, so it takes the two profiles.  An even
    # total with both parts odd is an SNum with a zero s-part, and at a
    # square q every value is a Fraction
    @pytest.mark.parametrize("q", [F(1, 3), 2, F(4, 9)], ids=repr)
    def test_every_parity_matches_the_product_form(self, q):
        params, seen = DualityParams((F(3, 4), F(5)), q), set()
        square = not isinstance(q_root(q), SNum)
        pairs = [pair for theta in ((2, 1), (1, 1)) for pair in
                 itertools.product(all_capacity_configs(theta, 2), repeat=2)]
        for xi, eta in pairs:
            g, want = correction_G(xi, eta, params), G_product_oracle(xi, eta, params)
            assert type(g) is type(want) and g == want, (xi, eta, g, want)
            chain = kraw_chain(xi, eta, params)
            d, want_d = multi_species_D(xi, eta, params), chain * want if chain else 0
            assert type(d) is type(want_d) and d == want_d, (xi, eta, d, want_d)
            if not want:
                continue
            k = sum(sum(xi.counts[iv.i]) ** 2 - sum(iv.row) ** 2
                    for iv in intermediate_configs(xi, eta))
            odd_mu = isinstance(reversible_measure(xi, q), SNum)
            seen.add((k % 2, odd_mu))
            if square:
                assert type(g) is F
            else:
                assert isinstance(g, SNum) == bool(k % 2 or odd_mu)
                assert bool(isinstance(g, SNum) and g.b) == bool((k + odd_mu) % 2)
        assert square or seen == {(0, False), (0, True), (1, False), (1, True)}


# -- orthogonality ---------------------------------------------------------------

def sector_key(cfg):
    return tuple(sum(row) for row in cfg.counts)


def orthogonality_errors(theta, n, params, weights=None):
    """Worst diagonal/off-diagonal error of the biorthogonality sum.

    weights, if given, maps each sector key k to w_k > 0.  The sum then runs
    against the mixture measure w_k mu, with D_w(xi, eta) = D(xi, eta) /
    sqrt(w_k(xi) w_k(eta)): the sector-constant rescaling of the duality.
    A product of radicands with no root in Q(sqrt(q)) is rooted in floats.
    """
    basis = all_capacity_configs(theta, n)
    w = {c: 1 if weights is None else weights[sector_key(c)] for c in basis}
    mu = {c: w[c] * reversible_measure(c, params.q) for c in basis}
    K, rCG = {}, {}
    for xi in basis:
        for eta in basis:
            k = kraw_chain(xi, eta, params)
            K[xi, eta] = k
            if k != 0:
                rad = (correction_C_sq(xi, eta, params)
                       * G_sq_oracle(xi, eta, params) / (w[xi] * w[eta]))
                assert rad >= 0, "negative weight radicand at %s %s" % (xi, eta)
                rCG[xi, eta] = rad
    worst_diag = mpmath.mpf(0)
    worst_off = mpmath.mpf(0)
    for eta in basis:
        for etab in basis:
            exact_tot = 0
            float_tot = mpmath.mpf(0)
            for xi in basis:
                k1, k2 = K[xi, eta], K[xi, etab]
                if k1 == 0 or k2 == 0:
                    continue
                rad = rCG[xi, eta] * rCG[xi, etab]
                try:
                    root = sqrt(rad, params.q)
                except DomainError:
                    root = mpmath.sqrt(to_mpf(rad))
                if is_exact(root):
                    exact_tot = exact_tot + mu[xi] * root * k1 * k2
                else:
                    float_tot += to_mpf(mu[xi]) * root * to_mpf(k1 * k2)
            if eta == etab:
                exact_tot = exact_tot - 1 / mu[eta]
                # the diagonal radicands are perfect squares, so the value
                # must come out exact
                assert float_tot == 0, "diagonal sum picked up float terms"
                assert exact_tot == 0, (
                    "diagonal orthogonality sum off by %s at %s" % (exact_tot, eta))
            err = abs(to_mpf(exact_tot) + float_tot)
            if eta == etab:
                worst_diag = max(worst_diag, err)
            else:
                worst_off = max(worst_off, err)
    return worst_diag, worst_off


def exact_orthogonality_failures(theta, n, params):
    """The (eta, eta') pairs, over every sector of the capacities theta, on
    which the orthogonality relation
      sum_xi mu(xi) D_C(xi, eta) D_C(xi, eta') = delta(eta, eta') / mu(eta),
      D_C = D sqrt(C^2), D = `multi_species_D` = K G,
    fails, decided exactly.  Roots are principal: i sqrt(-x) for x < 0.

    C^2 is one rational per (sector of xi, sector of eta) block, so each term
    is mu(xi) D(xi, eta) D(xi, eta') in Q(s) times the block roots
    sqrt(C^2(k, a)) sqrt(C^2(k, b)) = e sqrt(|d|), d = C^2(k, a) C^2(k, b),
    e = i if d < 0, -1 if both radicands are, else 1.  Roots of |d| in
    distinct rational square classes modulo q (|d'| = |d| w^2, w in Q(s)) are
    linearly independent over Q(s), and i is not in Q(s).  So the relation
    holds iff each class sum, written over the class's first radicand,
    vanishes in Q(s), save the real class of 1 on the diagonal, which must
    be 1/mu(eta).
    """
    basis = all_capacity_configs(theta, n)
    q = params.q
    mu = {c: reversible_measure(c, q) for c in basis}
    D, block_C_sq = {}, {}
    for xi, eta in itertools.product(basis, repeat=2):
        D[xi, eta] = multi_species_D(xi, eta, params)
        if intermediate_configs(xi, eta) is not None:
            c = correction_C_sq(xi, eta, params)
            block = (sector_key(xi), sector_key(eta))
            assert block_C_sq.setdefault(block, c) == c, block
    reps, classes, one = [F(1)], {}, (False, F(1))

    def root_class(ca, cb):
        # (class key, coefficient r in Q(s)) with sqrt(ca) sqrt(cb) =
        # r sqrt(rep), times i when the key says so
        if (ca, cb) not in classes:
            d = abs(ca * cb)
            for rep in reps:
                try:
                    w = sqrt(d * rep, q)  # sqrt(d) = (w / rep) sqrt(rep)
                    break
                except DomainError:
                    continue
            else:
                rep, w = d, d
                reps.append(rep)
            sign = -1 if ca < 0 and cb < 0 else 1
            classes[ca, cb] = (ca * cb < 0, rep), sign * w / rep
        return classes[ca, cb]

    failures = set()
    for eta, etab in itertools.product(basis, repeat=2):
        a, b, sums = sector_key(eta), sector_key(etab), {}
        for xi in basis:
            d1, d2 = D[xi, eta], D[xi, etab]
            if d1 and d2:
                k = sector_key(xi)
                key, r = root_class(block_C_sq[k, a], block_C_sq[k, b])
                sums[key] = sums.get(key, 0) + r * mu[xi] * d1 * d2
        if eta == etab:
            sums[one] = sums.get(one, 0) - 1 / mu[eta]
        if any(sums.values()):
            failures.add((eta, etab))
    return failures


class TestOrthogonality:
    def test_unweighted_theta11(self):
        params = DualityParams((F(3, 4), F(1, 2)), F(2))
        wd, wo = orthogonality_errors((1, 1), 2, params)
        assert wd == 0, "diagonal worst error %s" % wd
        assert wo < mpmath.mpf("1e-30"), "off-diagonal worst error %s" % wo

    def test_weighted_mixture_theta11(self):
        theta, n = (1, 1), 2
        ks = sorted({sector_key(c) for c in all_capacity_configs(theta, n)})
        weights = {k: F(i + 2, 3) for i, k in enumerate(ks)}
        params = DualityParams((F(3, 4), F(1, 2)), F(2))
        wd, wo = orthogonality_errors(theta, n, params, weights)
        assert wd == 0, "weighted diagonal worst error %s" % wd
        assert wo < mpmath.mpf("1e-30"), "weighted off-diagonal worst error %s" % wo

    def test_single_species_theta21(self):
        params = DualityParams((F(1, 2),), F(2))
        wd, wo = orthogonality_errors((2, 1), 1, params)
        assert wd == 0 and wo < mpmath.mpf("1e-30"), \
            "single-species orthogonality errors %s / %s" % (wd, wo)

    @pytest.mark.parametrize("theta,n,a,q", [
        ((2, 2), 2, (F(3, 4), F(1, 2)), F(2)),
        ((1, 1, 1), 2, (F(3, 4), F(1, 2)), F(3)),
    ], ids=repr)
    def test_more_shapes(self, theta, n, a, q):
        wd, wo = orthogonality_errors(theta, n, DualityParams(a, q))
        assert wd == 0, "diagonal worst error %s" % wd
        assert wo < mpmath.mpf("1e-30"), "off-diagonal worst error %s" % wo


class TestOrthogonalityRange:
    """The relation holds on every pair of the capacities theta iff every
    alpha_i = a_i^2 < min(q, q^(2|theta|-1)): one coupling just inside the
    range and one just outside, at q = 4 (bound alpha = 4, a = 2) and
    q = 1/4 (a = 1/32 at |theta| = 3, 1/8 at |theta| = 2), and at q = 2 and
    1/2 on theta = (2, 1) and, for n = 3, on theta = (1, 1), decided
    exactly.
    Outside it the relation fails on some off-diagonal pairs, never on the
    diagonal; the counts are pinned, and the species that
    `outside_orthogonality_range` flags are those whose a crosses."""

    # theta, n, q, a, flagged species, failing off-diagonal (eta, eta')
    CASES = [
        ((2, 1), 1, F(4), (F(15, 8),), (), 0),
        ((2, 1), 1, F(4), (F(17, 8),), (0,), 10),
        ((2, 1), 1, F(1, 4), (F(1, 33),), (), 0),
        ((2, 1), 1, F(1, 4), (F(1, 31),), (0,), 10),
        ((1, 1, 1), 1, F(4), (F(15, 8),), (), 0),
        ((1, 1, 1), 1, F(4), (F(17, 8),), (0,), 14),
        ((1, 1, 1), 1, F(1, 4), (F(1, 33),), (), 0),
        ((1, 1, 1), 1, F(1, 4), (F(1, 31),), (0,), 14),
        ((1, 1), 2, F(4), (F(15, 8), F(15, 8)), (), 0),
        ((1, 1), 2, F(4), (F(17, 8), F(17, 8)), (0, 1), 40),
        ((1, 1), 2, F(1, 4), (F(1, 9), F(1, 9)), (), 0),
        ((1, 1), 2, F(1, 4), (F(1, 7), F(1, 7)), (0, 1), 16),
        # 1/31 lies inside the range of |theta| = 2
        ((1, 1), 2, F(1, 4), (F(1, 31), F(1, 31)), (), 0),
        ((2, 1), 2, F(4), (F(15, 8), F(15, 8)), (), 0),
        ((2, 1), 2, F(4), (F(17, 8), F(17, 8)), (0, 1), 144),
        ((2, 1), 2, F(4), (F(17, 8), F(15, 8)), (0,), 24),
        ((2, 1), 2, F(4), (F(15, 8), F(17, 8)), (1,), 210),
        ((2, 1), 2, F(1, 4), (F(1, 33), F(1, 33)), (), 0),
        ((2, 1), 2, F(1, 4), (F(1, 31), F(1, 31)), (0, 1), 34),
        ((2, 1), 2, F(1, 4), (F(1, 31), F(1, 33)), (0,), 10),
        ((2, 1), 2, F(1, 4), (F(1, 33), F(1, 31)), (1,), 144),
        # bases that are not squares, so D and the classes live in Q(s)
        ((2, 1), 1, F(2), (F(4, 3),), (), 0),
        ((2, 1), 1, F(2), (F(3, 2),), (0,), 10),
        ((2, 1), 1, F(1, 2), (F(1, 6),), (), 0),
        ((2, 1), 1, F(1, 2), (F(1, 5),), (0,), 10),
        # n = 3 on theta = (1, 1), bound min(q, q^3): alpha < 2 at q = 2
        # and alpha < 1/8 at q = 1/2
        ((1, 1), 3, F(2), (F(7, 5),) * 3, (), 0),
        ((1, 1), 3, F(2), (F(3, 2),) * 3, (0, 1, 2), 126),
        ((1, 1), 3, F(2), (F(3, 2), F(1), F(1)), (0,), 14),
        ((1, 1), 3, F(1, 2), (F(1, 3),) * 3, (), 0),
        ((1, 1), 3, F(1, 2), (F(3, 8),) * 3, (0, 1, 2), 30),
    ]

    @pytest.mark.parametrize("theta,n,q,a,flagged,failing", CASES, ids=repr)
    def test_both_sides_of_the_range(self, theta, n, q, a, flagged, failing):
        params = DualityParams(a, q)
        assert outside_orthogonality_range(params, theta) == flagged
        failures = exact_orthogonality_failures(theta, n, params)
        assert all(eta != etab for eta, etab in failures), "diagonal fails"
        assert len(failures) == failing

    @pytest.mark.parametrize("q,a", [(F(4), F(17, 8)), (F(1, 4), F(1, 31)),
                                     (F(2), F(3, 2))], ids=repr)
    def test_classes_match_a_complex_float_sum(self, q, a):
        # the same sum at 60 digits in complex floats, with the principal
        # roots taken per entry, fails on the same pairs
        theta, params = (2, 1), DualityParams((a,), q)
        basis = all_capacity_configs(theta, 1)
        mu = {c: to_mpf(reversible_measure(c, q)) for c in basis}
        D_C = {(xi, eta): to_mpf(multi_species_D(xi, eta, params))
               * mpmath.sqrt(mpmath.mpc(to_mpf(correction_C_sq(xi, eta, params))))
               for xi in basis for eta in basis}
        failing = set()
        for eta, etab in itertools.product(basis, repeat=2):
            total = sum(mu[xi] * D_C[xi, eta] * D_C[xi, etab] for xi in basis)
            if eta == etab:
                total -= 1 / mu[eta]
            if abs(total) > mpmath.mpf("1e-40"):
                failing.add((eta, etab))
        assert failing == exact_orthogonality_failures(theta, 1, params)
        assert len(failing) == 10


class TestCorrectionVariants:
    def test_pochhammer_q_is_sectorwise_constant_multiple(self):
        # the closed Pochhammer-ratio reading differs from the derived form
        # by a constant on each sector pair; on this sector it is NOT 1, so
        # it cannot satisfy the normalized orthogonality relation
        params = DualityParams((F(2), F(3)), F(1, 2))
        basis = printed_basis()
        ratios = set()
        for xi in basis:
            for eta in basis:
                if kraw_chain(xi, eta, params) == 0:
                    continue
                d = correction_C_sq(xi, eta, params)
                p = pochhammer_C_sq_oracle(xi, eta, params)
                ratios.add(p / d)
        assert len(ratios) == 1, "ratio not constant on the sector: %s" % ratios
        assert ratios != {1}, "variants unexpectedly agree; revisit the default"

    def test_variants_agree_on_unit_sector(self):
        params = DualityParams((F(2), F(3)), F(1, 2))
        basis = enumerate_sector(Sector((1, 1, 1), (1, 1, 1)))
        for xi in basis:
            for eta in basis:
                if kraw_chain(xi, eta, params) == 0:
                    continue
                d = correction_C_sq(xi, eta, params)
                p = pochhammer_C_sq_oracle(xi, eta, params)
                assert d == p, "unit-sector disagreement: %s vs %s" % (d, p)

    def test_derived_radicand_reference_value(self):
        # holes-only xi against a single species-0 particle: the derived
        # radicand goes negative outside the admissible parameter range
        params = DualityParams((F(2), F(3)), F(1, 2))
        xi = Config.capacity([(0, 0), (0, 0)], (1, 1))
        eta = Config.capacity([(1, 0), (0, 0)], (1, 1))
        assert correction_C_sq(xi, eta, params) == F(-71)

    CLOSED_FORM_CASES = [
        ((2, 2), 2, (F(2), F(3)), F(1, 2)),
        ((2, 2), 2, (F(2), F(3)), F(3, 10)),
        ((2, 2), 2, (F(3, 2), F(5, 7)), F(3)),
        ((1, 1, 1), 3, (F(2), F(3), F(5, 4)), F(3)),
    ]

    @pytest.mark.parametrize("theta,n,a,q", CLOSED_FORM_CASES, ids=repr)
    def test_closed_form_matches_derived_form(self, theta, n, a, q):
        # equal in value and type on every pair, and one value per
        # (sector of xi, sector of eta) block on the feasible pairs
        params = DualityParams(a, q)
        basis = all_capacity_configs(theta, n)
        blocks, measures = {}, {}
        for xi in basis:
            for eta in basis:
                got = correction_C_sq(xi, eta, params)
                want = derived_C_sq_oracle(xi, eta, params, measures)
                assert type(got) is type(want) and got == want, (
                    "closed %r != derived %r at %s %s" % (got, want, xi, eta))
                if intermediate_configs(xi, eta) is not None:
                    blocks.setdefault((sector_key(xi), sector_key(eta)),
                                      set()).add(got)
        assert all(len(v) == 1 for v in blocks.values())
        assert len(blocks) > 1 and 0 not in set().union(*blocks.values())


class TestRangeReport:
    def test_negative_radicand_pairs_are_flagged(self):
        # negative C^2 G^2 radicands occur here, and both couplings lie
        # outside the range
        params = DualityParams((F(2), F(3)), F(1, 2))
        basis = all_capacity_configs((1, 1), 2)
        n_neg = sum(1 for xi in basis for eta in basis
                    if kraw_chain(xi, eta, params) != 0
                    and correction_C_sq(xi, eta, params)
                    * G_sq_oracle(xi, eta, params) < 0)
        assert n_neg > 0, "fixture should exercise the inadmissible range"
        assert outside_orthogonality_range(params, (1, 1)) == (0, 1)

    def test_report_separates_pairs_at_admissible_params(self):
        # the couplings of `TestOrthogonality`: inside the range, and the
        # relation holds on every pair, across sectors too
        params = DualityParams((F(3, 4), F(1, 2)), F(2))
        assert outside_orthogonality_range(params, (1, 1)) == ()
        assert exact_orthogonality_failures((1, 1), 2, params) == set()


# -- zero-range dualities --------------------------------------------------------

def zrp_window_residual(counts_xi, counts_eta, L, q, strict=False):
    """Intertwining residual of the single-jump chains at base q^2; strict
    swaps in the strict exponent, which differs by the co-location sum."""
    wx = enumerate_zrp_sector(counts_xi, L)
    we = enumerate_zrp_sector(counts_eta, L)
    Lr = qtazrp_generator(wx, q * q, "right").entries
    Ll = qtazrp_generator(we, q * q, "left").entries
    D = np.empty((len(wx), len(we)), dtype=object)
    for i, xi in enumerate(wx):
        for j, eta in enumerate(we):
            D[i, j] = qhahn_D(eta, xi, q * q)
            if strict:
                D[i, j] *= q ** (-colocation_sum(xi, eta))
    return Lr.T @ D - D @ Ll


class TestZeroRangeCrossDuality:
    WINDOWS = [((2, 1), (1, 1), 3), ((1, 1), (2, 1), 3), ((1, 1), (1, 1), 2)]

    @pytest.mark.parametrize("cx,ce,L", WINDOWS)
    def test_inclusive_variant_intertwines(self, cx, ce, L):
        R = zrp_window_residual(cx, ce, L, F(1, 2))
        assert all(v == 0 for v in R.flat), \
            "residual %s on window %s/%s" % (residual_max(R), cx, ce)

    def test_strict_variant_fails_with_two_species(self):
        R = zrp_window_residual((2, 1), (1, 1), 3, F(1, 2), strict=True)
        assert any(v != 0 for v in R.flat), \
            "strict variant unexpectedly intertwines; revisit the default"

    def test_variants_coincide_for_one_species(self):
        # n=1 empties the coupling exponent, so the variants must agree
        wx = enumerate_zrp_sector((3,), 3)
        we = enumerate_zrp_sector((2,), 3)
        for xi in wx:
            for eta in we:
                assert h_exponent(xi, eta) == strict_h_exponent(xi, eta) == 0

    def test_series_and_product_routes_agree(self):
        q = F(2, 3)
        wx = enumerate_zrp_sector((2, 1), 3)
        we = enumerate_zrp_sector((1, 1), 3)
        for xi in wx:
            for eta in we:
                assert_matches_oracles(eta, xi, q * q)


class TestQHahnDuality:
    def test_discrete_kernel_intertwines(self):
        Q, lam, mu = F(1, 4), F(1, 2), F(1, 3)
        wx = enumerate_zrp_sector((2, 1), 3)
        we = enumerate_zrp_sector((1, 1), 3)
        Pr = qhahn_discrete_kernel(wx, lam, mu, Q, "right").entries
        Pl = qhahn_discrete_kernel(we, lam, mu, Q, "left").entries
        D = np.empty((len(wx), len(we)), dtype=object)
        for i, xi in enumerate(wx):
            for j, eta in enumerate(we):
                D[i, j] = qhahn_D(eta, xi, Q)
        R = Pr.T @ D - D @ Pl
        assert all(v == 0 for v in R.flat), \
            "kernel duality residual %s" % residual_max(R)

    def test_continuous_generator_intertwines(self):
        Q, mu = F(1, 4), F(1, 3)
        wx = enumerate_zrp_sector((1, 1), 2)
        we = enumerate_zrp_sector((1, 1), 2)
        Lr = qhahn_continuous_generator(wx, mu, Q, "right").entries
        Ll = qhahn_continuous_generator(we, mu, Q, "left").entries
        D = np.empty((len(wx), len(we)), dtype=object)
        for i, xi in enumerate(wx):
            for j, eta in enumerate(we):
                D[i, j] = qhahn_D(eta, xi, Q)
        R = Lr.T @ D - D @ Ll
        assert all(v == 0 for v in R.flat), \
            "generator duality residual %s" % residual_max(R)

    def test_substitution_recovers_series_form(self):
        # at base s^2 the half-power form is a rational series in base s^2
        s = F(1, 3)
        wx = enumerate_zrp_sector((2, 1), 3)
        we = enumerate_zrp_sector((1, 1), 3)
        for xi in wx:
            for eta in we:
                exact = qhahn_D(eta, xi, s * s)
                assert isinstance(exact, Fraction), "left Q at %s %s" % (xi, eta)

    def test_product_route_oracle(self):
        # non-square base: values live in Q(s) and must match the finite
        # product form computed with inclusive left counts
        Q = F(1, 3)
        wx = enumerate_zrp_sector((2,), 2)
        we = enumerate_zrp_sector((1,), 2)
        for xi in wx:
            for eta in we:
                assert_matches_oracles(eta, xi, Q)

    def test_exactness_in_quadratic_field(self):
        Q = F(1, 3)
        xi = Config([(2, 0)])
        eta = Config([(1, 0)])
        val = qhahn_D(eta, xi, Q)
        assert is_exact(val), "value should stay exact in Q(s)"


def zrp_pairs(counts_xi, counts_eta, L):
    return [(xi, eta) for xi in enumerate_zrp_sector(counts_xi, L)
            for eta in enumerate_zrp_sector(counts_eta, L)]


def expansion_span(xi, eta):
    """Sum of |e| over the factors (1 - s^e) of `qhahn_D`, read off the
    product oracle's q-Pochhammers: it bounds the powers of q's numerator
    and denominator that the running int product carries."""
    n, span = xi.n, 0
    for i in range(n):
        partner, left = eta.counts[n - 1 - i], 0
        for x in range(1, xi.L + 1):
            c = site_count(xi, x, i)
            left += c
            base = -2 * (left + sum(partner[x:])) + 1
            span += sum(abs(base + 2 * m) for m in range(c))
    return span


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                       "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                       "__rpow__", "__neg__", "__pos__", "__abs__")


ZRP_GRID_WINDOWS = [((2, 2), (2, 1), 3), ((1, 1, 1), (2, 1, 1), 3),
                    ((3,), (2,), 4), ((2, 1), (1, 2), 4), ((3, 3), (3, 2), 3)]


class TestQHahnClosedForm:
    @pytest.mark.parametrize("cx,ce,L", ZRP_GRID_WINDOWS)
    def test_h_exponent_matches_double_loop(self, cx, ce, L):
        for xi, eta in zrp_pairs(cx, ce, L):
            got, want = h_exponent(xi, eta), h_exponent_oracle(xi, eta)
            assert type(got) is int and got == want, \
                "h %r != %r at %s %s" % (got, want, xi, eta)

    # the running sums per species against the suffix lists per site, on
    # every pair of the windows in both orders; the first window is the one
    # whose kernels the benchmark checks
    @pytest.mark.parametrize("cx,ce,L", ZRP_GRID_WINDOWS)
    def test_h_exponent_matches_suffix_lists(self, cx, ce, L):
        pairs = zrp_pairs(cx, ce, L)
        for xi, eta in pairs + [(eta, xi) for xi, eta in pairs]:
            got, want = h_exponent(xi, eta), h_suffix_oracle(xi, eta)
            assert type(got) is int and got == want, (xi, eta)

    # what the oracle tests above do not reach: int bases, bases above one,
    # square bases (a Fraction value), a base with a large numerator and
    # denominator, a base near one, where the expansion's terms cancel most,
    # three species, three particles of a species at one site; every 11th
    # pair, since the oracles take about a millisecond a pair
    @pytest.mark.parametrize("q", [3, 4, F(5, 2), F(9, 10), F(99, 100),
                                   F(1, 4), F(9, 4), F(1000003, 999983)],
                             ids=repr)
    @pytest.mark.parametrize("cx,ce,L", [((1, 1, 1), (2, 1, 1), 3),
                                         ((3, 3), (3, 2), 3)])
    def test_matches_oracles_off_the_small_windows(self, cx, ce, L, q):
        for xi, eta in zrp_pairs(cx, ce, L)[::11]:
            assert_matches_oracles(eta, xi, q)

    # the running product (A + B s)/C runs on q's numerator and denominator
    # as ints, and A/C, B/C are the only divisions: an exact value costs no
    # Fraction operation at a non-square q and two (A/C + s B/C) at a square
    # q, not one per factor.  Checked on the pairs whose factors carry the
    # largest powers of q
    @pytest.mark.parametrize("q", [F(1, 3), F(9, 4)], ids=repr)
    def test_few_fraction_operations_per_value(self, q, monkeypatch):
        pairs = sorted(zrp_pairs((3, 3), (3, 2), 3),
                       key=lambda pair: expansion_span(*pair))[-20:]
        calls = []

        def counting(name):
            op = getattr(F, name)

            def counted(*args):
                calls.append(name)
                return op(*args)
            return counted

        for name in FRACTION_ARITHMETIC:
            monkeypatch.setattr(F, name, counting(name))
        worst, types = 0, set()
        for xi, eta in pairs:
            calls.clear()
            types.add(type(qhahn_D(eta, xi, q)))
            worst = max(worst, len(calls))
        monkeypatch.undo()
        assert types == {F if q == F(9, 4) else SNum}
        assert worst <= 4, "%d Fraction operations in one call" % worst


class TestTwoSpeciesReduction:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (1, 2)])
    def test_case_table(self, n1, n2):
        q, L, x1, x2 = F(1, 2), 4, 2, 3
        row0 = tuple(n1 if x == x1 else 0 for x in range(1, L + 1))
        row1 = tuple(n2 if x == x2 else 0 for x in range(1, L + 1))
        xi = Config([row0, row1])
        for y1 in range(1, L + 1):
            for y2 in range(1, L + 1):
                eta = Config([
                    tuple(int(x == y1) for x in range(1, L + 1)),
                    tuple(int(x == y2) for x in range(1, L + 1))])
                got = qhahn_D(eta, xi, q * q)
                want = two_species_case_delta(
                    two_species_case(x1, x2, y1, y2), n1, n2, q)
                assert got == want, (
                    "case %d at y=(%d,%d): %s != %s"
                    % (two_species_case(x1, x2, y1, y2), y1, y2, got, want))


# -- parameters and domain handling ----------------------------------------------

class TestParamsAndDomain:
    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError):
            DualityParams((F(0), F(1)), F(1, 2))
        with pytest.raises(DomainError):
            DualityParams((F(-2),), F(1, 2))

    def test_snum_q_rejected(self):
        # the sector measures need q^(1/2), which has no place in the field
        # of an SNum q; the refusal comes before any value is computed
        s = SNum(0, 1, F(1, 3))
        with pytest.raises(DomainError):
            DualityParams((F(4), F(9)), s)
        cfg = Config.capacity([(1, 0), (0, 1)], (1, 1))
        with pytest.raises(DomainError):
            reversible_measure(cfg, s)
        xi = Config([(1, 0)])
        for q in (s, SNum(F(1, 4)), (1 + s) ** 2):
            with pytest.raises(DomainError):
                qhahn_D(xi, xi, q)

    def test_mismatched_profiles_raise(self):
        params = DualityParams((F(2), F(3)), F(1, 2))
        a = Config.capacity([(1, 0), (0, 0)], (1, 1))
        b = Config.capacity([(1, 0), (0, 0)], (2, 2))
        with pytest.raises(DomainError):
            multi_species_D(a, b, params)

    def test_params_are_immutable(self):
        params = DualityParams((F(2), F(3)), F(1, 2))
        with pytest.raises(AttributeError):
            params.a = (F(5), F(3))


# -- the params memo ---------------------------------------------------------------

MEMO_QUANTITIES = (multi_species_D, correction_C_sq)


MEMO_CASES = {
    # theta = (2,2,2), two species: Fraction values
    "theta222": (lambda: enumerate_sector(Sector((2, 2, 2), (2, 2, 2))),
                 lambda: DualityParams((F(1, 2), F(3)), F(1, 3))),
    # odd counts put the sector measures, and D, in Q(sqrt(q))
    "odd-counts": (lambda: enumerate_sector(Sector((1, 1, 1), (1, 1, 1))),
                   lambda: DualityParams((F(2), F(5)), F(1, 2))),
    # every sector on theta = (2,1): pairs across sectors
    "multi-sector": (lambda: all_capacity_configs((2, 1), 2),
                     lambda: DualityParams((F(3, 4), F(1, 2)), F(2))),
    # odd counts at a square q: s = 2/3 is a Fraction, so the measures and
    # the 256 nonzero pairs with an odd power of s stay rational
    "square-q": (lambda: all_capacity_configs((1, 1, 1), 2),
                 lambda: DualityParams((F(2), F(5)), F(4, 9))),
}


def memo_kinds(params):
    """Number of memo entries per kind (sector, species, kraw)."""
    kinds = {}
    for key in params._memo:
        kinds[key[0]] = kinds.get(key[0], 0) + 1
    return kinds


class TestParamsMemo:
    """One params object serves a whole matrix; what it returns for a pair
    must be what a params object used for that pair alone returns."""

    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_shared_params_match_fresh_per_pair(self, case):
        make_basis, make_params = MEMO_CASES[case]
        basis = make_basis()
        shared = make_params()
        for xi in basis:
            for eta in basis:
                for f in MEMO_QUANTITIES:
                    got, want = f(xi, eta, shared), f(xi, eta, make_params())
                    assert type(got) is type(want) and got == want, \
                        "%s differs at %s %s: %r vs %r" % (
                            f.__name__, xi, eta, got, want)
                assert is_exact(multi_species_D(xi, eta, shared))
        if case == "odd-counts":
            assert any(isinstance(multi_species_D(xi, eta, shared), SNum)
                       for xi in basis for eta in basis)
        if case == "square-q":
            assert all(type(multi_species_D(xi, eta, shared)) in (int, F)
                       for xi in basis for eta in basis)
        # no entry is per pair: measures grow with the basis, not its square,
        # and only xi's rows are measured; the site factors are bounded by
        # the capacities alone
        kinds = memo_kinds(shared)
        assert kinds["sector"] <= len(basis)
        for kind, count in kinds.items():
            if kind != "kraw":
                assert count <= shared.n * len(basis), kind

    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_chain_matches_the_product_over_every_site(self, case):
        # the library skips the sites whose factor is K_0 = K_e(1) = 1; the
        # oracle multiplies every site of every intermediate
        make_basis, make_params = MEMO_CASES[case]
        basis, params = make_basis(), make_params()
        q = params.q
        for xi in basis:
            for eta in basis:
                got, want = kraw_chain(xi, eta, params), 0
                intermediates = intermediate_configs(xi, eta)
                if intermediates is not None:
                    want = math.prod(kraw_product(
                        xi.counts[iv.i], iv.row, iv.theta,
                        1 / (params.a[iv.i] ** 2 * q), q * q)
                        for iv in intermediates) or 0
                assert type(got) is type(want) and got == want, (xi, eta)

    def test_intermediates_built_once_per_pair(self, monkeypatch):
        # the chain and the correction share one list of intermediates,
        # and their product is still the value of the public pieces
        built = []

        def counted(xi, eta):
            built.append((xi, eta))
            return intermediate_configs(xi, eta)

        monkeypatch.setattr(du, "intermediate_configs", counted)
        make_basis, make_params = MEMO_CASES["square-q"]
        for basis, params in (
                (enumerate_sector(Sector((1, 2, 3), (2, 2, 2))),
                 DualityParams((F(4), F(9)), F(1, 3))),
                (make_basis(), make_params())):
            built.clear()
            values = {(xi, eta): multi_species_D(xi, eta, params)
                      for xi in basis for eta in basis}
            assert len(built) == len(values)
            assert any(values.values())
            for (xi, eta), value in values.items():
                chain = kraw_chain(xi, eta, params)
                want = correction_G(xi, eta, params) * chain if chain else 0
                assert type(value) is type(want) and value == want, (xi, eta)

    def test_params_with_different_alpha_share_no_entries(self):
        basis = enumerate_sector(Sector((2, 2, 2), (2, 2, 2)))
        first = DualityParams((F(4), F(9)), F(1, 3))
        second = DualityParams((F(5), F(9)), F(1, 3))
        for params in (first, second):
            for xi in basis:
                for eta in basis:
                    multi_species_D(xi, eta, params)
        assert first._memo is not second._memo
        # species 0's site factors of positive degree and argument depend
        # on a_0 through their shifted parameter
        factors = [key for key in first._memo
                   if key[:2] == ("kraw", 0) and key[2] and key[3]]
        assert factors and all(first._memo[key] != second._memo[key]
                               for key in factors)
        for xi in basis:
            for eta in basis:
                fresh = DualityParams((F(5), F(9)), F(1, 3))
                assert multi_species_D(xi, eta, second) == multi_species_D(xi, eta, fresh)


# -- structural properties ---------------------------------------------------------

def zrp_config_pairs():
    """Small random zero-range configuration pairs with matching shape."""
    def build(draw_counts):
        n, L, flat_xi, flat_eta = draw_counts
        xi = Config([tuple(flat_xi[i * L:(i + 1) * L]) for i in range(n)])
        eta = Config([tuple(flat_eta[i * L:(i + 1) * L]) for i in range(n)])
        return xi, eta
    return st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=9, max_size=9),
        st.lists(st.integers(min_value=0, max_value=2), min_size=9, max_size=9),
    ).map(build)


class TestStructureProperties:
    @given(zrp_config_pairs())
    @settings(max_examples=60, deadline=None)
    def test_h_variant_gap_is_colocation_sum(self, pair):
        xi, eta = pair
        gap = h_exponent(xi, eta) - strict_h_exponent(xi, eta)
        want = colocation_sum(xi, eta)
        assert gap == want, "variant gap %s != co-location sum %s" % (gap, want)

    @given(zrp_config_pairs(), st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(3, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_substitution_identity(self, pair, s):
        xi, eta = pair
        exact = qhahn_D(eta, xi, s * s)
        assert isinstance(exact, Fraction)

    @given(zrp_config_pairs(), st.sampled_from([F(1, 2), F(2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_series_equals_product_route(self, pair, q):
        xi, eta = pair
        assert_matches_oracles(eta, xi, q * q)

    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_empty_process_side_gives_one(self, a, b, c, d):
        xi = Config([(0, 0), (0, 0)])
        eta = Config([(a, b), (c, d)])
        assert qhahn_D(eta, xi, F(1, 4)) == 1, "empty xi must give 1"

    def test_empty_dual_is_sector_constant(self):
        # against the empty dual the value is harmonic, hence constant on
        # each conserved-counts window (but not 1)
        q = F(1, 2)
        eta = Config([(0, 0, 0), (0, 0, 0)])
        for counts in [(2, 1), (1, 1), (3, 0)]:
            window = enumerate_zrp_sector(counts, 3)
            vals = {qhahn_D(eta, xi, q * q) for xi in window}
            assert len(vals) == 1, "sector values not constant: %s" % vals


# -- validation without asserts -----------------------------------------------------

# validation raises, never asserts (tests/test_imports.py keeps assert out of
# src), so these hold under python -O, where CI runs the suite again
_ONE = Config.capacity([(1, 0)], (1, 1))
_ZRP = Config([(1, 0)])
_PARAMS = du.DualityParams((F(4),), F(1, 2))
_FULL = Config.capacity([(2, 1)], (2, 1))
_SINGLE = Config.capacity([(1, 0)], (2, 1))
INPUT_CHECKS = {
    "SNum q": lambda: du.DualityParams((F(4), F(9)), SNum(0, 1, F(1, 3))),
    "zero-range SNum q": lambda: du.qhahn_D(_ZRP, _ZRP, SNum(F(1, 4))),
    # arithmetic is exact only: a float is refused, never converted
    "float q": lambda: du.DualityParams((F(4),), 0.5),
    "float coupling": lambda: du.DualityParams((F(4), 3.0), F(1, 2)),
    # a bool is not an exact scalar: a = (True,) was a = (1,) before
    "bool coupling": lambda: du.DualityParams((True,), F(1, 2)),
    "zero-range mpf q": lambda: du.qhahn_D(_ZRP, _ZRP, mpmath.mpf(1) / 3),
    "pair type": lambda: du.multi_species_D((1, 0), _ONE, _PARAMS),
    "pair mode": lambda: du.multi_species_D(_ZRP, _ZRP, _PARAMS),
    "zero-range pair type": lambda: du.h_exponent((1, 0), _ZRP),
    "zero-range pair mode": lambda: du.h_exponent(_ONE, _ONE),
    "zero-range pair lengths": lambda: du.h_exponent(_ZRP, Config([(1, 0, 0)])),
    "params species count": lambda: du.multi_species_D(
        _ONE, _ONE, du.DualityParams((F(4), F(9)), F(1, 2))),
    # alpha = q^(2k-1) zeroes a factor of C^2's denominator
    "C^2 pole, q > 1": lambda: du.correction_C_sq(
        _FULL, _SINGLE, du.DualityParams((F(2),), F(4))),
    "C^2 pole, q < 1": lambda: du.correction_C_sq(
        _SINGLE, _FULL, du.DualityParams((F(1, 32),), F(1, 4))),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_check_raises(name):
    with pytest.raises(DomainError):
        INPUT_CHECKS[name]()
