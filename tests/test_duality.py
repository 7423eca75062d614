"""Duality functions: Krawtchouk products, corrections, zero-range forms."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmdual import duality as du
from qmdual.duality import (
    DualityParams,
    correction_C,
    correction_C_sq,
    correction_G,
    correction_G_sq,
    h_exponent,
    kraw_chain,
    multi_species_D,
    orthogonality_range_report,
    qhahn_D,
    w_over_h,
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
)
from qmdual.qcalc import _check_q, phi10, q_krawtchouk, q_poch, q_poch_ratio
from qmdual.scalars import SNum, is_exact, q_root, sqrt, to_mpf

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


def qhahn_product_oracle(eta, xi, q):
    """Finite-product route for the half-power zero-range duality: the series
    argument absorbed into a q-Pochhammer with the site-inclusive left count."""
    s = q_root(q)
    n, L = xi.n, xi.L
    value = s ** h_exponent(xi, eta)
    for i in range(n):
        partner = eta.row(n - 1 - i)
        left = 0
        for x in range(1, L + 1):
            c = xi.count(i, x)
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
        return sum(cfg.range_count(y, 0, m) for y in range(start, cfg.L + 1))

    return sum(eta.count(i, x) * suffix(xi, n - 2 - i, x + xi_from)
               - xi.count(i, x) * suffix(eta, n - 2 - i, x + 1)
               for x in range(1, xi.L + 1) for i in range(n - 1))


def h_exponent_oracle(xi, eta):
    """`h_exponent` by the double loop, the xi suffix starting at the site."""
    return _h_double_loop(xi, eta, 0)


def strict_h_exponent(xi, eta):
    """The zero-range exponent with the xi suffix in the eta term starting
    strictly right of the site; `h_exponent` starts it at the site itself."""
    return _h_double_loop(xi, eta, 1)


def qhahn_series_oracle(eta, xi, q):
    """The zero-range duality as the product of the 1phi0 series that define
    it, with h by its double loop; `qhahn_D` sums each series in closed form
    and expands the product in s."""
    q = _check_q(q)
    s = q_root(q)
    n, L = xi.n, xi.L
    value = s ** h_exponent_oracle(xi, eta)
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
    return sum(eta.count(i, x) * xi.range_count(x, 0, n - 2 - i)
               for x in range(1, xi.L + 1) for i in range(n))


def pochhammer_C_sq_oracle(xi, eta, params):
    """Closed Pochhammer-ratio reading of the C radicand in base q, on a
    feasible pair; `correction_C_sq` is the form derived from the weights."""
    q = params.q
    value = 1
    for iv in intermediate_configs(xi, eta):
        n_xi, n_zeta = sum(xi.row(iv.i)), sum(iv.rows[iv.i])
        # species-count jump across the nesting step
        upper = sum(eta.range_count(x, 0, iv.i + 1) - xi.range_count(x, 0, iv.i)
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
                        bare = single_species_D(xi.row(0), eta.row(0), th,
                                                F(3) ** 2, F(1, 2))
                        assert chain == bare, (
                            "n=1 chain %s != single-species %s at %s %s"
                            % (chain, bare, xi, eta))

    def test_float_backend_tracks_exact(self):
        xi, eta = one_species((1, 2), (2, 2)), one_species((2, 1), (2, 2))
        exact = kraw_chain(xi, eta, DualityParams((F(3),), F(1, 2)))
        approx = kraw_chain(xi, eta, DualityParams((mpmath.mpf(3),),
                                                   mpmath.mpf("0.5")))
        assert isinstance(approx, mpmath.mpf)
        assert abs(approx - to_mpf(exact)) < mpmath.mpf("1e-45")


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
        basis = printed_basis()
        params = DualityParams((F(2), F(3)), F(1, 2))
        zeros = [(0, 3), (1, 3), (2, 0), (3, 0)]
        for i, j in zeros:
            assert multi_species_D(basis[i], basis[j], params) == 0, \
                "expected structural zero at (%d,%d)" % (i, j)


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
            lhs_sq = correction_G_sq(xs[i], ys[0], params) \
                * kraw_chain(xs[i], ys[0], params) ** 2
            rhs_sq = correction_G_sq(xs[0], ys[i], params) \
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
        assert correction_G_sq(xi, eta, params) == 477757440000
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
        radicands = {correction_G_sq(xi, eta, params)
                     for (i, xi), (j, eta) in itertools.product(enumerate(bx),
                                                                enumerate(be))
                     if D[i, j] != 0}
        assert D.shape == (15, 21) and len(radicands) > 1
        assert all(is_exact(v) for v in D.flat)
        R = (asep_generator(s_xi, q).entries.T @ D
             - D @ asep_generator(s_eta, q).entries)
        assert all(v == 0 for v in R.flat)

    def test_square_alpha_sector_stays_exact_and_silent(self):
        # the benchmark's couplings a = (4, 9): every radicand is a square in
        # Q(sqrt(q))
        params = DualityParams((F(4), F(9)), F(1, 3))
        basis = enumerate_sector(Sector((2, 2, 2), (2, 2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = d_matrix(basis, basis, params)
        assert all(is_exact(v) for v in D.flat)


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
        q = _check_q(q)
        s_xi, s_eta = Sector((1, 2, 2), (2, 1, 2)), Sector((2, 1, 2), (2, 1, 2))
        bx, be = enumerate_sector(s_xi), enumerate_sector(s_eta)
        block = np.array([[D[xi, eta] for eta in be] for xi in bx], dtype=object)
        assert any(v != 0 for v in block.flat)
        R = (asep_generator(s_xi, q).entries.T @ block
             - block @ asep_generator(s_eta, q).entries)
        assert all(v == 0 for v in R.flat)


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
    mu = {c: w[c] * du._sector_measure(c, params) for c in basis}
    K, rCG = {}, {}
    for xi in basis:
        for eta in basis:
            k = kraw_chain(xi, eta, params)
            K[xi, eta] = k
            if k != 0:
                rad = (correction_C_sq(xi, eta, params)
                       * correction_G_sq(xi, eta, params) / (w[xi] * w[eta]))
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
                    root = sqrt(to_mpf(rad))
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
        with pytest.raises(DomainError, match="negative radicand"):
            correction_C(xi, eta, params)


class TestRangeReport:
    def test_negative_radicand_pairs_are_flagged(self):
        params = DualityParams((F(2), F(3)), F(1, 2))
        basis = all_capacity_configs((1, 1), 2)
        n_neg = 0
        for xi in basis:
            for eta in basis:
                if kraw_chain(xi, eta, params) == 0:
                    continue
                rad = correction_C_sq(xi, eta, params) * correction_G_sq(xi, eta, params)
                if rad < 0:
                    n_neg += 1
                    assert orthogonality_range_report(xi, eta, params), (
                        "negative radicand at %s %s escaped the range report"
                        % (xi, eta))
        assert n_neg > 0, "fixture should exercise the inadmissible range"

    def test_report_separates_pairs_at_admissible_params(self):
        params = DualityParams((F(3, 4), F(1, 2)), F(2))
        basis = all_capacity_configs((1, 1), 2)
        flags = [bool(orthogonality_range_report(xi, eta, params))
                 for xi in basis for eta in basis
                 if kraw_chain(xi, eta, params) != 0]
        assert not all(flags), "every pair flagged at admissible parameters"
        assert any(flags), "the report should still flag boundary pairs here"


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
        # at base s^2 the half-power form is a rational series in base s^2,
        # and the float backend agrees with it
        s = F(1, 3)
        wx = enumerate_zrp_sector((2, 1), 3)
        we = enumerate_zrp_sector((1, 1), 3)
        for xi in wx:
            for eta in we:
                exact = qhahn_D(eta, xi, s * s)
                approx = qhahn_D(eta, xi, to_mpf(s) ** 2)
                assert isinstance(exact, Fraction), "left Q at %s %s" % (xi, eta)
                assert abs(to_mpf(exact) - approx) < mpmath.mpf("1e-40"), \
                    "float backend mismatch at %s %s" % (xi, eta)

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
        xi = Config.zero_range([(2, 0)])
        eta = Config.zero_range([(1, 0)])
        val = qhahn_D(eta, xi, Q)
        assert is_exact(val), "value should stay exact in Q(s)"


def zrp_pairs(counts_xi, counts_eta, L):
    return [(xi, eta) for xi in enumerate_zrp_sector(counts_xi, L)
            for eta in enumerate_zrp_sector(counts_eta, L)]


ZRP_GRID_WINDOWS = [((2, 2), (2, 1), 3), ((1, 1, 1), (2, 1, 1), 3),
                    ((3,), (2,), 4), ((2, 1), (1, 2), 4), ((3, 3), (3, 2), 3)]


class TestQHahnClosedForm:
    @pytest.mark.parametrize("cx,ce,L", ZRP_GRID_WINDOWS)
    def test_h_exponent_matches_double_loop(self, cx, ce, L):
        for xi, eta in zrp_pairs(cx, ce, L):
            got, want = h_exponent(xi, eta), h_exponent_oracle(xi, eta)
            assert type(got) is int and got == want, \
                "h %r != %r at %s %s" % (got, want, xi, eta)

    # what the oracle tests above do not reach: int bases, bases above one,
    # three species, three particles of a species at one site; every 11th
    # pair, since the oracles take about a millisecond a pair
    @pytest.mark.parametrize("q", [3, 4, F(5, 2), F(9, 10)], ids=repr)
    @pytest.mark.parametrize("cx,ce,L", [((1, 1, 1), (2, 1, 1), 3),
                                         ((3, 3), (3, 2), 3)])
    def test_matches_oracles_off_the_small_windows(self, cx, ce, L, q):
        for xi, eta in zrp_pairs(cx, ce, L)[::11]:
            assert_matches_oracles(eta, xi, q)

    @pytest.mark.parametrize("q", [F(1, 3), F(5, 2), F(9, 10), F(99, 100)],
                             ids=repr)
    @pytest.mark.parametrize("cx,ce,L", [((2, 2), (2, 1), 3),
                                         ((3, 3), (3, 2), 3)])
    def test_float_path_holds_thirteen_digits(self, cx, ce, L, q):
        # the expansion sums terms that cancel, more so as q -> 1; the guard
        # bits must keep 13 of 15 digits, with q itself rounded, even at
        # q = 99/100, where the 1phi0 series kept 8.  Every 5th pair.
        worst = 0
        for xi, eta in zrp_pairs(cx, ce, L)[::5]:
            exact = to_mpf(qhahn_D(eta, xi, q))
            with mpmath.workdps(15):
                approx = qhahn_D(eta, xi, to_mpf(q))
                # the guard bits stay inside: the value is rounded to 15
                assert isinstance(approx, mpmath.mpf) and approx == +approx
            worst = max(worst, abs(approx - exact) / abs(exact))
        assert worst < mpmath.mpf("1e-13"), "relative error %s" % worst


class TestTwoSpeciesReduction:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (1, 2)])
    def test_case_table(self, n1, n2):
        q, L, x1, x2 = F(1, 2), 4, 2, 3
        row0 = tuple(n1 if x == x1 else 0 for x in range(1, L + 1))
        row1 = tuple(n2 if x == x2 else 0 for x in range(1, L + 1))
        xi = Config.zero_range([row0, row1])
        for y1 in range(1, L + 1):
            for y2 in range(1, L + 1):
                eta = Config.zero_range([
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
        xi = Config.zero_range([(1, 0)])
        for q in (s, SNum(F(1, 4)), (1 + s) ** 2):
            with pytest.raises(DomainError):
                qhahn_D(xi, xi, q)

    def test_float_input_floats_everything(self):
        p = DualityParams((F(2), mpmath.mpf(3)), F(1, 2))
        assert all(isinstance(a, mpmath.mpf) for a in p.a)
        assert isinstance(p.q, mpmath.mpf)

    def test_mismatched_profiles_raise(self):
        params = DualityParams((F(2), F(3)), F(1, 2))
        a = Config.capacity([(1, 0), (0, 0)], (1, 1))
        b = Config.capacity([(1, 0), (0, 0)], (2, 2))
        with pytest.raises(DomainError):
            multi_species_D(a, b, params)

    def test_float_multi_species_tracks_exact(self):
        basis = printed_basis()
        exact = DualityParams((F(2), F(3)), F(1, 2))
        approx = DualityParams((mpmath.mpf(2), mpmath.mpf(3)), mpmath.mpf("0.5"))
        for xi in basis:
            for eta in basis:
                e = multi_species_D(xi, eta, exact)
                f = multi_species_D(xi, eta, approx)
                assert abs(to_mpf(e) - to_mpf(f)) < mpmath.mpf("1e-40"), \
                    "float path diverged at %s %s" % (xi, eta)

    def test_params_are_immutable(self):
        params = DualityParams((F(2), F(3)), F(1, 2))
        with pytest.raises(AttributeError):
            params.a = (F(5), F(3))


# -- the params memo ---------------------------------------------------------------

MEMO_QUANTITIES = (multi_species_D, correction_C_sq, orthogonality_range_report)


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
}


def memo_kinds(params):
    """Number of memo entries per kind (sector, species, p, kraw)."""
    kinds = {}
    for key in params._memo:
        kinds[key[1]] = kinds.get(key[1], 0) + 1
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
        # no entry is per pair: measures grow with the basis, not its square
        kinds = memo_kinds(shared)
        assert kinds["sector"] <= len(basis)
        assert kinds["species"] <= 2 * shared.n * len(basis)

    def test_intermediates_built_once_per_pair(self, monkeypatch):
        # the chain and the correction share one list of intermediates,
        # and their product is still the value of the public pieces
        built = []

        def counted(xi, eta):
            built.append((xi, eta))
            return intermediate_configs(xi, eta)

        basis = enumerate_sector(Sector((1, 2, 3), (2, 2, 2)))
        params = DualityParams((F(4), F(9)), F(1, 3))
        monkeypatch.setattr(du, "intermediate_configs", counted)
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
        # the shifted Krawtchouk parameters of species 0 depend on a_0
        shifted = [key for key in first._memo if key[1:3] == ("p", 0)]
        assert shifted and all(first._memo[key] != second._memo[key]
                               for key in shifted)
        for xi in basis:
            for eta in basis:
                fresh = DualityParams((F(5), F(9)), F(1, 3))
                assert multi_species_D(xi, eta, second) == multi_species_D(xi, eta, fresh)

    def test_float_entries_follow_the_working_precision(self):
        basis = enumerate_sector(Sector((1, 2, 1), (2, 1, 1)))
        reused = DualityParams((2.0, 3.0), 0.5)
        low = {(xi, eta): multi_species_D(xi, eta, reused)
               for xi in basis for eta in basis}
        with mpmath.workdps(120):
            fresh = DualityParams((2.0, 3.0), 0.5)
            high = {(xi, eta): multi_species_D(xi, eta, fresh)
                    for xi in basis for eta in basis}
            for pair, value in high.items():
                again = multi_species_D(*pair, reused)
                assert type(again) is type(value) and again == value, pair
        # the check has teeth: some value moves past the 60th digit
        assert any(low[pair] != high[pair] for pair in high)


# -- structural properties ---------------------------------------------------------

def zrp_config_pairs():
    """Small random zero-range configuration pairs with matching shape."""
    def build(draw_counts):
        n, L, flat_xi, flat_eta = draw_counts
        xi = Config.zero_range([tuple(flat_xi[i * L:(i + 1) * L]) for i in range(n)])
        eta = Config.zero_range([tuple(flat_eta[i * L:(i + 1) * L]) for i in range(n)])
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
        assert abs(to_mpf(exact) - qhahn_D(eta, xi, to_mpf(s) ** 2)) \
            < mpmath.mpf("1e-40") * max(1, abs(to_mpf(exact)))

    @given(zrp_config_pairs(), st.sampled_from([F(1, 2), F(2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_series_equals_product_route(self, pair, q):
        xi, eta = pair
        assert_matches_oracles(eta, xi, q * q)

    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_empty_process_side_gives_one(self, a, b, c, d):
        xi = Config.zero_range([(0, 0), (0, 0)])
        eta = Config.zero_range([(a, b), (c, d)])
        assert qhahn_D(eta, xi, F(1, 4)) == 1, "empty xi must give 1"

    def test_empty_dual_is_sector_constant(self):
        # against the empty dual the value is harmonic, hence constant on
        # each conserved-counts window (but not 1)
        q = F(1, 2)
        eta = Config.zero_range([(0, 0, 0), (0, 0, 0)])
        for counts in [(2, 1), (1, 1), (3, 0)]:
            window = enumerate_zrp_sector(counts, 3)
            vals = {qhahn_D(eta, xi, q * q) for xi in window}
            assert len(vals) == 1, "sector values not constant: %s" % vals


# -- validation without asserts -----------------------------------------------------

_INPUT_CHECKS = """
import sys
from fractions import Fraction as F
from qmdual import duality as du
from qmdual.errors import DomainError
from qmdual.lattice import Config
from qmdual.scalars import SNum
q = F(1, 2)
one = Config.capacity([(1, 0)], (1, 1))
zrp = Config.zero_range([(1, 0)])
params = du.DualityParams((F(4),), q)
checks = {
    "SNum q": lambda: du.DualityParams((F(4), F(9)), SNum(0, 1, F(1, 3))),
    "zero-range SNum q": lambda: du.qhahn_D(zrp, zrp, SNum(F(1, 4))),
    "pair type": lambda: du.multi_species_D((1, 0), one, params),
    "pair mode": lambda: du.multi_species_D(zrp, zrp, params),
    "zero-range pair type": lambda: du.h_exponent((1, 0), zrp),
    "zero-range pair mode": lambda: du.h_exponent(one, one),
    "weight ratio row lengths":
        lambda: du.w_over_h((1, 0), (0, 1, 0), (1, 1), 2, F(1, 4)),
    "weight ratio occupancy above capacity":
        lambda: du.w_over_h((2, 0), (0, 1), (1, 1), 2, F(1, 4)),
}
for name, call in checks.items():
    try:
        call()
    except DomainError:
        continue
    print("accepted:", name)
print("optimize", sys.flags.optimize)
"""


def test_input_checks_raise_under_python_O():
    # python -O strips asserts; input validation must not rest on them
    src = str(Path(du.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _INPUT_CHECKS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["optimize 1"], proc.stdout
