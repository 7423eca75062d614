"""Generator assembly, reversible measures, Phi weights, zero-range kernels."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdual import models
from qmdual.errors import DomainError
from qmdual.lattice import Config, Sector, enumerate_sector, enumerate_zrp_sector
from qmdual.models import (
    asep_generator,
    asep_two_site_rates,
    phi_weight,
    phi_weight_dlambda,
    qhahn_continuous_generator,
    qhahn_continuous_rates,
    qhahn_discrete_kernel,
    qtazrp_generator,
    qtazrp_rates,
    reversible_measure,
    single_species_measure,
)
from qmdual.qcalc import q_binom, q_poch
from qmdual.scalars import SNum

Q_GRID = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)]

F = Fraction


def dphi_dlambda_fd(gamma, beta, mu, q):
    """Independent derivative oracle: central difference in lambda at 1.

    Step 1e-25 at 60 working digits leaves ~35 significant digits after the
    cancellation, comfortably below the 1e-20 comparison tolerance.
    """
    with mpmath.workdps(60):
        h = mpmath.mpf(10) ** -25
        up = phi_weight(gamma, beta, 1 + h, mu, q)
        dn = phi_weight(gamma, beta, 1 - h, mu, q)
        return (up - dn) / (2 * h)


def printed_reference_generator(q):
    """The worked 4x4 two-species example, row convention, basis order as
    produced by enumerate_sector for k=(1,1,2), theta=(2,2)."""
    return [
        [-q**3 * (q + 1 / q) ** 2, q**3 * (1 + q**2), q * (1 + q**2), 0],
        [q**7, -(q + q**3 + q**7), q**3, q],
        [q**7, q**5, -(q + q**5 + q**7), q],
        [0, q**5 * (1 + q**2), q**3 * (1 + q**2), -q**5 * (q + 1 / q) ** 2],
    ]


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def sector_grid(max_L, max_n, max_theta):
    for L in range(1, max_L + 1):
        for n in range(1, max_n + 1):
            for theta in itertools.product(range(1, max_theta + 1), repeat=L):
                for k in compositions(sum(theta), n + 1):
                    yield Sector(k, theta)


def check_detailed_balance(gen, weights):
    """weights[j] * rate(j -> i) == weights[i] * rate(i -> j), exactly."""
    N = gen.size
    for i in range(N):
        for j in range(i):
            lhs = weights[j] * gen.entries[i][j]
            rhs = weights[i] * gen.entries[j][i]
            assert lhs == rhs, (
                "detailed balance fails between %r and %r: %r != %r"
                % (gen.basis[j], gen.basis[i], lhs, rhs))


class TestTwoSiteRates:
    def test_all_holes_no_moves(self):
        assert asep_two_site_rates((0, 0, 2), (0, 0, 2), F(1, 2)) == []

    def test_single_species_unit_capacity(self):
        q = F(1, 2)
        # particle left of a hole hops right at q^-1, the reverse at q
        moves = asep_two_site_rates((1, 0), (0, 1), q)
        assert moves == [(((0, 1), (1, 0)), 1 / q)]
        moves = asep_two_site_rates((0, 1), (1, 0), q)
        assert moves == [(((1, 0), (0, 1)), q)]

    def test_rates_positive_and_conservative(self):
        q = F(2, 3)
        for site_x in compositions(3, 3):
            for site_x1 in compositions(2, 3):
                for (new_x, new_x1), rate in asep_two_site_rates(site_x, site_x1, q):
                    assert rate > 0, "vanishing-rate move should be dropped"
                    for i in range(3):
                        assert new_x[i] + new_x1[i] == site_x[i] + site_x1[i], \
                            "bond move must conserve each species"


class TestGeneratorAssembly:
    def test_single_site_chain_is_frozen(self):
        gen = asep_generator(Sector((1, 1), (2,)), F(1, 2))
        assert gen.size == 1 and gen.entries[0][0] == 0

    def test_column_sums_vanish(self):
        for sector in sector_grid(3, 2, 2):
            gen = asep_generator(sector, F(1, 2))
            assert all(s == 0 for s in gen.column_sums()), sector

    def test_off_diagonals_nonnegative(self):
        for sector in sector_grid(2, 2, 2):
            gen = asep_generator(sector, F(2, 3))
            for i in range(gen.size):
                for j in range(gen.size):
                    if i != j:
                        assert gen.entries[i][j] >= 0

    @pytest.mark.parametrize("sector", [
        Sector((1, 1, 2), (2, 2)), Sector((1, 3, 4), (2, 2, 2, 2)),
        Sector((2, 1, 1), (1, 1, 1, 1)), Sector((2, 2, 2), (1, 3, 2)),
        Sector((1, 1, 1, 2), (2, 1, 2))])
    def test_move_targets_equal_validated_configs(self, sector):
        # bond swaps build their targets without re-validating them
        moves = models.asep_moves(F(1, 3))
        for cfg in enumerate_sector(sector):
            for target, _ in moves(cfg):
                want = Config(target.counts, theta=sector.theta)
                assert target == want and hash(target) == hash(want)
                assert (target.counts, target.theta, target.L, target.n) \
                    == (want.counts, want.theta, want.L, want.n)
                assert all(type(row) is tuple and all(type(c) is int
                                                      for c in row)
                           for row in target.counts)
                with pytest.raises(AttributeError):
                    target.theta = None

    @pytest.mark.parametrize("q", Q_GRID)
    def test_reference_example_reproduced(self, q):
        # the worked example's display is row convention and carries a
        # global q^2 relative to the two-site rate normalization
        gen = asep_generator(Sector((1, 1, 2), (2, 2)), q)
        printed = printed_reference_generator(q)
        assert gen.size == 4
        for i in range(4):
            for j in range(4):
                assert printed[i][j] == q**2 * gen.entries[j][i], (
                    "entry (%d, %d) mismatch: %s vs %s"
                    % (i, j, printed[i][j], q**2 * gen.entries[j][i]))


class TestReversibleMeasure:
    def test_single_config_sector(self):
        gen = asep_generator(Sector((2, 0), (1, 1)), F(1, 2))
        assert gen.size == 1
        w = reversible_measure(gen.basis[0], F(1, 2))
        assert w > 0

    def test_detailed_balance_grid(self):
        q = F(1, 2)
        for sector in sector_grid(3, 2, 2):
            gen = asep_generator(sector, q)
            weights = [reversible_measure(cfg, q) for cfg in gen.basis]
            check_detailed_balance(gen, weights)

    def test_detailed_balance_second_q(self):
        q = F(2, 3)
        for sector in sector_grid(2, 2, 2):
            gen = asep_generator(sector, q)
            weights = [reversible_measure(cfg, q) for cfg in gen.basis]
            check_detailed_balance(gen, weights)

    def test_detailed_balance_against_reference_matrix(self):
        # pairwise against the printed 4x4, row convention: rate(i->j) = L[i][j]
        q = F(1, 2)
        basis = enumerate_sector(Sector((1, 1, 2), (2, 2)))
        printed = printed_reference_generator(q)
        weights = [reversible_measure(cfg, q) for cfg in basis]
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert weights[i] * printed[i][j] == weights[j] * printed[j][i]

    def test_positive_on_grid(self):
        q = F(1, 2)
        for sector in sector_grid(2, 2, 2):
            for cfg in enumerate_sector(sector):
                assert reversible_measure(cfg, q) > 0

    def test_exact_backend_stays_exact(self):
        # regression: an int/int division used to drop weights to float
        q = F(1, 2)
        for sector in sector_grid(2, 2, 2):
            for cfg in enumerate_sector(sector):
                v = reversible_measure(cfg, q)
                assert isinstance(v, (Fraction, SNum)), type(v)
        w = phi_weight((0, 0), (2, 0), F(1, 2), F(1, 3), q)
        assert isinstance(w, Fraction)

    def test_square_q_gives_a_fraction_on_an_odd_half_power(self):
        # one particle on a site of capacity 2: the squared counts sum to 3,
        # so the measure carries q^(3/2), which is rational at q = 1/4
        cfg = Config.capacity([(1, 0)], (2, 1))
        w = reversible_measure(cfg, F(1, 4))
        assert type(w) is Fraction
        assert w == Fraction(1, 8)


INT_Q_CALLS = {
    "reversible_measure": lambda q: reversible_measure(
        Config.capacity([(1, 0), (0, 1)], (1, 1)), q),
    "reversible_measure, negative power": lambda q: reversible_measure(
        Config.capacity([(0, 1), (1, 0)], (1, 1)), q),
    "single_species_measure": lambda q: single_species_measure(
        (1, 0), (1, 1), 4, q),
    "asep_two_site_rates": lambda q: asep_two_site_rates((1, 0), (0, 1), q)[0][1],
    "phi_weight_dlambda": lambda q: phi_weight_dlambda((1,), (2,), 2, q),
    "qtazrp_rates": lambda q: qtazrp_rates((2,), q)[(1,)],
}


@pytest.mark.parametrize("name", sorted(INT_Q_CALLS))
def test_int_q_stays_exact(name):
    # an int q gives the value and type of the equal Fraction q, not a float
    got, want = INT_Q_CALLS[name](3), INT_Q_CALLS[name](F(3))
    assert type(got) is type(want) is Fraction
    assert got == want


class TestMixtureMeasure:
    def test_uniform_mixture_reversible(self):
        # a mixture weighs each sector's reversible measure by its own a_k
        q = F(1, 2)
        theta = (2, 2)
        sectors = [Sector(k, theta) for k in compositions(4, 3)]
        weights = {s.k: F(1, len(sectors)) for s in sectors}
        for sector in sectors:
            gen = asep_generator(sector, q)
            vals = [weights[sector.k] * reversible_measure(cfg, q)
                    for cfg in gen.basis]
            assert all(v > 0 for v in vals)
            check_detailed_balance(gen, vals)


class TestSingleSpeciesMeasure:
    def test_two_site_hand_values(self):
        # theta=(1,2), alpha=2/3, q=1/2: weights alpha/q and alpha*[2]_q/q^4
        q, alpha = F(1, 2), F(2, 3)
        mu_a = single_species_measure((1, 0), (1, 2), alpha, q)
        mu_b = single_species_measure((0, 1), (1, 2), alpha, q)
        assert mu_a == F(4, 3)
        assert mu_b == F(80, 3)
        assert mu_a / mu_b == q**3 / q_binom(2, 1, q)

    def test_overfilled_site_weighs_zero(self):
        assert single_species_measure((2, 0), (1, 2), F(1, 3), F(1, 2)) == 0

    def test_detailed_balance_single_species(self):
        # the fugacity factor is constant on a sector, so the alpha-weighted
        # product measure must satisfy the same balance relations
        q, alpha = F(1, 2), F(2, 3)
        for sector in sector_grid(3, 1, 2):
            gen = asep_generator(sector, q)
            weights = [
                single_species_measure(cfg.row(0), cfg.theta, alpha, q)
                for cfg in gen.basis
            ]
            assert all(w > 0 for w in weights)
            check_detailed_balance(gen, weights)


class TestPhiWeight:
    def test_empty_batch_value(self):
        lam, mu, q = F(1, 2), F(1, 3), F(1, 2)
        beta = (2, 1)
        expect = q_poch(mu / lam, q, 3) / q_poch(mu, q, 3)
        assert phi_weight((0, 0), beta, lam, mu, q) == expect

    def test_chi_two_species(self):
        # beta=(2,1), gamma=(1,1) gives chi = (2-1)*1 = 1; pin the full
        # weight with the exponent written out
        q = F(1, 2)
        w = phi_weight((1, 1), (2, 1), F(1, 2), F(1, 3), q)
        assert w == q ** 1 * F(2, 3) ** 2 * q_poch(F(1, 2), q, 2) \
            * q_poch(F(2, 3), q, 1) / q_poch(F(1, 3), q, 3) * (1 + q)

    def test_stochastic_at_unit_lambda(self):
        # lambda = 1 freezes the chain: only the empty batch survives
        beta = (2, 1)
        total = 0
        for gamma in itertools.product(range(3), range(2)):
            total += phi_weight(gamma, beta, 1, F(1, 3), F(1, 2))
        assert total == 1
        assert phi_weight((1, 0), beta, 1, F(1, 3), F(1, 2)) == 0

    def test_stochastic_grid(self):
        for beta in [(1,), (3,), (6,), (2, 1), (1, 3), (2, 2, 1)]:
            for lam in (F(1, 2), F(3, 4)):
                for mu in (F(0), F(1, 3)):
                    for q in (F(1, 2), F(2, 3)):
                        total = 0
                        for gamma in itertools.product(
                                *(range(b + 1) for b in beta)):
                            total += phi_weight(gamma, beta, lam, mu, q)
                        assert total == 1, (beta, lam, mu, q)

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.lists(st.integers(0, 2), min_size=1, max_size=3),
        lam=st.fractions(min_value=F(1, 10), max_value=1, max_denominator=12),
        mu=st.fractions(min_value=0, max_value=F(9, 10), max_denominator=12),
        q=st.fractions(min_value=F(1, 10), max_value=F(9, 10),
                       max_denominator=12),
    )
    def test_stochastic_random(self, beta, lam, mu, q):
        beta = tuple(beta)
        total = 0
        for gamma in itertools.product(*(range(b + 1) for b in beta)):
            total += phi_weight(gamma, beta, lam, mu, q)
        assert total == 1

    def test_zero_lambda_rejected(self):
        with pytest.raises(DomainError):
            phi_weight((1,), (2,), 0, F(1, 3), F(1, 2))

    def test_oversized_batch_weighs_zero(self):
        assert phi_weight((3,), (2,), F(1, 2), F(1, 3), F(1, 2)) == 0


class TestContinuousRates:
    def test_closed_form_matches_finite_difference(self):
        with mpmath.workdps(60):
            for beta in [(2,), (3,), (1, 1), (2, 1), (2, 0, 1)]:
                for q in (mpmath.mpf("0.3"), mpmath.mpf("0.5"),
                          mpmath.mpf("0.7")):
                    for mu in (mpmath.mpf("0.2"), mpmath.mpf(1) / 3):
                        for gamma in itertools.product(
                                *(range(b + 1) for b in beta)):
                            if sum(gamma) == 0:
                                continue
                            closed = phi_weight_dlambda(gamma, beta, mu, q)
                            fd = dphi_dlambda_fd(gamma, beta, mu, q)
                            assert abs(closed - fd) < mpmath.mpf(10) ** -20, (
                                gamma, beta, float(mu), float(q))

    def test_empty_site_has_no_rates(self):
        assert qhahn_continuous_rates((0, 0), F(1, 3), F(1, 2)) == {}
        assert qtazrp_rates((0,), F(1, 2)) == {}

    def test_rates_nonnegative_grid(self):
        for q in (F(1, 10), F(1, 2), F(9, 10)):
            for mu in (F(0), F(1, 4), F(3, 4)):
                for beta in [(2,), (1, 2), (3, 1)]:
                    for rate in qhahn_continuous_rates(beta, mu, q).values():
                        assert rate >= 0

    def test_single_jump_limit(self):
        # each rate carries mu^{|gamma|}: per unit mu, single-particle
        # batches converge to the closed form and larger batches vanish
        q = F(1, 2)
        for beta in [(2,), (3, 1), (1, 2)]:
            limit = qtazrp_rates(beta, q)
            b = sum(beta)
            for mu in (F(1, 100), F(1, 1000)):
                rates = qhahn_continuous_rates(beta, mu, q)
                for gamma, r in rates.items():
                    if sum(gamma) == 1:
                        # exact one-factor tail: r = mu * limit / (1 - mu q^{b-1})
                        assert r * (1 - mu * q ** (b - 1)) == mu * limit[gamma]
                    else:
                        assert r < mu**2 * 1000
            for gamma in limit:
                assert sum(gamma) == 1

    def test_single_species_squared_base(self):
        # passing q^2 as the base yields the 1 - q^{2k} rate shape
        q = F(1, 2)
        rates = qtazrp_rates((3,), q**2)
        assert rates[(1,)] == F(21, 16)
        assert rates[(1,)] == 1 + q**2 + q**4

    def test_ordered_species_prefix(self):
        # lower species indices suppress higher ones through q^{prefix}
        q = F(1, 2)
        rates = qtazrp_rates((1, 1), q)
        assert rates[(1, 0)] == 1
        assert rates[(0, 1)] == q

    def test_generator_columns_sum_to_zero(self):
        window = enumerate_zrp_sector((1, 1), 2)
        for direction in ("left", "right"):
            gen = qhahn_continuous_generator(window, F(1, 3), F(1, 2),
                                             direction)
            assert all(s == 0 for s in gen.column_sums())
            gen = qtazrp_generator(window, F(1, 2), direction)
            assert all(s == 0 for s in gen.column_sums())

    def test_generator_is_kernel_derivative(self):
        # dual route: the continuous generator must equal -d/dlambda of the
        # one-step kernel at lambda = 1, entry by entry
        with mpmath.workdps(60):
            h = mpmath.mpf(10) ** -20
            mu, q = mpmath.mpf(1) / 3, mpmath.mpf(1) / 2
            for counts, L in [((1, 1), 2), ((2,), 3)]:
                window = enumerate_zrp_sector(counts, L)
                for direction in ("left", "right"):
                    gen = qhahn_continuous_generator(window, mu, q, direction)
                    up = qhahn_discrete_kernel(window, 1 + h, mu, q, direction)
                    dn = qhahn_discrete_kernel(window, 1 - h, mu, q, direction)
                    for i in range(gen.size):
                        for j in range(gen.size):
                            fd = (up.entries[i][j] - dn.entries[i][j]) / (2 * h)
                            assert abs(-fd - gen.entries[i][j]) < mpmath.mpf(10) ** -18, (
                                counts, direction, i, j)


class TestDiscreteKernel:
    def test_empty_configuration_is_fixed(self):
        window = enumerate_zrp_sector((0,), 2)
        ker = qhahn_discrete_kernel(window, F(1, 2), F(1, 3), F(1, 2), "left")
        assert ker.size == 1 and ker.entries[0][0] == 1

    def test_two_site_single_particle(self):
        lam, mu, q = F(1, 2), F(1, 3), F(1, 2)
        window = enumerate_zrp_sector((1,), 2)
        assert [cfg.counts for cfg in window] == [((1, 0),), ((0, 1),)]
        ker = qhahn_discrete_kernel(window, lam, mu, q, "left")
        # site 1 never emits leftward, so the first column is frozen
        assert ker.entries[0][0] == 1 and ker.entries[1][0] == 0
        # the second column is the single-site weight pair, here (1/2, 1/2)
        assert ker.entries[0][1] == F(1, 2)
        assert ker.entries[1][1] == F(1, 2)
        ker = qhahn_discrete_kernel(window, lam, mu, q, "right")
        assert ker.entries[1][1] == 1 and ker.entries[0][1] == 0
        assert ker.entries[1][0] == F(1, 2) and ker.entries[0][0] == F(1, 2)

    def test_columns_sum_to_one(self):
        lam, mu, q = F(1, 2), F(1, 3), F(1, 2)
        for counts, L in [((1, 1), 3), ((2, 1), 2), ((3,), 3)]:
            window = enumerate_zrp_sector(counts, L)
            for direction in ("left", "right"):
                ker = qhahn_discrete_kernel(window, lam, mu, q, direction)
                assert all(s == 1 for s in ker.column_sums()), (counts, direction)

    def test_multi_species_entry_is_sitewise_product(self):
        lam, mu, q = F(1, 2), F(1, 3), F(1, 2)
        window = enumerate_zrp_sector((2, 1), 2)
        ker = qhahn_discrete_kernel(window, lam, mu, q, "left")
        source = Config.zero_range([(1, 1), (0, 1)])   # species rows
        target = Config.zero_range([(2, 0), (1, 0)])   # batch (1,1) moved left
        entry = ker.entries[ker.index[target], ker.index[source]]
        assert entry == phi_weight((1, 1), (1, 1), lam, mu, q)

    def test_probabilities_nonnegative(self):
        window = enumerate_zrp_sector((2,), 2)
        ker = qhahn_discrete_kernel(window, F(3, 4), F(1, 4), F(1, 2), "right")
        for i in range(ker.size):
            for j in range(ker.size):
                assert ker.entries[i][j] >= 0

    def test_weights_computed_once_per_site_content(self, monkeypatch):
        # one phi_weight call per batch of each distinct emitting site
        # content beta, that is prod_i (beta_i + 1) calls per content
        calls = []

        def counted(gamma, beta, *args):
            calls.append(beta)
            return phi_weight(gamma, beta, *args)

        monkeypatch.setattr(models, "phi_weight", counted)
        want = 0
        for counts, direction, emit in (((2, 2), "right", (1, 2)),
                                        ((2, 1), "left", (2, 3))):
            window = enumerate_zrp_sector(counts, 3)
            contents = {cfg.site(x) for cfg in window for x in emit}
            want += sum(math.prod(b + 1 for b in beta) for beta in contents)
            qhahn_discrete_kernel(window, F(1, 2), F(1, 3), F(1, 3), direction)
        assert len(calls) == want == 54


# -- validation without asserts -----------------------------------------------------

_INPUT_CHECKS = """
import sys
from fractions import Fraction as F
from mpmath import mpf
from qmdual import models, uqgl
from qmdual.errors import DegenerateQError, DomainError
from qmdual.lattice import Config, Sector
from qmdual.scalars import SNum
q = F(1, 2)
zrp = Config.zero_range([(1, 0)])
one = Config.capacity([(1, 0)], (1, 1))
two = Config.capacity([(1, 0), (0, 1)], (1, 1))
odd = Config.capacity([(1, 0)], (2, 1))
window = lambda *rows: [Config.zero_range(r) for r in rows]
checks = {
    "matrix kind": lambda: models.assemble([], lambda cfg: (), "matrix"),
    "bond species count":
        lambda: models.asep_two_site_rates((1, 0), (0, 1, 0), q),
    "reversible measure mode": lambda: models.reversible_measure(zrp, q),
    "reversible measure SNum q":
        lambda: models.reversible_measure(one, SNum(0, 1, F(1, 3))),
    "reversible measure float q < 0, odd half power":
        lambda: models.reversible_measure(odd, mpf(-0.5)),
    "reversible measure rational q < 0, odd half power":
        lambda: models.reversible_measure(odd, F(-1, 3)),
    "reversible measure float q < 0, even half power":
        lambda: models.reversible_measure(two, mpf(-0.5)),
    "reversible measure rational q < 0, even half power":
        lambda: models.reversible_measure(two, F(-1, 3)),
    "one-species measure lengths":
        lambda: models.single_species_measure((1, 0), (1, 1, 1), F(4), q),
    "Phi weight lengths":
        lambda: models.phi_weight((1,), (1, 0), F(1, 2), F(1, 3), q),
    "Phi derivative at the empty batch":
        lambda: models.phi_weight_dlambda((0,), (1,), F(1, 3), q),
    "Phi derivative lengths, longer batch":
        lambda: models.phi_weight_dlambda((0, 1), (1,), F(1, 3), q),
    "Phi derivative lengths, longer site":
        lambda: models.phi_weight_dlambda((1,), (1, 0), F(1, 3), q),
    "empty window": lambda: models.qtazrp_generator([], q, "left"),
    "window mode": lambda: models.qtazrp_generator([one], q, "left"),
    "window shapes": lambda: models.qtazrp_generator(
        window([(1, 0)], [(1, 0, 0)]), q, "left"),
    "window totals": lambda: models.qhahn_discrete_kernel(
        window([(1, 0)], [(2, 0)]), F(1, 2), F(1, 3), q, "left"),
}
degenerate = {
    "continuous rates, empty site, q = 1":
        lambda: models.qhahn_continuous_rates((0,), F(1, 3), 1),
    "continuous generator, empty sites, q = 1":
        lambda: models.qhahn_continuous_generator(
            window([(0, 0)]), F(1, 3), 1, "left"),
    "continuous generator, one site, q = 1":
        lambda: models.qhahn_continuous_generator(
            window([(2,)]), F(1, 4), 1, "right"),
    "single-jump generator, one site, q = 1":
        lambda: models.qtazrp_generator(window([(2,)]), 1, "right"),
    "discrete kernel, one site, q = 1":
        lambda: models.qhahn_discrete_kernel(
            window([(2,)]), F(1, 2), F(1, 4), 1, "right"),
    "exclusion generator, one species, q = 1":
        lambda: models.asep_generator(Sector((2, 0), (1, 1)), 1),
    "exclusion generator, one site, q = 1":
        lambda: models.asep_generator(Sector((1, 1), (2,)), 1),
    "bond rates, no exchange, q = 1":
        lambda: models.asep_two_site_rates((1, 0), (1, 0), 1),
    "chain generator, one site, q = 1":
        lambda: uqgl.chain_generator(uqgl.TensorBasis(1, (1,)), 1),
    "reversible measure, empty site, q = 1":
        lambda: models.reversible_measure(Config.capacity([(0,)], (0,)), 1),
    "one-species measure, empty site, q = 1":
        lambda: models.single_species_measure((0,), (0,), 2, 1),
}
for name, call in checks.items():
    try:
        call()
    except DomainError:
        continue
    print("accepted:", name)
for name, call in degenerate.items():
    try:
        call()
    except DegenerateQError:
        continue
    print("accepted:", name)
print("optimize", sys.flags.optimize)
"""


def test_input_checks_raise_under_python_O():
    # python -O strips asserts; input validation must not rest on them
    src = str(Path(models.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _INPUT_CHECKS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["optimize 1"], proc.stdout
