"""Generator assembly, reversible measures, Phi weights, zero-range kernels."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdual import models
from qmdual.duality import DualityParams, correction_G
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
from qmdual.qcalc import q_binom, q_fact, q_poch, qq_binom
from qmdual.scalars import SNum, check_q, q_root

Q_GRID = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)]

F = Fraction


def dphi_dlambda_fd(gamma, beta, mu, q):
    """Independent derivative oracle: exact central difference in lambda at 1.

    The step 1e-25 leaves a truncation error of order 1e-50, comfortably
    below the 1e-20 comparison tolerance.
    """
    h = F(1, 10 ** 25)
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


def site_count(cfg, x, lo, hi=None):
    """xi^x_{[lo,hi]} read from cfg.counts: the species rows lo..hi (lo
    alone when hi is None) at the 1-indexed site x; 0 on an empty range."""
    hi = lo if hi is None else hi
    return sum(row[x - 1] for row in cfg.counts[lo:hi + 1])


def assemble_oracle(basis, moves, kind="generator"):
    """`models.assemble` move by move: each value is added at (target, cfg)
    and, for a generator, taken off (cfg, cfg) at once, one reduction per
    move."""
    index = {cfg: i for i, cfg in enumerate(basis)}
    rows = {}
    for j, cfg in enumerate(basis):
        for target, value in moves(cfg):
            row = rows.setdefault(index[target], {})
            row[j] = row[j] + value if j in row else value
            if kind == "generator":
                diag = rows.setdefault(j, {})
                diag[j] = diag[j] - value if j in diag else -value
    return rows


def typed_entries(rows):
    """{(r, c): (type, repr)} over stored entries, zeros included."""
    return {(r, c): (type(v), repr(v)) for r, row in rows.items()
            for c, v in row.items()}


def reversible_measure_oracle(cfg, q):
    """The reversible measure by its double sum over site pairs y < x, as a
    Fraction chain: one division by `q_fact` per nonzero count, in
    site-major order, then one multiplication by the power of q."""
    q = check_q(q)
    s = q_root(q)
    halves = 0
    value = 1
    for x in range(1, cfg.L + 1):
        for i in range(cfg.rows):
            c = site_count(cfg, x, i)
            if c:
                value = value / q_fact(c, q)
            halves += c * c
    cross = 0
    for x in range(2, cfg.L + 1):
        for y in range(1, x):
            for i in range(cfg.rows - 1):
                cross += site_count(cfg, x, 0, i) * site_count(cfg, y, i + 1)
    value = value * q ** (halves // 2 - 2 * cross)
    return value * s if halves % 2 else value


def single_species_measure_oracle(xi, theta, alpha, q):
    """The one-species measure as its per-site product alpha^c [t choose c]_q
    q^{-(2 cap_left + t) c}, one `q_binom` per site."""
    q = check_q(q)
    value, cap_left = 1, 0
    for c, t in zip(xi, theta):
        value = value * alpha ** c * q_binom(t, c, q) * q ** (-(2 * cap_left + t) * c)
        cap_left += t
    return value


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


ZRP_WINDOWS = [((2,), 3), ((1, 1), 3), ((2, 1), 2)]
# builds of every matrix kind the library assembles; ORACLE_SECTORS below
GENERATOR_BUILDS = {
    "exclusion, q = %s" % q: lambda q=q: [asep_generator(sector, q)
                                          for sector in ORACLE_SECTORS]
    for q in (F(1, 3), F(2), F(4))}
GENERATOR_BUILDS.update({
    "q-Hahn continuous": lambda: [
        qhahn_continuous_generator(enumerate_zrp_sector(*w), F(1, 3), F(1, 2), d)
        for w in ZRP_WINDOWS for d in ("left", "right")],
    "single jump": lambda: [
        qtazrp_generator(enumerate_zrp_sector(*w), F(1, 2), d)
        for w in ZRP_WINDOWS for d in ("left", "right")],
    "q-Hahn kernel": lambda: [
        qhahn_discrete_kernel(enumerate_zrp_sector(*w), F(1, 2), F(1, 3),
                              F(1, 2), d)
        for w in ZRP_WINDOWS for d in ("left", "right")],
})


class TestGeneratorAssembly:
    def test_empty_chain(self):
        # no sites: one configuration of empty rows, a 1 x 1 generator that
        # stores nothing, and the measure 1
        sector = Sector((0, 0), ())
        basis = enumerate_sector(sector)
        assert basis == [Config(((), ()), theta=())] and basis[0].L == 0
        gen = asep_generator(sector, F(1, 3))
        assert gen.size == 1 and gen.entries.rows == {}
        assert gen.entries.shape == (1, 1)
        sums = gen.column_sums()
        assert sums == [0] and type(sums[0]) is int
        w = reversible_measure(basis[0], F(1, 3))
        assert (type(w), w) == (Fraction, 1)

    @pytest.mark.parametrize("name", sorted(GENERATOR_BUILDS))
    def test_entries_match_move_by_move(self, name, monkeypatch):
        # every matrix the library assembles, against the oracle fed the
        # same basis and moves
        want, assemble = [], models.assemble

        def spy(basis, moves, kind="generator"):
            want.append(typed_entries(assemble_oracle(basis, moves, kind)))
            return assemble(basis, moves, kind)

        monkeypatch.setattr(models, "assemble", spy)
        got = [typed_entries(g.entries.rows) for g in GENERATOR_BUILDS[name]()]
        assert got == want and len(got) > 1

    # moves as (target index, value) out of each basis index; a column that
    # moves onto its own configuration has the value landing there minus
    # the column's sum on its diagonal, and a zero move is stored
    SELF_MOVES = {
        "fraction": {0: [(0, F(1, 2)), (1, F(1, 3))], 1: [(0, F(2, 5))]},
        "int and fraction": {0: [(0, 2), (1, F(1, 3)), (2, 1)],
                             1: [(1, 1)], 2: [(0, 3), (1, 4)]},
        "snum": {0: [(1, SNum(1, 1, 2)), (0, SNum(F(1, 2), 2, 2))],
                 1: [(0, 3), (1, F(1, 2))]},
        "only onto itself": {0: [(0, F(3, 7))], 1: [(0, 1)]},
        "zero value": {0: [(1, 0)], 1: [(0, F(0)), (0, F(1, 2))]},
    }

    @pytest.mark.parametrize("name", sorted(SELF_MOVES))
    def test_moves_onto_the_same_configuration(self, name):
        table = self.SELF_MOVES[name]
        basis = enumerate_sector(Sector((1, 2), (1, 1, 1)))
        index = {cfg: i for i, cfg in enumerate(basis)}

        def moves(cfg):
            for i, value in table.get(index[cfg], ()):
                yield basis[i], value

        for kind in ("generator", "kernel"):
            got = models.assemble(basis, moves, kind).entries
            want = assemble_oracle(basis, moves, kind)
            assert typed_entries(got.rows) == typed_entries(want), kind
        sums = models.assemble(basis, moves).column_sums()
        assert all(s == 0 for s in sums)

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


ORACLE_SECTORS = [
    Sector((3, 3, 2), (1,) * 8),
    Sector((2, 2, 2), (2, 2, 2)),
    Sector((1, 2, 2), (3, 2)),
    Sector((2, 1, 3), (3, 3)),
    Sector((1, 3, 4), (2, 2, 2, 2)),
    Sector((1, 1, 1, 1), (1, 1, 1, 1)),
    Sector((2, 1, 1, 2), (3, 1, 2)),
]
# capacities > 1 give factorials, and |theta| = 5 an odd half power: an
# SNum unless q is a square, as 9/4 and 4 are
ORACLE_Q = [F(1, 3), F(2, 7), 3, F(9, 4), F(7, 2), F(9, 10), F(2), F(4)]
ORACLE_Q_IDS = ["1/3", "2/7", "int 3", "9/4", "7/2", "9/10", "2", "4"]


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

    @pytest.mark.parametrize("q", [3, F(7, 2), F(9, 4)], ids=["3", "7/2", "9/4"])
    def test_detailed_balance_generic_q(self, q):
        # an odd sum of squared counts carries q^(1/2): an SNum unless q is a
        # square, and 9/4 is one, so its weights stay Fractions.  At a site
        # c^2 = c mod 2, so that sum is |theta| mod 2: all weights on one
        # capacity profile carry the same power of s, which the
        # rational-radicand contract of `sqrt` rests on
        parities = set()
        for sector in sector_grid(3, 2, 2):
            gen = asep_generator(sector, q)
            weights = [reversible_measure(cfg, q) for cfg in gen.basis]
            check_detailed_balance(gen, weights)
            parities.add(sum(sector.theta) % 2)
            for cfg, w in zip(gen.basis, weights):
                odd = sum(c * c for row in cfg.counts for c in row) % 2
                assert odd == sum(sector.theta) % 2, cfg
                assert type(w) is (SNum if odd and q != F(9, 4) else Fraction)
                assert bool(getattr(w, "b", 0)) == (odd and q != F(9, 4))
        assert parities == {0, 1}

    @pytest.mark.parametrize("q", ORACLE_Q, ids=ORACLE_Q_IDS)
    def test_one_pass_matches_double_sum(self, q):
        for sector in ORACLE_SECTORS:
            for cfg in enumerate_sector(sector):
                got = reversible_measure(cfg, q)
                want = reversible_measure_oracle(cfg, q)
                assert (type(got), repr(got)) == (type(want), repr(want)), cfg

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

    def test_ground_state_radicand_is_rational_on_every_pair(self):
        # theta = (2,1,2) has an odd |theta|: each measure has an s-part,
        # and G^2 still has none, cross-sector pairs included; so G lies in
        # Q or in Q*s
        theta = (2, 1, 2)
        params = DualityParams((F(3, 2), F(5, 7)), F(2, 7))
        configs = [cfg for k in compositions(sum(theta), 3)
                   for cfg in enumerate_sector(Sector(k, theta))]
        assert all(getattr(reversible_measure(cfg, params.q), "b", 0)
                   for cfg in configs)
        nonzero = 0
        for xi, eta in itertools.product(configs, repeat=2):
            g_sq = correction_G(xi, eta, params) ** 2
            assert getattr(g_sq, "b", 0) == 0, (xi, eta, g_sq)
            nonzero += g_sq != 0
        assert nonzero > 0

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

    def test_overfilled_site_raises(self):
        with pytest.raises(DomainError, match="do not fit"):
            single_species_measure((2, 0), (1, 2), F(1, 3), F(1, 2))
        with pytest.raises(DomainError, match="do not fit"):
            single_species_measure((-1, 0), (1, 2), F(1, 3), F(1, 2))

    @pytest.mark.parametrize("q", ORACLE_Q, ids=ORACLE_Q_IDS)
    def test_one_pass_matches_per_site_product(self, q):
        # every row of every configuration, holes included, on its
        # capacities, gives the oracle's value and type
        rows = {(row, sector.theta) for sector in ORACLE_SECTORS
                for cfg in enumerate_sector(sector) for row in cfg.counts}
        for (row, theta), alpha in itertools.product(rows, (2, F(4, 9))):
            got = single_species_measure(row, theta, alpha, q)
            want = single_species_measure_oracle(row, theta, alpha, q)
            assert type(got) is type(want) and got == want, (row, theta, alpha)

    def test_each_binomial_once_per_call(self, monkeypatch):
        # [2 choose 1] at two sites and [3 choose 2] once; [t choose 0] and
        # [t choose t] are 1 and need no call
        calls = []

        def counted(n, k, q):
            calls.append((n, k))
            return q_binom(n, k, q)

        monkeypatch.setattr(models, "q_binom", counted)
        q, alpha = F(2, 7), F(3)
        xi, theta = (1, 0, 1, 2, 2), (2, 2, 2, 3, 2)
        got = single_species_measure(xi, theta, alpha, q)
        assert sorted(calls) == [(2, 1), (3, 2)]
        assert got == single_species_measure_oracle(xi, theta, alpha, q)

    def test_detailed_balance_single_species(self):
        # the fugacity factor is constant on a sector, so the alpha-weighted
        # product measure must satisfy the same balance relations
        q, alpha = F(1, 2), F(2, 3)
        for sector in sector_grid(3, 1, 2):
            gen = asep_generator(sector, q)
            weights = [
                single_species_measure(cfg.counts[0], cfg.theta, alpha, q)
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
        for beta in [(2,), (3,), (1, 1), (2, 1), (2, 0, 1)]:
            for q in (F(3, 10), F(1, 2), F(7, 10)):
                for mu in (F(1, 5), F(1, 3)):
                    for gamma in itertools.product(*(range(b + 1) for b in beta)):
                        if sum(gamma) == 0:
                            continue
                        closed = phi_weight_dlambda(gamma, beta, mu, q)
                        fd = dphi_dlambda_fd(gamma, beta, mu, q)
                        assert abs(closed - fd) < F(1, 10 ** 20), (
                            gamma, beta, mu, q)

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
        h, mu, q = F(1, 10 ** 20), F(1, 3), F(1, 2)
        for counts, L in [((1, 1), 2), ((2,), 3)]:
            window = enumerate_zrp_sector(counts, L)
            for direction in ("left", "right"):
                gen = qhahn_continuous_generator(window, mu, q, direction)
                up = qhahn_discrete_kernel(window, 1 + h, mu, q, direction)
                dn = qhahn_discrete_kernel(window, 1 - h, mu, q, direction)
                for i in range(gen.size):
                    for j in range(gen.size):
                        fd = (up.entries[i][j] - dn.entries[i][j]) / (2 * h)
                        assert abs(-fd - gen.entries[i][j]) < F(1, 10 ** 18), (
                            counts, direction, i, j)

    def test_rates_computed_once_per_site_content(self, monkeypatch):
        # on (2,2) with L = 3, direction right, sites 1 and 2 of the 36
        # configurations make 72 site visits over 9 distinct contents; the
        # generator reads each content's rates once, as the kernel reads
        # its weights, and stores what per-visit rates would store
        window = enumerate_zrp_sector((2, 2), 3)
        want = qhahn_continuous_generator(window, F(1, 3), F(1, 3), "right")
        calls, rates = [], models.qhahn_continuous_rates

        def counted(beta, mu, q):
            calls.append(beta)
            return rates(beta, mu, q)

        monkeypatch.setattr(models, "qhahn_continuous_rates", counted)
        got = qhahn_continuous_generator(window, F(1, 3), F(1, 3), "right")
        visits = [cfg.site(x) for cfg in window for x in (1, 2)]
        assert len(visits) == 72 and len(set(visits)) == 9
        assert sorted(calls) == sorted(set(visits))
        assert got.entries.rows == want.entries.rows
        # the single-jump generator shares the per-content table
        jumps, single = [], models.qtazrp_rates
        monkeypatch.setattr(models, "qtazrp_rates",
                            lambda beta, q: jumps.append(beta) or single(beta, q))
        qtazrp_generator(window, F(1, 3), "right")
        assert sorted(jumps) == sorted(set(visits))


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
        source = Config([(1, 1), (0, 1)])   # species rows
        target = Config([(2, 0), (1, 0)])   # batch (1,1) moved left
        entry = ker.entries[ker.index[target], ker.index[source]]
        assert entry == phi_weight((1, 1), (1, 1), lam, mu, q)

    def test_probabilities_nonnegative(self):
        window = enumerate_zrp_sector((2,), 2)
        ker = qhahn_discrete_kernel(window, F(3, 4), F(1, 4), F(1, 2), "right")
        for i in range(ker.size):
            for j in range(ker.size):
                assert ker.entries[i][j] >= 0

    # the benchmark's two kernels as (counts, direction, emitting sites),
    # on L = 3
    KERNELS = (((2, 2), "right", (1, 2)), ((2, 1), "left", (2, 3)))

    def test_weights_computed_once_per_site_content(self, monkeypatch):
        # one shared _phi evaluation per batch of each distinct emitting site
        # content beta, that is prod_i (beta_i + 1) evaluations per content
        calls, phi = [], models._phi

        def counted(gamma, beta, *args):
            calls.append(beta)
            return phi(gamma, beta, *args)

        monkeypatch.setattr(models, "_phi", counted)
        want = 0
        for counts, direction, emit in self.KERNELS:
            window = enumerate_zrp_sector(counts, 3)
            contents = {cfg.site(x) for cfg in window for x in emit}
            want += sum(math.prod(b + 1 for b in beta) for beta in contents)
            qhahn_discrete_kernel(window, F(1, 2), F(1, 3), F(1, 3), direction)
        assert len(calls) == want == 54

    def test_q_scalars_computed_once_per_kernel(self, monkeypatch):
        # each distinct (lambda; q)_g, (mu/lambda; q)_m, (mu; q)_b and
        # (q;q)-binomial [b, g] is evaluated once per kernel, not once per
        # weight; at lambda = 1/2, mu = 1/3 no two Pochhammers share their
        # arguments
        poch, binom = [], []

        def recorded(calls, compute):
            def call(*args):
                calls.append(args)
                return compute(*args)
            return call

        monkeypatch.setattr(models, "q_poch", recorded(poch, q_poch))
        monkeypatch.setattr(models, "qq_binom", recorded(binom, qq_binom))
        total = 0
        for counts, direction, emit in self.KERNELS:
            poch.clear()
            binom.clear()
            window = enumerate_zrp_sector(counts, 3)
            pairs = [(gamma, beta) for beta in
                     {cfg.site(x) for cfg in window for x in emit}
                     for gamma in itertools.product(*map(range, (
                         b + 1 for b in beta)))]
            lead = {sum(g) for g, _ in pairs}
            ratio = {sum(b) - sum(g) for g, b in pairs}
            mu = {sum(b) for _, b in pairs}
            binoms = {bg for g, b in pairs for bg in zip(b, g)}
            qhahn_discrete_kernel(window, F(1, 2), F(1, 3), F(1, 3), direction)
            assert len(set(poch)) == len(poch) == len(lead) + len(ratio) + len(mu)
            assert sorted(args[:2] for args in binom) == sorted(binoms)
            total += len(poch) + 3 * len(binom)
        # the Pochhammers behind the traced benchmark's qcalc.q_poch.calls,
        # three per (q;q)-binomial
        assert total == 63


def zrp_moves_oracle(sitewise, direction, L, jointly):
    """moves(cfg) of a zero-range chain from sitewise(gamma, beta), a public
    weight or rate of batch gamma at a site holding beta.  jointly: every
    emitting site moves a batch at once, weighed by the product of their
    values (the kernel); otherwise one nonzero batch moves (the generator).
    Each value is read by its own call."""
    emit, step = (range(2, L + 1), -1) if direction == "left" else (range(1, L), 1)

    def moved(cfg, batches):
        rows = [list(row) for row in cfg.counts]
        for x, gamma in batches:
            for row, g in zip(rows, gamma):
                row[x - 1] -= g
                row[x - 1 + step] += g
        return Config([tuple(row) for row in rows])

    def batches(beta):
        return itertools.product(*(range(c + 1) for c in beta))

    def moves(cfg):
        sites = [cfg.site(x) for x in emit]
        if jointly:
            for choice in itertools.product(*map(batches, sites)):
                value = math.prod(sitewise(gamma, beta)
                                  for gamma, beta in zip(choice, sites))
                if value != 0:
                    yield moved(cfg, zip(emit, choice)), value
            return
        for x, beta in zip(emit, sites):
            for gamma in batches(beta):
                value = sitewise(gamma, beta) if any(gamma) else 0
                if value != 0:
                    yield moved(cfg, [(x, gamma)]), value

    return moves


# windows as (counts, L): the workload's two, and one of three species
ZRP_ORACLE_WINDOWS = [((2, 2), 3), ((2, 1), 3), ((2, 1, 1), 3)]


class TestZeroRangeAgainstPublicWeights:
    # each stored entry in type and repr; q = 9/4 is a square, and at
    # lambda = 1 every weight with a nonempty batch vanishes
    @pytest.mark.parametrize("q", [F(1, 3), 2, F(9, 4)], ids=repr)
    @pytest.mark.parametrize("lam", [F(1, 2), 1], ids=repr)
    @pytest.mark.parametrize("counts,L", ZRP_ORACLE_WINDOWS)
    def test_kernel_entries_are_products_of_phi_weights(self, counts, L, lam, q):
        window = enumerate_zrp_sector(counts, L)
        for direction in ("left", "right"):
            got = qhahn_discrete_kernel(window, lam, F(1, 3), q, direction)
            weight = lambda gamma, beta: phi_weight(gamma, beta, lam, F(1, 3), q)
            want = models.assemble(
                window, zrp_moves_oracle(weight, direction, L, True), "kernel")
            assert typed_entries(got.entries.rows) == typed_entries(
                want.entries.rows), direction

    @pytest.mark.parametrize("q", [F(1, 3), 2, F(9, 4)], ids=repr)
    @pytest.mark.parametrize("counts,L", ZRP_ORACLE_WINDOWS)
    def test_generator_rates_are_phi_derivatives(self, counts, L, q):
        window = enumerate_zrp_sector(counts, L)
        for direction in ("left", "right"):
            got = qhahn_continuous_generator(window, F(1, 3), q, direction)
            rate = lambda gamma, beta: -phi_weight_dlambda(gamma, beta, F(1, 3), q)
            want = models.assemble(
                window, zrp_moves_oracle(rate, direction, L, False))
            assert typed_entries(got.entries.rows) == typed_entries(
                want.entries.rows), direction


# -- validation without asserts -----------------------------------------------------

# validation raises, never asserts (tests/test_imports.py keeps assert out of
# src), so these hold under python -O, where CI runs the suite again; the
# degenerate-q calls are tests/test_qcalc.py's DEGENERATE_Q_CALLS
_Q = F(1, 2)
_ZRP = Config([(1, 0)])
_ONE = Config.capacity([(1, 0)], (1, 1))
_TWO = Config.capacity([(1, 0), (0, 1)], (1, 1))
_ODD = Config.capacity([(1, 0)], (2, 1))


def _window(*rows):
    return [Config(r) for r in rows]


INPUT_CHECKS = {
    "matrix kind": lambda: models.assemble([], lambda cfg: (), "matrix"),
    "move off the basis": lambda: models.assemble(
        [_ONE], lambda cfg: [(Config.capacity([(0, 1)], (1, 1)), 1)],
        "generator"),
    "bond species count":
        lambda: models.asep_two_site_rates((1, 0), (0, 1, 0), _Q),
    "bond, negative count":
        lambda: models.asep_two_site_rates((-1, 2), (1, 0), _Q),
    "reversible measure mode": lambda: models.reversible_measure(_ZRP, _Q),
    "reversible measure SNum q":
        lambda: models.reversible_measure(_ONE, SNum(0, 1, F(1, 3))),
    # a float q is refused by the one check of q, before any value
    "reversible measure float q, odd half power":
        lambda: models.reversible_measure(_ODD, mpmath.mpf(0.5)),
    "reversible measure rational q < 0, odd half power":
        lambda: models.reversible_measure(_ODD, F(-1, 3)),
    "reversible measure float q, even half power":
        lambda: models.reversible_measure(_TWO, mpmath.mpf(0.5)),
    "exclusion generator mpf q":
        lambda: models.asep_generator(Sector((1, 1), (1, 1)), mpmath.mpf(1) / 3),
    "reversible measure rational q < 0, even half power":
        lambda: models.reversible_measure(_TWO, F(-1, 3)),
    "one-species measure float q":
        lambda: models.single_species_measure((1, 0), (1, 1), F(1, 2), 0.5),
    "Phi weight float q":
        lambda: models.phi_weight((1,), (2,), F(1, 2), F(1, 3), 0.5),
    # a float coupling is refused where it enters, as q is: these returned
    # floats before
    "Phi weight float mu":
        lambda: models.phi_weight((1,), (2,), F(1, 2), 0.3, F(1, 2)),
    "Phi weight float lambda":
        lambda: models.phi_weight((1,), (2,), 0.5, F(1, 3), F(1, 2)),
    "Phi weight float mu, batch outside the site":
        lambda: models.phi_weight((3,), (2,), F(1, 2), 0.3, F(1, 2)),
    "Phi derivative float mu":
        lambda: models.phi_weight_dlambda((1,), (2,), 0.3, F(1, 2)),
    "one-species measure float alpha":
        lambda: models.single_species_measure((1, 0), (1, 1), 0.5, F(1, 2)),
    "continuous rates float mu":
        lambda: models.qhahn_continuous_rates((1, 1), 0.5, F(1, 2)),
    "discrete kernel float lambda": lambda: models.qhahn_discrete_kernel(
        _window([(1, 0)], [(0, 1)]), 0.5, F(1, 3), _Q, "left"),
    "one-species measure lengths":
        lambda: models.single_species_measure((1, 0), (1, 1, 1), F(4), _Q),
    "one-species measure, overfilled site":
        lambda: models.single_species_measure((2, 0), (1, 2), F(1, 3), _Q),
    "Phi weight lengths":
        lambda: models.phi_weight((1,), (1, 0), F(1, 2), F(1, 3), _Q),
    "Phi weight, negative site count":
        lambda: models.phi_weight((0,), (-1,), F(1, 2), F(1, 3), _Q),
    "Phi derivative, negative site count":
        lambda: models.phi_weight_dlambda((1,), (-1,), F(1, 3), _Q),
    "Phi derivative at the empty batch":
        lambda: models.phi_weight_dlambda((0,), (1,), F(1, 3), _Q),
    "Phi derivative lengths, longer batch":
        lambda: models.phi_weight_dlambda((0, 1), (1,), F(1, 3), _Q),
    "Phi derivative lengths, longer site":
        lambda: models.phi_weight_dlambda((1,), (1, 0), F(1, 3), _Q),
    "continuous rates, negative count":
        lambda: models.qhahn_continuous_rates((-1,), F(1, 3), _Q),
    "single-jump rates, negative count":
        lambda: models.qtazrp_rates((-1,), _Q),
    "empty window": lambda: models.qtazrp_generator([], _Q, "left"),
    "window mode": lambda: models.qtazrp_generator([_ONE], _Q, "left"),
    "window shapes": lambda: models.qtazrp_generator(
        _window([(1, 0)], [(1, 0, 0)]), _Q, "left"),
    "kernel direction": lambda: models.qhahn_discrete_kernel(
        _window([(1, 0)], [(0, 1)]), F(1, 2), F(1, 3), _Q, "up"),
    "window totals": lambda: models.qhahn_discrete_kernel(
        _window([(1, 0)], [(2, 0)]), F(1, 2), F(1, 3), _Q, "left"),
    # a repeated configuration gave a 3 x 3 kernel with row 0 empty whose
    # column sums still read 1
    "window repeats a configuration": lambda: models.qhahn_discrete_kernel(
        _window([(1, 0)], [(0, 1)], [(1, 0)]), F(1, 2), F(1, 3), _Q, "left"),
    # a count that is not an integer is refused, never truncated: the batch
    # 0.5 read as 0 and the site 1.5 as 1 before, and the count 2.0 gave a
    # float measure
    "Phi weight, non-integer batch":
        lambda: models.phi_weight((0.5,), (1,), F(1, 2), F(1, 3), _Q),
    "single-jump rates, non-integer count":
        lambda: models.qtazrp_rates((1.5,), _Q),
    "continuous rates, non-integer count":
        lambda: models.qhahn_continuous_rates((1.5,), F(1, 3), _Q),
    "one-species measure, non-integer count":
        lambda: models.single_species_measure((2.0, 0), (2, 1), F(1, 3), _Q),
    "bond, non-integer count":
        lambda: models.asep_two_site_rates((1.0, 0), (0, 1), _Q),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_check_raises(name):
    with pytest.raises(DomainError):
        INPUT_CHECKS[name]()


def test_float_q_is_refused_as_inexact():
    # the float refusals come from the check of q, not from a later step
    # such as the root of q, which refuses a float too
    for name in sorted(n for n in INPUT_CHECKS if "float" in n or "mpf" in n):
        with pytest.raises(DomainError, match="is not exact"):
            INPUT_CHECKS[name]()
