"""Tests for the q-deformed scalar toolbox.

Oracles: brute-force products/sums written inline (independent of the library
code paths), the Fraction expressions of the q-integers, factorials and
Gaussian binomials, the q-Krawtchouk weights and norms, the series forms of
the infinite q-Pochhammers, plus a handful of frozen rational values computed
by hand.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from qmdual import duality, models, qcalc, uqgl
from qmdual.errors import DegenerateQError, DomainError
from qmdual.lattice import Config, Sector
from qmdual.ops import SparseMatrix
from qmdual.scalars import SNum, to_mpf

Q_GRID = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)]


def brute_q_int(n, q):
    # [n]_q as an explicit geometric sum q^{n-1} + q^{n-3} + ... + q^{1-n}
    return sum((q ** (n - 1 - 2 * j) for j in range(n)), Fraction(0))


def q_int_oracle(n, q):
    """[n]_q as the Fraction expression (q^n - q^-n)/(q - q^-1)."""
    q = Fraction(q)
    return (q ** n - q ** (-n)) / (q - q ** (-1))


def q_fact_oracle(n, q):
    """[n]_q! as the product of the q-integers, the int 1 for n = 0."""
    result = 1
    for k in range(1, n + 1):
        result = result * q_int_oracle(k, q)
    return result


def q_binom_oracle(n, k, q):
    """The Gaussian binomial as the ratio of three factorials."""
    if k < 0 or k > n:
        return 0
    return Fraction(q_fact_oracle(n, q)) / (q_fact_oracle(k, q)
                                            * q_fact_oracle(n - k, q))


def brace_int_oracle(n, q):
    """{n}_{q^2} as the Fraction expression (1 - q^{2n})/(1 - q^2)."""
    q = Fraction(q)
    return (1 - q ** (2 * n)) / (1 - q ** 2)


def brace_fact_oracle(n, q):
    """{n}_{q^2}! as the product of the brace integers, the int 1 for n = 0."""
    result = 1
    for k in range(1, n + 1):
        result = result * brace_int_oracle(k, q)
    return result


def brute_phi(m, nums, dens, q, z):
    """Terminating series of degree m, summed term by term from
    q-Pochhammers: sum_k prod (a;q)_k / prod (b;q)_k z^k / (q;q)_k."""
    total = 0
    for k in range(m + 1):
        num, den = z ** k, qcalc.q_poch(q, q, k)
        for a in nums:
            num = num * qcalc.q_poch(a, q, k)
        for b in dens:
            den = den * qcalc.q_poch(b, q, k)
        total = total + num / den
    return total


def phi21(m, a, b, c, q, z):
    """2phi1(a, b; c; q, z) of degree m, on the library's series."""
    return qcalc._phi_series(m, [a, b], [c], q, z)


def phi32(m, a1, a2, a3, b1, b2, q, z):
    """3phi2(a1, a2, a3; b1, b2; q, z) of degree m, on the library's series."""
    return qcalc._phi_series(m, [a1, a2, a3], [b1, b2], q, z)


def q_krawtchouk_norm(n, p, c, q):
    """Squared norm in the orthogonality relation of the q-Krawtchouk family."""
    poch = qcalc.q_poch
    return ((-1) ** n * p ** c * poch(q, q, c - n) * poch(q, q, n)
            * poch(p * q, q, n) / poch(q, q, c) ** 2
            * q ** (math.comb(c + 1, 2) - math.comb(n + 1, 2) + c * n))


def q_krawtchouk_weight(x, p, c, q):
    """Orthogonality weight of the q-Krawtchouk family at the point x."""
    poch = qcalc.q_poch
    return (Fraction(poch(p * q, q, c - x) * (-1) ** (c - x))
            / (poch(q, q, x) * poch(q, q, c - x)) * q ** math.comb(x, 2))


def q_exp_e(z, q):
    """e_q(z) = sum z^n/(q;q)_n, the series form of 1/(z;q)_inf, |z| < 1."""
    if abs(z) >= 1:
        raise DomainError("e_q(z) needs |z| < 1")
    return _float_series(lambda n: z / (1 - q ** n))


def q_exp_E(z, q):
    """E_q(z) = sum q^{n(n-1)/2} z^n/(q;q)_n, the series form of (-z;q)_inf."""
    return _float_series(lambda n: z * q ** (n - 1) / (1 - q ** n))


def _float_series(ratio):
    """1 + sum_n t_n with t_n = t_{n-1} ratio(n), until the terms drop below
    the working precision."""
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps - 5)
    term = total = mpmath.mpf(1)
    for n in range(1, 100_000):
        term = term * ratio(n)
        total += term
        if abs(term) < eps:
            return total
    raise AssertionError("series did not converge")


class TestDeformedIntegers:
    def test_q_int_one_is_one(self):
        for q in Q_GRID:
            assert qcalc.q_int(1, q) == 1

    def test_q_int_two(self):
        q = Fraction(2, 3)
        assert qcalc.q_int(2, q) == q + 1 / q

    def test_q_int_matches_geometric_sum(self):
        for q in Q_GRID:
            for n in range(1, 9):
                assert qcalc.q_int(n, q) == brute_q_int(n, q)

    def test_negative_index_stays_legal(self):
        # [-n]_q = -[n]_q and {-n}_{q^2} = -q^{-2n} {n}_{q^2}, exactly
        q = Fraction(2, 3)
        for n in range(4):
            assert qcalc.q_int(-n, q) == -qcalc.q_int(n, q)
            assert qcalc.brace_int(-n, q) == -q ** (-2 * n) * qcalc.brace_int(n, q)
            assert type(qcalc.q_int(-n, q)) is Fraction

    def test_q_binom_brute_force(self):
        q = Fraction(1, 2)
        expected = qcalc.q_fact(4, q) / (qcalc.q_fact(2, q) * qcalc.q_fact(2, q))
        assert qcalc.q_binom(4, 2, q) == expected

    def test_q_binom_out_of_range_is_zero(self):
        q = Fraction(1, 2)
        assert qcalc.q_binom(4, -1, q) == 0
        assert qcalc.q_binom(4, 5, q) == 0

    def test_degenerate_q_rejected(self):
        for bad in (0, 1, -1, Fraction(1)):
            with pytest.raises(DegenerateQError):
                qcalc.q_int(2, bad)
            with pytest.raises(DegenerateQError):
                qcalc.brace_int(2, bad)

    def test_relate_identity_exact(self):
        # q^{n-1}[n]_q = {n}_{q^2} and the factorial version, n = 1..12
        for q in Q_GRID:
            for n in range(1, 13):
                assert q ** (n - 1) * qcalc.q_int(n, q) == qcalc.brace_int(n, q)
                assert (q ** (n * (n - 1) // 2) * qcalc.q_fact(n, q)
                        == qcalc.brace_fact(n, q))

    def test_brace_fact_direct_product(self):
        q = Fraction(1, 2)
        expected = (qcalc.brace_int(1, q) * qcalc.brace_int(2, q)
                    * qcalc.brace_int(3, q))
        assert qcalc.brace_fact(3, q) == expected


# the int products against their Fraction expressions: rational q
# on both sides of 1, negative q and int q
ORACLE_Q = [Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(7, 5),
            Fraction(-2, 5), Fraction(-3, 2), 2, 3, -2]


@pytest.mark.parametrize("q", ORACLE_Q, ids=repr)
def test_int_products_match_the_fraction_forms(q):
    def same(got, want):
        return type(got) is type(want) and got == want

    for n in range(-8, 9):
        assert same(qcalc.q_int(n, q), q_int_oracle(n, q)), n
        assert same(qcalc.brace_int(n, q), brace_int_oracle(n, q)), n
    for n in range(9):
        assert same(qcalc.q_fact(n, q), q_fact_oracle(n, q)), n
        assert same(qcalc.brace_fact(n, q), brace_fact_oracle(n, q)), n
        for k in range(-1, n + 2):
            assert same(qcalc.q_binom(n, k, q), q_binom_oracle(n, k, q)), (n, k)


# an int q must give the value and type of the equal Fraction q: its
# negative powers would otherwise be floats
INT_Q_CALLS = {
    "q_int": lambda q: qcalc.q_int(2, q),
    "q_fact": lambda q: qcalc.q_fact(3, q),
    "q_binom": lambda q: qcalc.q_binom(4, 2, q),
    "brace_fact": lambda q: qcalc.brace_fact(3, q),
    "phi10": lambda q: qcalc.phi10(2, q, 2),
    "qhahn_D": lambda q: duality.qhahn_D(_ZRP, _ZRP, q * q),
    "q_krawtchouk": lambda q: qcalc.q_krawtchouk(1, 2, 2, 3, q),
}


@pytest.mark.parametrize("name", sorted(INT_Q_CALLS))
def test_int_q_stays_exact(name):
    got, want = INT_Q_CALLS[name](3), INT_Q_CALLS[name](Fraction(3))
    assert type(got) is type(want) is Fraction
    assert got == want


# q in {-1, 0, 1} is refused where a q enters, before a negative power of
# q = 0 divides by zero or a vanishing factor of q = 1 gives a silent value
_ZRP = Config([(1, 0)])
_CAP = Config.capacity([(1, 0), (0, 1)], (1, 1))
_TB = uqgl.TensorBasis(1, (1, 1))
_NIL = SparseMatrix({0: {1: 1}}, (2, 2))
DEGENERATE_Q_CALLS = {
    "phi10 q=0": lambda: qcalc.phi10(2, 0, Fraction(1, 2)),
    "q_krawtchouk q=0": lambda: qcalc.q_krawtchouk(1, 1, Fraction(1, 2), 2, 0),
    "qhahn_D q=0": lambda: duality.qhahn_D(_ZRP, _ZRP, 0),
    "multi_species_D q=0": lambda: duality.multi_species_D(
        _CAP, _CAP, duality.DualityParams((2,), 0)),
    "duality_lambda q=1": lambda: uqgl.duality_lambda(2, (1, 1), 1),
    "gamma_from_lambda q=1": lambda: uqgl.gamma_from_lambda(2, 1),
    "gamma_from_lambda q=-1": lambda: uqgl.gamma_from_lambda(2, -1),
    "phi_weight q=1": lambda: models.phi_weight(
        (1,), (2,), Fraction(1, 2), Fraction(1, 3), 1),
    "qhahn_continuous_rates q=1":
        lambda: models.qhahn_continuous_rates((2,), Fraction(1, 3), 1),
    "qhahn_continuous_rates empty site q=1":
        lambda: models.qhahn_continuous_rates((0,), Fraction(1, 3), 1),
    "qhahn_continuous_generator empty sites q=1":
        lambda: models.qhahn_continuous_generator(
            [Config([(0, 0)])], Fraction(1, 3), 1, "left"),
    "qtazrp_rates q=1": lambda: models.qtazrp_rates((2,), 1),
    # a one-site window has no emitting site, so no per-site rate or weight
    # ever sees q
    "qhahn_continuous_generator one site q=1":
        lambda: models.qhahn_continuous_generator(
            [Config([(2,)])], Fraction(1, 4), 1, "right"),
    "qtazrp_generator one site q=1": lambda: models.qtazrp_generator(
        [Config([(2,)])], 1, "right"),
    "qhahn_discrete_kernel one site q=1":
        lambda: models.qhahn_discrete_kernel(
            [Config([(2,)])], Fraction(1, 2), Fraction(1, 4), 1,
            "right"),
    # one-state exclusion sectors and empty bonds reach no q-integer, so
    # q is checked where the exclusion functions take it
    "asep_generator one species q=1":
        lambda: models.asep_generator(Sector((2, 0), (1, 1)), 1),
    "asep_generator one site q=1":
        lambda: models.asep_generator(Sector((1, 1), (2,)), 1),
    "asep_two_site_rates q=1":
        lambda: models.asep_two_site_rates((1, 0), (1, 0), 1),
    "chain_generator one site q=1":
        lambda: uqgl.chain_generator(uqgl.TensorBasis(1, (1,)), 1),
    "reversible_measure empty site q=1":
        lambda: models.reversible_measure(Config.capacity([(0,)], (0,)), 1),
    "single_species_measure empty site q=1":
        lambda: models.single_species_measure((0,), (0,), 2, 1),
    # every uqgl entry point that takes q checks it, also where no
    # q-integer is reached: a weight diagonal, a gauge or a q-exponential
    "weight_matrix q=1": lambda: uqgl.weight_matrix(0, _TB, 1),
    "weight_matrix q=0": lambda: uqgl.weight_matrix(0, _TB, 0),
    "ground_state_G q=1": lambda: uqgl.ground_state_G(_TB, 1),
    "ground_state_G q=-1": lambda: uqgl.ground_state_G(_TB, -1),
    "nilpotent_q_exp q=1": lambda: uqgl.nilpotent_q_exp(_NIL, 1),
    "coproduct_apply q=1": lambda: uqgl.coproduct_apply("raise", 0, _TB, 1),
    "root_vector q=1": lambda: uqgl.root_vector(0, 1, _TB, 1),
    "casimir_c1 q=1": lambda: uqgl.casimir_c1(_TB, 1),
    "bond_casimir q=1": lambda: uqgl.bond_casimir(_TB, 0, 1),
    "inner_product q=1": lambda: uqgl.inner_product(_TB, 1),
    "unitary_U q=1": lambda: uqgl.unitary_U(0, 2, _TB, 1),
    "unitarity_twist q=1": lambda: uqgl.unitarity_twist(0, 2, _TB, 1),
    "algebraic_duality q=1": lambda: uqgl.algebraic_duality([2], _TB, 1),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_Q_CALLS))
def test_degenerate_q_raises_at_entry(name):
    with pytest.raises(DegenerateQError):
        DEGENERATE_Q_CALLS[name]()


class TestPochhammer:
    def test_empty_product(self):
        assert qcalc.q_poch(Fraction(3, 7), Fraction(1, 2), 0) == 1

    def test_base_one_is_defined(self):
        # q_poch checks that a and q are exact, not that q is regular:
        # (a; 1)_n = (1 - a)^n
        assert qcalc.q_poch(Fraction(1, 3), 1, 3) == Fraction(8, 27)
        assert qcalc.q_poch(Fraction(1, 3), Fraction(1), 2) == Fraction(4, 9)

    def test_frozen_value(self):
        q = Fraction(1, 2)
        assert qcalc.q_poch(q, q, 3) == Fraction(21, 64)

    def test_ratio_finite_vs_infinite(self):
        # (a q^{1-A}; q)_inf / (a q^{1-B}; q)_inf with A - B = 2
        a, q = Fraction(1, 3), Fraction(1, 2)
        A, B = 5, 3
        exact = qcalc.q_poch_ratio(a, q, 1 - A, 1 - B)
        num = mpmath.qp(to_mpf(a) * to_mpf(q) ** (1 - A), to_mpf(q))
        den = mpmath.qp(to_mpf(a) * to_mpf(q) ** (1 - B), to_mpf(q))
        assert abs(num / den - to_mpf(exact)) < mpmath.mpf(10) ** -30

    def test_ratio_takes_an_int_q_exactly(self):
        # a negative shift of an int q is a Fraction power, not a float
        got = qcalc.q_poch_ratio(Fraction(1, 3), 3, -1, 0)
        assert type(got) is Fraction and got == Fraction(8, 9)
        got = qcalc.q_poch_ratio(Fraction(1, 3), 3, 0, -2)
        assert type(got) is Fraction and got == 1 / ((1 - Fraction(1, 27))
                                                     * (1 - Fraction(1, 9)))

    def test_ratio_direction_inverse(self):
        a, q = Fraction(2, 5), Fraction(2, 3)
        assert (qcalc.q_poch_ratio(a, q, 2, 5)
                == 1 / qcalc.q_poch_ratio(a, q, 5, 2))


class TestHypergeometric:
    def test_phi21_unit_numerator(self):
        q = Fraction(1, 2)
        assert phi21(2, 1, q ** -2, q ** -3, q, Fraction(5)) == 1

    def test_phi10_newton_binomium(self):
        q, z = Fraction(1, 2), Fraction(3)
        assert qcalc.phi10(2, q, z) == qcalc.q_poch(z * q ** -2, q, 2)

    def test_phi10_pochhammer_identity_range(self):
        q = Fraction(2, 3)
        z = Fraction(5, 7)
        for n in range(0, 9):
            lhs = qcalc.phi10(n, q, z)
            rhs = qcalc.q_poch(z * q ** -n, q, n)
            assert lhs == rhs, "1phi0 identity fails at n=%d" % n

    def test_nonterminating_rejected(self):
        with pytest.raises(DomainError):
            qcalc.phi10(Fraction(1, 3), Fraction(1, 2), Fraction(1, 5))

    def test_phi32_brute_force(self):
        q = Fraction(1, 2)
        a1 = q ** -2
        a2, a3 = Fraction(1, 3), Fraction(1, 5)
        b1, b2 = Fraction(1, 7), Fraction(1, 11)
        z = Fraction(2, 3)
        total = brute_phi(2, [a1, a2, a3], [b1, b2], q, z)
        assert phi32(2, a1, a2, a3, b1, b2, q, z) == total

    def test_degree_must_be_a_nonnegative_int(self):
        for m in (-1, 2.0, Fraction(2)):
            with pytest.raises(DomainError):
                qcalc.phi10(m, Fraction(1, 2), Fraction(1, 5))

    def test_series_near_one_run_to_their_degree(self):
        # factors 1 - q^k of size 1e-35 sit below any value tolerance at 60
        # digits; a series that stops on such a test returns 1 here
        q, z = 1 + Fraction(1, 10 ** 35), Fraction(3, 10)
        got = [qcalc.phi10(3, q, z), qcalc.q_krawtchouk(2, 2, 2, 3, q)]
        want = [qcalc.q_poch(z * q ** -3, q, 3),
                brute_phi(2, [q ** -2, q ** -2], [q ** -3], q, 2 * q ** 3)]
        assert got == want
        assert abs(want[0] - Fraction(343, 1000)) < Fraction(1, 10 ** 3)
        assert abs(want[1] + Fraction(1, 3)) < Fraction(1, 10 ** 3)


class TestKrawtchouk:
    def test_degree_zero(self):
        q = Fraction(1, 2)
        for x in range(4):
            assert qcalc.q_krawtchouk(0, x, Fraction(100), 3, q) == 1

    def test_point_zero(self):
        q = Fraction(1, 2)
        for n in range(4):
            assert qcalc.q_krawtchouk(n, 0, Fraction(100), 3, q) == 1

    def test_out_of_range_degree(self):
        with pytest.raises(DomainError):
            qcalc.q_krawtchouk(4, 0, Fraction(100), 3, Fraction(1, 2))

    def test_orthogonality_exact(self):
        # weights/norms of the three-term family; p rational with p q^c > 1
        for q in (Fraction(1, 2), Fraction(2, 3)):
            for c in range(1, 5):
                p = Fraction(2) * q ** -c  # p q^c = 2 > 1
                for m in range(c + 1):
                    for n in range(c + 1):
                        total = sum(
                            q_krawtchouk_weight(x, p, c, q)
                            * qcalc.q_krawtchouk(m, x, p, c, q)
                            * qcalc.q_krawtchouk(n, x, p, c, q)
                            for x in range(c + 1))
                        expected = (q_krawtchouk_norm(n, p, c, q)
                                    if m == n else 0)
                        assert total == expected, (
                            "orthogonality fails at q=%s c=%d m=%d n=%d"
                            % (q, c, m, n))


class TestQExponentials:
    # the series oracles themselves, then mpmath's infinite q-Pochhammer
    # against them
    def test_at_zero(self):
        assert abs(q_exp_e(0, mpmath.mpf("0.5")) - 1) == 0

    def test_mutual_inverses(self):
        q = mpmath.mpf(1) / 2
        z = mpmath.mpf(1) / 3
        prod = q_exp_e(z, q) * q_exp_E(-z, q)
        assert abs(prod - 1) < mpmath.mpf(10) ** -30

    def test_product_forms(self):
        q = mpmath.mpf("0.4")
        z = mpmath.mpf("0.7")
        e_prod = 1 / mpmath.qp(z, q)
        E_prod = mpmath.qp(-z, q)
        assert abs(q_exp_e(z, q) - e_prod) < mpmath.mpf(10) ** -40
        assert abs(q_exp_E(z, q) - E_prod) < mpmath.mpf(10) ** -40

    def test_e_q_domain(self):
        with pytest.raises(DomainError):
            q_exp_e(mpmath.mpf(2), mpmath.mpf("0.5"))


class TestBackendAgreement:
    def test_snum_backend_runs_the_same_formulas(self):
        q = SNum(0, 1, Fraction(1, 2))  # q = s, s^2 = 1/2
        val = qcalc.q_poch(q, q, 3)
        # (1-s)(1-s^2)(1-s^3) with s^2 = 1/2
        s = SNum(0, 1, Fraction(1, 2))
        expected = (1 - s) * (1 - s * s) * (1 - s * s * s)
        assert val == expected


class TestGaussianConventions:
    def test_qq_binom_hand_value(self):
        # (q;q)_4 / (q;q)_2^2 at q = 1/2 is 35/16 (matches 1+q+2q^2+q^3+q^4)
        q = Fraction(1, 2)
        assert qcalc.qq_binom(4, 2, q) == Fraction(35, 16)
        assert qcalc.qq_binom(4, 2, q) == 1 + q + 2 * q**2 + q**3 + q**4

    def test_bridge_to_symmetric_convention(self):
        # qq with base q^2 differs from the symmetric binomial by q^{k(n-k)}
        for q in Q_GRID:
            for n in range(7):
                for k in range(n + 1):
                    assert (qcalc.qq_binom(n, k, q**2)
                            == q ** (k * (n - k)) * qcalc.q_binom(n, k, q))

    def test_out_of_range_is_zero(self):
        assert qcalc.qq_binom(3, -1, Fraction(1, 2)) == 0
        assert qcalc.qq_binom(3, 4, Fraction(1, 2)) == 0

    def test_symmetry(self):
        q = Fraction(2, 3)
        for n in range(6):
            for k in range(n + 1):
                assert qcalc.qq_binom(n, k, q) == qcalc.qq_binom(n, n - k, q)


# -- validation without asserts -----------------------------------------------------

# validation raises, never asserts (tests/test_imports.py keeps assert out of
# src), so these hold under python -O, where CI runs the suite again
_Q = Fraction(1, 2)
INPUT_CHECKS = {
    "q-factorial degree": lambda: qcalc.q_fact(-1, _Q),
    "q-factorial integer degree": lambda: qcalc.q_fact(2.5, _Q),
    "Gaussian binomial degree": lambda: qcalc.q_binom(-1, 0, _Q),
    "Gaussian binomial integer degree": lambda: qcalc.q_binom(2.0, 1, _Q),
    "(q;q) binomial degree": lambda: qcalc.qq_binom(-1, 0, _Q),
    "curly factorial degree": lambda: qcalc.brace_fact(-3, _Q),
    "q-Pochhammer length": lambda: qcalc.q_poch(Fraction(1, 3), _Q, -2),
    "q-Pochhammer integer length":
        lambda: qcalc.q_poch(Fraction(1, 3), _Q, 2.0),
    "q-Pochhammer ratio shifts":
        lambda: qcalc.q_poch_ratio(Fraction(1, 3), _Q, 1.0, 2),
    # a float q, index or capacity would leave exact arithmetic in silence
    "q-integer float q": lambda: qcalc.q_int(2, mpmath.mpf(1) / 3),
    "q-Krawtchouk float q":
        lambda: qcalc.q_krawtchouk(1, 2, Fraction(1, 2), 2, 0.5),
    "1phi0 mpf q": lambda: qcalc.phi10(2, mpmath.mpf(1) / 3, Fraction(1, 2)),
    # so would a float Pochhammer base or series argument, or a float q in
    # the functions that take it without the check of q; these returned
    # floats before
    "(q;q) binomial float q": lambda: qcalc.qq_binom(4, 2, 0.5),
    "q-Pochhammer float base and q": lambda: qcalc.q_poch(0.5, 0.5, 2),
    "q-Pochhammer float base, empty product":
        lambda: qcalc.q_poch(0.5, _Q, 0),
    "q-Pochhammer float q": lambda: qcalc.q_poch(Fraction(1, 3), 1.0, 2),
    "q-Pochhammer ratio float q":
        lambda: qcalc.q_poch_ratio(Fraction(1, 3), 0.5, 1, 2),
    "q-Pochhammer ratio mpf base":
        lambda: qcalc.q_poch_ratio(mpmath.mpf(1) / 3, _Q, 3, 1),
    "q-Krawtchouk float p": lambda: qcalc.q_krawtchouk(1, 2, 0.5, 2, _Q),
    "1phi0 float z": lambda: qcalc.phi10(2, _Q, 0.5),
    "q-integer index": lambda: qcalc.q_int(1.5, _Q),
    # a bool is not an exact scalar: True raised DegenerateQError before
    "q-integer bool q": lambda: qcalc.q_int(2, True),
    "q-integer float index": lambda: qcalc.q_int(2.0, _Q),
    "brace-integer index": lambda: qcalc.brace_int(1.5, _Q),
    "q-Krawtchouk float capacity":
        lambda: qcalc.q_krawtchouk(1, 2, Fraction(1, 2), 2.0, _Q),
    "q-Krawtchouk float degree":
        lambda: qcalc.q_krawtchouk(1.5, 2, Fraction(1, 2), 2, _Q),
    "q-Krawtchouk float argument":
        lambda: qcalc.q_krawtchouk(1, 2.0, Fraction(1, 2), 2, _Q),
    # the q-integers and factorials are int products of q's numerator and
    # denominator: an SNum q is refused, a rational one as well as s
    "q-integer SNum q": lambda: qcalc.q_int(2, SNum(0, 1, _Q)),
    "q-factorial SNum q": lambda: qcalc.q_fact(2, SNum(0, 1, _Q)),
    "q-factorial rational SNum q": lambda: qcalc.q_fact(2, SNum(_Q)),
    "Gaussian binomial SNum q": lambda: qcalc.q_binom(2, 1, SNum(0, 1, _Q)),
    "Gaussian binomial SNum q, out of range":
        lambda: qcalc.q_binom(2, 3, SNum(0, 1, _Q)),
    "brace-integer SNum q": lambda: qcalc.brace_int(2, SNum(0, 1, _Q)),
    "curly factorial SNum q": lambda: qcalc.brace_fact(2, SNum(0, 1, _Q)),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_check_raises(name):
    with pytest.raises(DomainError):
        INPUT_CHECKS[name]()
