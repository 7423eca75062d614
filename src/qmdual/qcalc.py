"""q-deformed integers and factorials, q-Pochhammers, terminating basic
hypergeometric series, q-Krawtchouk polynomials, and scalar q-exponentials.

Every function is generic over the scalar backend: pass q as a Fraction or
SNum for exact arithmetic, or as an mpmath float.  Constants are Python ints
so they combine with either backend.
"""

import math
from fractions import Fraction

import mpmath

from .errors import DegenerateQError, DomainError, NonTerminatingError
from .scalars import is_exact, to_mpf

INF = math.inf

_SERIES_CAP = 100_000
# terminating series at desk scale stop within tens of terms; exact-backend
# Fractions grow quadratically in bit size with the term index, so the
# non-termination guard trips early
_TERM_CAP = 300


def _check_q(q):
    if q == 0 or q == 1 or q == -1:
        raise DegenerateQError("degenerate q = %s" % (q,))


def _div(a, b):
    # int/int true division would silently leave the exact backend
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def q_int(n, q):
    """[n]_q = (q^n - q^-n)/(q - q^-1)."""
    _check_q(q)
    return (q ** n - q ** (-n)) / (q - q ** (-1))


def q_fact(n, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    assert n >= 0
    result = 1
    for k in range(1, n + 1):
        result = result * q_int(k, q)
    return result


def q_binom(n, k, q):
    """Gaussian binomial; 0 outside 0 <= k <= n (infeasible configurations)."""
    assert n >= 0
    if k < 0 or k > n:
        return 0
    return _div(q_fact(n, q), q_fact(k, q) * q_fact(n - k, q))


def qq_binom(n, k, q):
    """Gaussian binomial in the (q;q)-product normalization; 0 outside range.

    (q;q)_n / ((q;q)_k (q;q)_{n-k}); differs from q_binom by q^{k(n-k)}
    after q -> q^2.  Transition-kernel weights need this normalization,
    the measures need the symmetric one.
    """
    assert n >= 0
    if k < 0 or k > n:
        return 0
    return _div(q_poch(q, q, n), q_poch(q, q, k) * q_poch(q, q, n - k))


def q_multinom(n, ks, q):
    """[n]_q! / ([k_1]_q! ... [k_l]_q!)."""
    assert all(k >= 0 for k in ks) and sum(ks) <= n
    denom = 1
    for k in ks:
        denom = denom * q_fact(k, q)
    return _div(q_fact(n, q), denom)


def brace_int(n, q):
    """{n}_{q^2} = (1 - q^{2n})/(1 - q^2)."""
    _check_q(q)
    return (1 - q ** (2 * n)) / (1 - q ** 2)


def brace_fact(n, q):
    """{n}_{q^2}! = {1}_{q^2} ... {n}_{q^2}."""
    assert n >= 0
    result = 1
    for k in range(1, n + 1):
        result = result * brace_int(k, q)
    return result


def q_poch(a, q, n):
    """(a; q)_n = (1-a)(1-aq)...(1-aq^{n-1}); n may be INF (float backend)."""
    if n is INF:
        if is_exact(q) or abs(to_mpf(q)) >= 1:
            if is_exact(q):
                raise DomainError("infinite q-Pochhammer needs the float backend")
            raise DomainError("infinite q-Pochhammer needs |q| < 1")
        a, q = to_mpf(a), to_mpf(q)
        result = mpmath.mpf(1)
        eps = mpmath.mpf(10) ** (-mpmath.mp.dps - 5)
        power = mpmath.mpf(1)
        for _ in range(_SERIES_CAP):
            factor = 1 - a * power
            result *= factor
            power *= q
            if abs(a * power) < eps:
                return result
        raise NonTerminatingError("infinite q-Pochhammer did not converge")
    assert n >= 0 and isinstance(n, int)
    result = 1
    for k in range(n):
        result = result * (1 - a * q ** k)
    return result


def q_poch_ratio(a, q, shift1, shift2):
    """(a q^{shift1}; q)_inf / (a q^{shift2}; q)_inf as a finite product.

    Valid for integer shifts; exact backend allowed since the infinite tails
    cancel.
    """
    assert isinstance(shift1, int) and isinstance(shift2, int)
    if shift1 <= shift2:
        result = 1
        for k in range(shift1, shift2):
            result = result * (1 - a * q ** k)
        return result
    return _div(1, q_poch_ratio(a, q, shift2, shift1))


def _is_zero_factor(value, exact):
    if exact:
        return value == 0
    return abs(value) < mpmath.mpf(10) ** (-mpmath.mp.dps // 2)


def _phi_series(nums, dens, q, z):
    """Terminating sum_k (prod (a;q)_k / prod (b;q)_k) z^k / (q;q)_k."""
    _check_q(q)
    exact = is_exact(q)
    term = 1
    total = term
    k = 0
    while True:
        # factor picked up when passing from term k to term k+1
        num = 1
        terminated = False
        for a in nums:
            f = 1 - a * q ** k
            if _is_zero_factor(f, exact):
                terminated = True
            num = num * f
        if terminated:
            return total
        den = (1 - q ** (k + 1))
        for b in dens:
            f = 1 - b * q ** k
            if _is_zero_factor(f, exact):
                raise DomainError("lower parameter truncates before the series terminates")
            den = den * f
        term = term * num * z / den
        total = total + term
        k += 1
        if k > _TERM_CAP:
            raise NonTerminatingError("series has no q^{-m} numerator parameter")


def phi10(a, q, z):
    """1phi0(a; -; q, z), terminating: a = q^{-m}."""
    return _phi_series([a], [], q, z)


def phi21(a, b, c, q, z):
    """2phi1(a, b; c; q, z), terminating."""
    return _phi_series([a, b], [c], q, z)


def phi32(a1, a2, a3, b1, b2, q, z):
    """3phi2(a1, a2, a3; b1, b2; q, z), terminating."""
    return _phi_series([a1, a2, a3], [b1, b2], q, z)


def q_krawtchouk(n, x, p, c, q):
    """K_n(q^{-x}; p, c; q) = 2phi1(q^{-x}, q^{-n}; q^{-c}; q, p q^{n+1})."""
    if not 0 <= n <= c:
        raise DomainError("q-Krawtchouk degree n=%s outside 0..c=%s" % (n, c))
    if not 0 <= x <= c:
        raise DomainError("q-Krawtchouk argument x=%s outside 0..c=%s" % (x, c))
    return phi21(q ** (-x), q ** (-n), q ** (-c), q, p * q ** (n + 1))


def q_krawtchouk_norm(n, p, c, q):
    """Squared norm in the orthogonality relation of the q-Krawtchouk family."""
    return ((-1) ** n * p ** c * q_poch(q, q, c - n) * q_poch(q, q, n)
            * q_poch(p * q, q, n) / q_poch(q, q, c) ** 2
            * q ** (math.comb(c + 1, 2) - math.comb(n + 1, 2) + c * n))


def q_krawtchouk_weight(x, p, c, q):
    """Orthogonality weight at the point x."""
    return _div(q_poch(p * q, q, c - x) * (-1) ** (c - x),
                q_poch(q, q, x) * q_poch(q, q, c - x)) * q ** math.comb(x, 2)


def q_exp_e(z, q):
    """e_q(z) = sum z^n/(q;q)_n = 1/(z;q)_inf for |z| < 1 (float backend)."""
    z, q = to_mpf(z), to_mpf(q)
    _check_q(q)
    if abs(z) >= 1:
        raise DomainError("e_q(z) needs |z| < 1")
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps - 5)
    term = mpmath.mpf(1)
    total = term
    for n in range(1, _SERIES_CAP + 1):
        term = term * z / (1 - q ** n)
        total += term
        if abs(term) < eps:
            return total
    raise NonTerminatingError("q_exp_e truncation cap reached")


def q_exp_E(z, q):
    """E_q(z) = sum q^{n(n-1)/2} z^n/(q;q)_n = (-z; q)_inf (float backend)."""
    z, q = to_mpf(z), to_mpf(q)
    _check_q(q)
    if abs(q) >= 1:
        raise DomainError("E_q(z) series needs |q| < 1")
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps - 5)
    term = mpmath.mpf(1)
    total = term
    for n in range(1, _SERIES_CAP + 1):
        term = term * z * q ** (n - 1) / (1 - q ** n)
        total += term
        if abs(term) < eps:
            return total
    raise NonTerminatingError("q_exp_E truncation cap reached")
