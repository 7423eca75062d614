"""q-deformed integers and factorials, q-Pochhammers, terminating basic
hypergeometric series and q-Krawtchouk polynomials.

Every function is generic over the scalar backend: pass q as a Fraction or
SNum for exact arithmetic, or as an mpmath float.  Constants are Python ints
so they combine with either backend.  A terminating series takes its degree
m as an int and sums exactly the terms k = 0..m; no value is tested against
a tolerance to find where it ends.
"""

from fractions import Fraction

from .errors import DegenerateQError, DomainError


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


def _check_degree(n):
    if n < 0:
        raise DomainError("negative degree %r" % (n,))


def q_fact(n, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    _check_degree(n)
    result = 1
    for k in range(1, n + 1):
        result = result * q_int(k, q)
    return result


def q_binom(n, k, q):
    """Gaussian binomial; 0 outside 0 <= k <= n (infeasible configurations)."""
    _check_degree(n)
    if k < 0 or k > n:
        return 0
    return _div(q_fact(n, q), q_fact(k, q) * q_fact(n - k, q))


def qq_binom(n, k, q):
    """Gaussian binomial in the (q;q)-product normalization; 0 outside range.

    (q;q)_n / ((q;q)_k (q;q)_{n-k}); differs from q_binom by q^{k(n-k)}
    after q -> q^2.  Transition-kernel weights need this normalization,
    the measures need the symmetric one.
    """
    _check_degree(n)
    if k < 0 or k > n:
        return 0
    return _div(q_poch(q, q, n), q_poch(q, q, k) * q_poch(q, q, n - k))


def brace_int(n, q):
    """{n}_{q^2} = (1 - q^{2n})/(1 - q^2)."""
    _check_q(q)
    return (1 - q ** (2 * n)) / (1 - q ** 2)


def brace_fact(n, q):
    """{n}_{q^2}! = {1}_{q^2} ... {n}_{q^2}."""
    _check_degree(n)
    result = 1
    for k in range(1, n + 1):
        result = result * brace_int(k, q)
    return result


def q_poch(a, q, n):
    """(a; q)_n = (1-a)(1-aq)...(1-aq^{n-1}) for an int n >= 0.  The
    library needs (a; q)_inf only in ratios, which `q_poch_ratio` forms
    exactly; the product itself is mpmath's `qp(a, q)`."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("q-Pochhammer length %r is not an int >= 0" % (n,))
    result = 1
    for k in range(n):
        result = result * (1 - a * q ** k)
    return result


def q_poch_ratio(a, q, shift1, shift2):
    """(a q^{shift1}; q)_inf / (a q^{shift2}; q)_inf as a finite product.

    Valid for integer shifts; exact backend allowed since the infinite tails
    cancel.
    """
    if not (isinstance(shift1, int) and isinstance(shift2, int)):
        raise DomainError("shifts %r, %r are not ints" % (shift1, shift2))
    if shift1 <= shift2:
        result = 1
        for k in range(shift1, shift2):
            result = result * (1 - a * q ** k)
        return result
    return _div(1, q_poch_ratio(a, q, shift2, shift1))


def _phi_series(m, nums, dens, q, z):
    """sum_{k=0}^{m} (prod (a;q)_k / prod (b;q)_k) z^k / (q;q)_k."""
    _check_q(q)
    term = total = 1
    for k in range(m):
        # factor picked up when passing from term k to term k+1
        num = 1
        for a in nums:
            num = num * (1 - a * q ** k)
        den = 1 - q ** (k + 1)
        for b in dens:
            den = den * (1 - b * q ** k)
        term = term * num * z / den
        total = total + term
    return total


def phi10(m, q, z):
    """1phi0(q^{-m}; -; q, z), the series of degree m (an int >= 0)."""
    if not isinstance(m, int) or m < 0:
        raise DomainError("1phi0 degree %r is not an int >= 0" % (m,))
    return _phi_series(m, [q ** (-m)], [], q, z)


def q_krawtchouk(n, x, p, c, q):
    """K_n(q^{-x}; p, c; q) = 2phi1(q^{-x}, q^{-n}; q^{-c}; q, p q^{n+1}),
    a series of degree min(n, x)."""
    if not 0 <= n <= c:
        raise DomainError("q-Krawtchouk degree n=%s outside 0..c=%s" % (n, c))
    if not 0 <= x <= c:
        raise DomainError("q-Krawtchouk argument x=%s outside 0..c=%s" % (x, c))
    return _phi_series(min(n, x), [q ** (-x), q ** (-n)], [q ** (-c)], q,
                       p * q ** (n + 1))
