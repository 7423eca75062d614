"""q-deformed integers and factorials, q-Pochhammers, terminating basic
hypergeometric series and q-Krawtchouk polynomials.

Arithmetic is exact: pass every scalar as an int, Fraction or SNum.  The
helpers of `scalars` check every argument: a float q, Pochhammer base a or
series argument z raises `DomainError` in every function whose value
depends on it, an int q becomes a Fraction where its negative powers would
be floats, and an index, degree or length that is not an integer raises
instead of being truncated.  A terminating series takes its degree m as an int and
sums exactly the terms k = 0..m; no value is tested against a tolerance to
find where it ends.

Which q each function takes: `q_int`, `q_fact`, `q_binom`, `brace_int` and
`brace_fact` take a rational q = a/b only (`scalars.rational_q`; an SNum q
raises `DomainError`).  All five form their value from a and b as int
products, [n]_q! in `_fact_parts` alone (`brace_fact` times a power of q),
and build one Fraction per call.  The Pochhammers, `qq_binom`, the series
and `q_krawtchouk` take any exact q.
"""

from fractions import Fraction

from .errors import DomainError
from .scalars import check_q, div, exact, ints, lift_int, rational_q


def _fact_parts(lo, hi, q):
    """[hi]_q! / [lo]_q!, 0 <= lo <= hi, as an int pair (num, den) at a
    rational q = a/b: [j]_q = (a^{2j} - b^{2j}) / ((ab)^{j-1} (a^2 - b^2))."""
    a, b, num = q.numerator, q.denominator, 1
    for j in range(lo + 1, hi + 1):
        num *= a ** (2 * j) - b ** (2 * j)
    return num, ((a * b) ** ((hi * (hi - 1) - lo * (lo - 1)) // 2)
                 * (a * a - b * b) ** (hi - lo))


def q_int(n, q):
    """[n]_q = (q^n - q^-n)/(q - q^-1) for an int n, negative ones included."""
    (n,), q = ints((n,), "q-integer index"), rational_q(q)
    num, den = _fact_parts(abs(n) - 1, abs(n), q) if n else (0, 1)
    return Fraction(num if n > 0 else -num, den)  # [-n]_q = -[n]_q


def q_fact(n, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q, the int 1 for n = 0."""
    (n,), q = ints((n,), "degree", 0), rational_q(q)
    return Fraction(*_fact_parts(0, n, q)) if n else 1


def q_binom(n, k, q):
    """Gaussian binomial; 0 outside 0 <= k <= n (infeasible configurations)."""
    (n,), (k,) = ints((n,), "degree", 0), ints((k,), "Gaussian binomial index")
    q = rational_q(q)
    if k < 0 or k > n:
        return 0
    (num, den), (knum, kden) = _fact_parts(n - k, n, q), _fact_parts(0, k, q)
    return Fraction(num * kden, den * knum)


def qq_binom(n, k, q):
    """Gaussian binomial in the (q;q)-product normalization; 0 outside range.

    (q;q)_n / ((q;q)_k (q;q)_{n-k}); differs from q_binom by q^{k(n-k)}
    after q -> q^2.  Transition-kernel weights need this normalization,
    the measures need the symmetric one.
    """
    (n,) = ints((n,), "degree", 0)
    if k < 0 or k > n:
        return 0
    return div(q_poch(q, q, n), q_poch(q, q, k) * q_poch(q, q, n - k))


def brace_int(n, q):
    """{n}_{q^2} = (1 - q^{2n})/(1 - q^2) for an int n, negative ones included."""
    (n,), q = ints((n,), "brace-integer index"), rational_q(q)
    a, b = q.numerator, q.denominator
    u, v = (a, b) if n >= 0 else (b, a)  # q^{2n} = u^{2|n|} / v^{2|n|}
    u, v = u ** (2 * abs(n)), v ** (2 * abs(n))
    return Fraction((v - u) * b * b, v * (b * b - a * a))


def brace_fact(n, q):
    """{n}_{q^2}! = {1}_{q^2} ... {n}_{q^2} = q^{n(n-1)/2} [n]_q!, the int 1
    for n = 0."""
    (n,), q = ints((n,), "degree", 0), rational_q(q)
    if not n:
        return 1
    (num, den), m = _fact_parts(0, n, q), n * (n - 1) // 2
    return Fraction(num * q.numerator ** m, den * q.denominator ** m)


def q_poch(a, q, n):
    """(a; q)_n = (1-a)(1-aq)...(1-aq^{n-1}) for an int n >= 0.  The
    library needs (a; q)_inf only in ratios, which `q_poch_ratio` forms
    exactly."""
    (n,) = ints((n,), "q-Pochhammer length", 0)
    q, a = exact(q), exact(a, "a")  # (a; 1)_n is defined
    result = 1
    for k in range(n):
        result = result * (1 - a * q ** k)
    return result


def q_poch_ratio(a, q, shift1, shift2):
    """(a q^{shift1}; q)_inf / (a q^{shift2}; q)_inf as a finite product.

    Valid for int shifts, negative ones included, since the infinite tails
    cancel; an int q becomes a Fraction, so that q ** shift stays exact.
    """
    shift1, shift2 = ints((shift1, shift2), "q-Pochhammer ratio shifts")
    q = lift_int(exact(q))
    if shift1 <= shift2:
        return q_poch(a * q ** shift1, q, shift2 - shift1)
    return div(1, q_poch_ratio(a, q, shift2, shift1))


def _phi_series(m, nums, dens, q, z):
    """sum_{k=0}^{m} (prod (a;q)_k / prod (b;q)_k) z^k / (q;q)_k."""
    exact(z, "z")
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
    (m,), q = ints((m,), "1phi0 degree", 0), check_q(q)
    return _phi_series(m, [q ** (-m)], [], q, z)


def q_krawtchouk(n, x, p, c, q):
    """K_n(q^{-x}; p, c; q) = 2phi1(q^{-x}, q^{-n}; q^{-c}; q, p q^{n+1}),
    a series of degree min(n, x); n, x and c are ints."""
    n, x, c = ints((n, x, c), "q-Krawtchouk n, x, c", 0)
    if n > c or x > c:
        raise DomainError("q-Krawtchouk n=%s, x=%s outside 0..c=%s" % (n, x, c))
    q = check_q(q)
    return _phi_series(min(n, x), [q ** (-x), q ** (-n)], [q ** (-c)], q,
                       p * q ** (n + 1))
