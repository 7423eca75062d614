"""Quantum-group matrix engine behind the exclusion generators.

Builds the weight-basis matrices of the rank-n q-deformed gl algebra on the
finite modules V_m^(n) and on their tensor products over a chain: the ladder
generators and their coproducts, the weight diagonals, the Casimir, the
*-structure and inner product, the diagonal ground-state transform,
nilpotent q-exponentials, and the unitary symmetry built from them.  A
module V_m is the one-site chain `TensorBasis(n, (m,))`.  Every operator
comes from one ladder move (`_ladder`, applied site by site in
`_coproduct`), every root vector from one nested q-commutator recursion,
and every diagonal rescaling goes through `SparseMatrix.scaled`.  The
bridge functions at the bottom translate tensor-basis states to lattice
configurations (slot i = species i for i < n, slot n = holes) and assemble
the matching Markov generator with the models module's loop; the
conjugation and duality checks run against it.

Every matrix taken or returned is a `qmdual.ops.SparseMatrix` over exact
scalars unless stated otherwise: each ladder factor shifts the weight by a
known amount, so the operators stay sparse through every product.  Entry
(r, c) is the coefficient of basis vector r in the image of basis vector c.
Each entry point checks q with `scalars.check_q`.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from math import comb, prod

from . import lattice, models
from .errors import DomainError, ResourceError
from .ops import SparseMatrix
from .qcalc import brace_fact, q_int
from .scalars import check_q, exact, ints

TENSOR_DIM_CAP = 10_000


# ---------------------------------------------------------------------------
# bases


class TensorBasis:
    """Weight basis of the chain V_{theta^1} (x) ... (x) V_{theta^L} of
    rank-n modules; a module V_m is the one-site chain TensorBasis(n, (m,)).

    The basis of V_m is the (n+1)-tuples of nonnegative ints summing to m,
    in descending lexicographic order (`lattice.compositions`).  States are
    L-tuples of these, ordered as itertools.product over the sites, which
    is the kron index order.
    """

    __slots__ = ("n", "theta", "states", "index")

    def __init__(self, n, theta):
        (n,), theta = ints((n,), "rank", 1), ints(theta, "capacities", 1)
        if not theta:
            raise DomainError("a chain needs at least one site")
        dim = prod(comb(m + n, n) for m in theta)
        if dim > TENSOR_DIM_CAP:
            raise ResourceError("tensor dimension %d exceeds cap %d"
                                % (dim, TENSOR_DIM_CAP))
        self.n = n
        self.theta = theta
        self.states = tuple(itertools.product(
            *(lattice.compositions(m, (m,) * (n + 1)) for m in theta)))
        self.index = {st: k for k, st in enumerate(self.states)}

    @property
    def L(self):
        return len(self.theta)

    def __len__(self):
        return len(self.states)

    def sector_key(self, state):
        return tuple(sum(mu[i] for mu in state) for i in range(self.n + 1))

    def sectors(self):
        """Map sector key -> list of state indices, in enumeration order."""
        groups = {}
        for k, st in enumerate(self.states):
            groups.setdefault(self.sector_key(st), []).append(k)
        return groups

    def __repr__(self):
        return "TensorBasis(n=%d, theta=%s, dim=%d)" % (
            self.n, self.theta, len(self))


# ---------------------------------------------------------------------------
# generators on a chain


def _check_ladder(kind, i, n):
    """The ladder index i as an int, checked against kind and rank n."""
    (i,) = ints((i,), "ladder index")
    if kind not in ("raise", "lower"):
        raise DomainError("no ladder kind %r" % (kind,))
    if not 0 <= i < n:
        raise DomainError("ladder index %r out of range for rank %d" % (i, n))
    return i


def _ladder(kind, i, mu, q):
    """(image, coefficient) of the weight vector mu under one ladder
    generator, or None where it vanishes."""
    src, dst = (i + 1, i) if kind == "raise" else (i, i + 1)
    if not mu[src]:
        return None
    tgt = list(mu)
    tgt[src] -= 1
    tgt[dst] += 1
    return tuple(tgt), q_int(mu[src], q)


def _coproduct(kind, i, basis, q, window=None):
    """Sparse coproduct_apply on the sites lo <= x < hi of window = (lo, hi)
    (default: every site), identity on the others.  The ladder acts on site
    x, times q^{+-sum_y (mu_i^y - mu_{i+1}^y)} over the window sites y on
    the K side (y < x with + for raise, y > x with - for lower).  Each
    site composition's move and each power of q are formed once a call."""
    i = _check_ladder(kind, i, basis.n)
    states, index = basis.states, basis.index
    lo, hi = window or (0, basis.L)
    sign = 1 if kind == "raise" else -1
    moves = {mu: _ladder(kind, i, mu, q)
             for mu in {mu for st in states for mu in st[lo:hi]}}
    powers, out = {}, {}
    for c, st in enumerate(states):
        diffs = [mu[i] - mu[i + 1] for mu in st]
        for x in range(lo, hi):
            move = moves[st[x]]
            if move:
                e = sign * sum(diffs[lo:x] if kind == "raise" else diffs[x + 1:hi])
                if e not in powers:
                    powers[e] = q ** e
                r = index[st[:x] + (move[0],) + st[x + 1:]]
                out.setdefault(r, {})[c] = powers[e] * move[1]
    return SparseMatrix(out, (len(states), len(states)))


def _weight(i, basis, q, window=None):
    """Diagonal entries q^{sum_x mu_i^x} over the window sites x."""
    lo, hi = window or (0, None)
    return [q ** sum(mu[i] for mu in st[lo:hi]) for st in basis.states]


def coproduct_apply(kind, i, basis, q):
    """The iterated coproduct of one ladder generator on a chain; on a
    one-site chain, the generator itself.

    kind "raise" moves one unit from slot i+1 to slot i, coefficient
    [mu_{i+1}]_q; kind "lower" moves one from slot i to i+1, coefficient
    [mu_i]_q.  Raise is the sum over sites x of (K_i K_{i+1}^{-1}) on sites
    y<x, the raise matrix at x, identity on y>x; lower is identity left,
    lower at x, (K_i^{-1} K_{i+1}) right.  The weight diagonals are
    `weight_matrix`.
    """
    return _coproduct(kind, i, basis, check_q(q))


def weight_matrix(i, basis, q):
    """Diagonal K_i = q^{sum_x mu_i^x} over the sites x; K_i^{-1} is
    weight_matrix(i, basis, 1 / q)."""
    return SparseMatrix.diag(_weight(i, basis, check_q(q)))


def _ladders(basis, q, window=None):
    """The adjacent root vectors by slot pair: (a, a+1) raises, (a+1, a)
    lowers."""
    out = {}
    for a in range(basis.n):
        out[a, a + 1] = _coproduct("raise", a, basis, q, window)
        out[a + 1, a] = _coproduct("lower", a, basis, q, window)
    return out


def _nested_root(i, j, ladders, q):
    """E_{ij} by the nested q-commutator E_{ij} = E_{ik}E_{kj} - q^{-1}
    E_{kj}E_{ik}, from the adjacent ones in `_ladders`, with k the neighbor
    of i toward j."""
    if abs(i - j) == 1:
        return ladders[i, j]
    k = i + 1 if i < j else i - 1
    A = _nested_root(i, k, ladders, q)
    B = _nested_root(k, j, ladders, q)
    return A @ B + (-1 / q) * (B @ A)


def root_vector(i, j, basis, q):
    """Off-diagonal algebra element E_{ij} via the nested q-commutator
    through the slots between i and j, taken from i's side.  Any other
    chain of intermediates gives the same element."""
    i, j = ints((i, j), "root vector slots")
    if not (0 <= i <= basis.n and 0 <= j <= basis.n and i != j):
        raise DomainError("no root vector E_{%d%d} at rank %d"
                          % (i, j, basis.n))
    q = check_q(q)
    return _nested_root(i, j, _ladders(basis, q), q)


# ---------------------------------------------------------------------------
# Casimir


def _casimir(basis, q, window=None):
    """First-order Casimir of the window sites (default: every site),
    identity elsewhere: sum_i q^{2i-2n-1} K_i^2 plus (q - q^{-1})^2 times
    sum_{i<j} q^{2j-2n-2} K_i K_j E_{ij} E_{ji}, on the window coproducts."""
    n = basis.n
    ladders = _ladders(basis, q, window)
    K = [_weight(i, basis, q, window=window) for i in range(n + 1)]
    C = SparseMatrix.diag(
        [sum(q ** (2 * i - 2 * n - 1) * k[i] ** 2 for i in range(n + 1))
         for k in zip(*K)])
    coeff = (q - 1 / q) ** 2
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            P = _nested_root(i, j, ladders, q) @ _nested_root(j, i, ladders, q)
            scale = [coeff * q ** (2 * j - 2 * n - 2) * a * b
                     for a, b in zip(K[i], K[j])]
            C = C + P.scaled(scale, None)
    return C


def casimir_c1(basis, q):
    """Casimir matrix: the SUM of bond-embedded two-site coproduct Casimirs
    on a chain of two or more sites, and the module's Casimir, a scalar, on
    one site.

    The bond sum is the operative chain element: the full iterated coproduct
    of the Casimir is not nearest-neighbor, while each bond embedding is, and
    the sum still commutes with every iterated-coproduct generator.
    """
    q = check_q(q)
    bonds = [_casimir(basis, q, (x, x + 2)) for x in range(basis.L - 1)]
    return sum(bonds[1:], bonds[0]) if bonds else _casimir(basis, q)


def bond_casimir(tbasis, x, q):
    """Two-site coproduct Casimir on legs (x, x+1) of tbasis, identity
    elsewhere; legs count from 0, while `lattice` numbers sites from 1."""
    (x,) = ints((x,), "bond leg")
    if not 0 <= x < tbasis.L - 1:
        raise DomainError("no bond (%r, %r) on %d sites" % (x, x + 1, tbasis.L))
    return _casimir(tbasis, check_q(q), (x, x + 2))


# ---------------------------------------------------------------------------
# inner product and *-structure


def _site_weight(mu, q):
    val = q ** (-sum(i * c for i, c in enumerate(mu)))
    for c in mu:
        val = val * brace_fact(c, q)
    return val


def inner_product(basis, q):
    """Diagonal inner-product weights <v, v> per basis vector.

    Radical-free normalization: per site q^{-sum_i i*mu_i} times the product
    of curly factorials; this differs from the q^{sum mu_i^2 / 2} form by a
    constant factor per module, which drops out of every adjointness and
    star computation.  Each site composition's weight is formed once.
    """
    q = check_q(q)
    sites = {mu: _site_weight(mu, q) for mu in {mu for st in basis.states
                                                for mu in st}}
    out = [prod((sites[mu] for mu in st), start=Fraction(1))
           for st in basis.states]
    if not all(v > 0 for v in out):
        raise DomainError("inner product at q=%r is not positive definite" % (q,))
    return out


def star_transform(M, basis, q):
    """Matrix of the *-image: weighted transpose w.r.t. the inner product,
    star(M)[r, c] = M[c, r] w_c / w_r."""
    w = inner_product(basis, q)
    if M.shape != (len(w), len(w)):
        raise DomainError("matrix %s does not match the basis" % (M.shape,))
    return conjugate_diag(w, M.T)


# ---------------------------------------------------------------------------
# ground-state transform


def inversion_exponent(state):
    """Number of ordered slot pairs i<j with the slot-i unit left of the
    slot-j unit: sum over site pairs y<x of mu_i^y mu_j^x."""
    expo, left = 0, [0] * len(state[0])  # each slot's units left of the site
    for mu in state:
        expo += sum(c * b for c, b in zip(mu[1:], itertools.accumulate(left)))
        left = [b + c for b, c in zip(left, mu)]
    return expo


def ground_state_G(tbasis, q):
    """Diagonal entries of the gauge that turns the chain Casimir into the
    exclusion generator: g(state) = q^{-inversion_exponent(state)}.

    Normalized so the cross-site exponent carries everything; any per-sector
    constant would cancel in the conjugation.  Returns a list aligned with
    tbasis.states; entries are exact for exact q.
    """
    q = check_q(q)
    return [q ** (-inversion_exponent(st)) for st in tbasis.states]


def conjugate_diag(g, M):
    """diag(g)^-1 M diag(g) entrywise."""
    return M.scaled([1 / x for x in g], g)


# ---------------------------------------------------------------------------
# nilpotent q-exponentials


def nilpotent_q_exp(M, qsq, variant="e"):
    """Finite q-exponential of a nilpotent matrix, base qsq.

    variant "e": sum_k M^k / ((qsq;qsq)_k normalization written as the
    running product of (1 - qsq^j)); variant "E" carries the extra
    qsq^{k(k-1)/2}.  The series stops at the first power of M with no
    stored entry.  An N x N nilpotent M has M^N = 0, so a power that is
    still nonzero past N raises `DomainError`.
    """
    if variant not in ("e", "E"):
        raise DomainError("no q-exponential variant %r" % (variant,))
    qsq = check_q(qsq)
    N = M.shape[0]
    if M.shape != (N, N):
        raise DomainError("matrix %s is not square" % (M.shape,))
    total, term, denom = SparseMatrix.diag([Fraction(1)] * N), M, 1
    for k in range(1, N + 2):  # term = M^k
        if not term.rows:
            return total
        denom = denom * (1 - qsq ** k)
        w = (qsq ** (k * (k - 1) // 2) if variant == "E" else 1) / denom
        total = total + w * term
        term = term @ M
    raise DomainError("matrix is not nilpotent")


# ---------------------------------------------------------------------------
# the unitary symmetry


def gamma_from_lambda(lam, q):
    """Invert lambda = gamma (1-q^2)(q - q^{-1})."""
    q = check_q(q)
    return exact(lam, "lambda") / ((1 - q ** 2) * (q - 1 / q))


def unitary_U(i, lam, tbasis, q):
    """Unitary symmetry for species slot pair (i, i+1) at coupling lam.

    The exact core product e_{q^2}(lam * M_lower K_i)
    E_{q^2}(-lam * K_{i+1} M_raise) on the chain coproduct matrices.  It is
    unitary against the inner product twisted by the Pochhammer diagonals
    of `unitarity_twist`, which is what the half-power factors of the fully
    unitary form square to; those infinite products lie outside Q(s).
    """
    # F K_i and K_{i+1} E: the lower and raise coproducts with their columns
    # and rows scaled by the weight diagonals
    i = _check_ladder("raise", i, tbasis.n)
    q = check_q(q)
    N = len(tbasis)
    k_i, k_next = (_weight(j, tbasis, q) for j in (i, i + 1))
    MF = coproduct_apply("lower", i, tbasis, q).scaled([lam] * N, k_i)
    ME = coproduct_apply("raise", i, tbasis, q).scaled(
        [-lam * k for k in k_next], None)
    return nilpotent_q_exp(MF, q ** 2, "e") @ nilpotent_q_exp(ME, q ** 2, "E")


def unitarity_twist(i, lam, tbasis, q):
    """Pochhammer diagonals (start, end) that make the core U exactly
    unitary: star(U) diag(start) U = diag(end), with the base point
    z = -gamma * lam and gamma = `gamma_from_lambda(lam, q)`.  The values
    (z; q^2)_m are running products over m, up to the total capacity."""
    i = _check_ladder("raise", i, tbasis.n)
    q = check_q(q)
    z = -gamma_from_lambda(lam, q) * lam
    poch = [1]
    for k in range(sum(tbasis.theta)):
        poch.append(poch[-1] * (1 - z * (q ** 2) ** k))
    return tuple([poch[sum(mu[j] for mu in st)] for st in tbasis.states]
                 for j in (i, i + 1))


# ---------------------------------------------------------------------------
# lattice bridges


def state_config(state, theta):
    """Tensor-basis state -> capacity-mode configuration; slot i is species
    row i (i < n), slot n is the hole row."""
    rows = [[mu[i] for mu in state] for i in range(len(state[0]))]
    return lattice.Config(rows, theta=tuple(theta))


def chain_generator(tbasis, q):
    """Exclusion generator on the full tensor basis (column convention), from
    the models module's assembly loop over the states' configurations."""
    basis = [state_config(st, tbasis.theta) for st in tbasis.states]
    return models.assemble(basis, models.asep_moves(q)).entries


def reversible_vector(tbasis, q):
    """Reversible-measure weights per tensor state (sector-wise measure)."""
    return [models.reversible_measure(state_config(st, tbasis.theta), q)
            for st in tbasis.states]


# ---------------------------------------------------------------------------
# algebraic duality


def duality_lambda(a, theta, q, shift=0):
    """Coupling for one species: a (1-q^2) q^{-(N(theta)-shift)}, with
    a = sqrt(alpha) the species coupling of `duality.DualityParams` and
    N(theta) the total capacity; exact at rational a and q.  A float
    coupling or a <= 0 raises `DomainError`, as in `DualityParams`, and so
    does a capacity or shift that is not an int."""
    q = check_q(q)
    theta, (shift,) = ints(theta, "capacities"), ints((shift,), "shift")
    if not exact(a, "a") > 0:
        raise DomainError("species coupling a=%r must be positive" % (a,))
    return a * (1 - q ** 2) * q ** (-(sum(theta) - shift))


class AlgebraicDuality(namedtuple("AlgebraicDuality", [
        "tbasis", "entries", "lambdas", "left_weight", "right_weight"])):
    """Duality matrix assembled from the unitary symmetry, plus the exact
    diagonal weights of its orthogonality identity."""

    __slots__ = ()


def algebraic_duality(lambdas, tbasis, q):
    """Duality matrix D = diag(1/(g mu)) U_{n-1} ... U_0 diag(g), with U_i
    the per-species unitaries, g the ground-state gauge and mu the
    reversible measure.  diag(g) scales the columns of U_0 and
    diag(1/(g mu)) the rows of U_{n-1} (the same factor at n = 1) before
    the products, so no diagonal meets the product itself.

    Satisfies L^T D = D L exactly, and the orthogonality identity
    D^T diag(left_weight) D = diag(right_weight) with the returned exact
    diagonals (mu times sector constants times the unitarity Pochhammers).
    For any sector-constant positive diagonal A, diag(A) D diag(A) is a
    duality too, with weights left_weight / A^2 and right_weight * A^2.
    """
    n, q = tbasis.n, check_q(q)
    lambdas = list(lambdas)
    if len(lambdas) != n:
        raise DomainError("need one coupling per species, got %d for %d"
                          % (len(lambdas), n))
    N = len(tbasis)
    g = ground_state_G(tbasis, q)
    mu = reversible_vector(tbasis, q)
    # D = diag(row)^-1 M_U diag(g); the orthogonality weights are the
    # squares of these scalings times the inner product and the twists
    row = [g[k] * mu[k] for k in range(N)]
    w = inner_product(tbasis, q)
    left = [row[k] ** 2 * w[k] for k in range(N)]
    right = [g[k] ** 2 * w[k] for k in range(N)]
    inv_row = [1 / x for x in row]
    for i, lam in enumerate(lambdas):
        U = unitary_U(i, lam, tbasis, q)
        if i in (0, n - 1):
            U = U.scaled(inv_row if i == n - 1 else None, g if i == 0 else None)
        D = U @ D if i else U
        start, end = unitarity_twist(i, lam, tbasis, q)
        left = [a * b for a, b in zip(left, start)]
        right = [a * b for a, b in zip(right, end)]
    return AlgebraicDuality(tbasis, D, tuple(lambdas), left, right)
