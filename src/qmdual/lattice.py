"""Particle configurations on a finite chain.

Two storage modes share one type:

* capacity mode: species 0..n-1 plus a hole row n, with per-site capacities
  theta^x and column sums equal to theta^x;
* zero-range mode (theta is None): species rows 0..n-1 only, unbounded
  per-site counts.

`Config` is a validated named tuple like `Sector`: its constructor checks
the grid, and `Config._unchecked` is the one trusted constructor, for parts
already known to be valid.  Sites are 1-indexed in the public API to match
the usual chain notation.
`intermediate_configs` gives the forced rows of the nested exclusion duality
and is the one place that decides whether a pair of configurations is feasible.
"""

import operator
from collections import namedtuple

from .errors import DomainError, ResourceError
from .scalars import ints

SECTOR_CAP = 200_000


class Config(namedtuple("Config", ["counts", "theta", "n", "L"])):
    """Particle configuration: counts a species-major grid, n species, L sites."""

    __slots__ = ()

    def __new__(cls, counts, theta=None):
        counts = tuple(ints(row, "counts", 0) for row in counts)
        if not counts or any(len(row) != len(counts[0]) for row in counts):
            raise DomainError("counts must be a nonempty rectangular grid")
        n = len(counts)
        if theta is not None:
            theta, n = ints(theta, "capacities", 0), n - 1
            if n < 1:
                raise DomainError("capacity mode needs a hole row")
            columns = tuple(map(sum, zip(*counts)))
            if columns != theta:
                raise DomainError("site totals %s do not fill capacities %s"
                                  % (columns, theta))
        return cls._unchecked(counts, theta, n)

    @classmethod
    def _unchecked(cls, counts, theta, n):
        """A Config from parts already known to be valid: counts a
        rectangular tuple of int tuples that satisfies theta as `__new__`
        requires, and n its species count."""
        return tuple.__new__(cls, (counts, theta, n, len(counts[0])))

    def __getnewargs__(self):  # pickle and copy go through __new__
        return self.counts, self.theta

    @classmethod
    def capacity(cls, species_counts, theta):
        """Build from species rows 0..n-1 only; the hole row is derived."""
        species_counts = [ints(row, "counts", 0) for row in species_counts]
        theta = ints(theta, "capacities", 0)
        holes = tuple(t - sum(row[x] for row in species_counts)
                      for x, t in enumerate(theta))
        if any(h < 0 for h in holes):
            raise DomainError("species counts exceed capacity")
        return cls(species_counts + [holes], theta=theta)

    @property
    def is_zero_range(self):
        return self.theta is None

    @property
    def rows(self):
        """Number of stored rows: n+1 with capacities, n without."""
        return len(self.counts)

    def site(self, x):
        if not 1 <= x <= self.L:
            raise IndexError("site %r outside 1..%d" % (x, self.L))
        return tuple(row[x - 1] for row in self.counts)


class Sector(namedtuple("Sector", ["k", "theta"])):
    """Conserved species counts k = (k_0..k_n) on capacities theta."""

    __slots__ = ()

    def __new__(cls, k, theta):
        k, theta = ints(k, "sector counts", 0), ints(theta, "capacities", 0)
        if len(k) < 2:
            raise DomainError("a sector needs counts for at least one species "
                              "and the holes; got %s" % (k,))
        if sum(k) != sum(theta):
            raise DomainError("sector counts %s do not fill capacities %s"
                              % (k, theta))
        return super().__new__(cls, k, theta)

    @property
    def n(self):
        return len(self.k) - 1


def compositions(total, bounds):
    """The tuples c with sum(c) == total and 0 <= c[i] <= bounds[i], in
    descending lexicographic order; bounds is a nonempty tuple."""
    rest = bounds[1:]
    if not rest:
        if 0 <= total <= bounds[0]:
            yield (total,)
        return
    low = max(total - sum(rest), 0)
    for head in range(min(total, bounds[0]), low - 1, -1):
        for tail in compositions(total - head, rest):
            yield (head,) + tail


def _site_walk(sector):
    """Site tuples of the sector's configurations; see `enumerate_sector`."""
    k, layers, reach = sector.k, [], {sector.k: 1}
    for t in sector.theta:  # forward: each state's moves and prefix count
        steps, ahead, prefixes = {}, {}, 0
        for rem, count in reach.items():
            moves = steps[rem] = []
            for c in compositions(t, rem):
                after = tuple(map(operator.sub, rem, c))
                moves.append((c, after))
                ahead[after] = ahead.get(after, 0) + count
                prefixes += count  # each prefix completes: a lower bound
                if prefixes > SECTOR_CAP:
                    raise ResourceError("sector over %d configs" % SECTOR_CAP)
        layers.append(steps)
        reach = ahead
    if reach[(0,) * len(k)] > SECTOR_CAP:  # the empty chain's one config
        raise ResourceError("sector over %d configs" % SECTOR_CAP)
    suffixes = {(0,) * len(k): [()]}
    for steps in reversed(layers):  # backward: each state's suffixes once
        suffixes = {rem: [(c,) + tail for c, after in moves
                          for tail in suffixes.get(after, ())]
                    for rem, moves in steps.items()}
    return suffixes.get(k, [])


def enumerate_sector(sector):
    """All configurations with the sector's species counts, in a fixed order.

    Order: descending lexicographic on the site-major species key
    (site 1 species 0, site 1 species 1, ..., site 2 species 0, ...),
    holes excluded.  This reproduces the printed 4x4 example basis.  The
    walk builds each (site, remaining counts) state's suffixes once.  It
    counts prefixes, each of which completes, as it draws site moves, so
    more than `SECTOR_CAP` configurations raise `ResourceError` within
    about `SECTOR_CAP` moves a site and before any is built.
    """
    theta, nsp = sector.theta, len(sector.k) - 1
    # the site compositions fill their capacities, so the grid needs no
    # validation; an empty chain has nsp + 1 empty rows
    return [Config._unchecked(tuple(zip(*sites)) or ((),) * (nsp + 1),
                              theta, nsp) for sites in _site_walk(sector)]


def enumerate_zrp_sector(counts, L):
    """All zero-range configurations with the given per-species totals, in
    `enumerate_sector`'s order and from its walk, over capacity N =
    sum(counts) at every site: such a site takes any load.  Each site's
    hole entry is dropped.  More than `SECTOR_CAP` configurations raise
    `ResourceError` before any is built."""
    counts, (L,) = ints(counts, "zero-range counts", 0), ints((L,), "L", 1)
    N, nsp = sum(counts), len(counts)
    sector = Sector(counts + ((L - 1) * N,), (N,) * L)
    return [Config._unchecked(tuple(zip(*sites))[:nsp], None, nsp)
            for sites in _site_walk(sector)]


Intermediate = namedtuple("Intermediate", ["i", "row", "theta"])
# row: the forced row zeta^{(i)}_i; theta: its capacities theta^{(i)}.  On a pair
# that is not refused, 0 <= row <= theta and xi_i <= theta at every site.


def intermediate_configs(xi, eta):
    """The forced rows zeta^{(i)}_i of the nested configurations, or None.

    zeta^{(i)} takes xi_k for k < i and eta_k for k > i, and its row
    zeta^{(i)}_i = eta_{[0,i]} - xi_{[0,i-1]} lies on the capacities
    theta^{(i)} = zeta^{(i)}_i + eta_{i+1}.  A negative forced entry marks the
    pair infeasible (duality value 0) and gives None, not an error.
    Otherwise every intermediate is in range: eta_{i+1} >= 0 gives
    zeta^{(i)}_i <= theta^{(i)}, and xi_i <= theta^{(i)} holds because
    theta^{(i)} - xi_i is the next forced row, or for i = n-1 the holes of xi.
    """
    if not (isinstance(xi, Config) and isinstance(eta, Config)):
        raise DomainError("configurations expected")
    if xi.is_zero_range or eta.is_zero_range:
        raise DomainError("intermediate configurations need capacity mode")
    if xi.theta != eta.theta or xi.n != eta.n:
        raise DomainError("configurations disagree in capacities or species count")
    result, row = [], eta.counts[0]  # zeta^{(0)}_0 = eta_0
    for i in range(xi.n):
        if min(row) < 0:
            return None
        theta = tuple(map(operator.add, row, eta.counts[i + 1]))
        result.append(Intermediate(i, row, theta))
        row = tuple(map(operator.sub, theta, xi.counts[i]))
    return result
