"""Particle configurations on a finite chain.

Two storage modes share one type:

* capacity mode: species 0..n-1 plus a hole row n, with per-site capacities
  theta^x and column sums equal to theta^x;
* zero-range mode (theta is None): species rows 0..n-1 only, unbounded
  per-site counts.

Sites are 1-indexed in the public API to match the usual chain notation.
"""

import json
from collections import namedtuple

from .errors import DomainError


class ResourceError(RuntimeError):
    """A sector enumeration exceeded its configured size cap."""


class Config:
    """Immutable particle configuration; counts is a species-major grid."""

    __slots__ = ("L", "n", "counts", "theta")

    def __init__(self, counts, theta=None, n=None):
        counts = tuple(tuple(int(c) for c in row) for row in counts)
        if not counts or any(len(row) != len(counts[0]) for row in counts):
            raise DomainError("counts must be a nonempty rectangular grid")
        L = len(counts[0])
        if theta is not None:
            theta = tuple(int(t) for t in theta)
            if len(theta) != L:
                raise DomainError("%d capacities for %d sites" % (len(theta), L))
            n = len(counts) - 1
            if n < 1:
                raise DomainError("capacity mode needs a hole row")
            for x in range(L):
                col = sum(row[x] for row in counts)
                if col != theta[x] or any(row[x] < 0 for row in counts):
                    raise DomainError(
                        "site %d holds %d of capacity %d" % (x + 1, col, theta[x]))
        else:
            n = len(counts) if n is None else n
            if n != len(counts):
                raise DomainError("n=%d for %d species rows" % (n, len(counts)))
            if any(c < 0 for row in counts for c in row):
                raise DomainError("negative occupation number")
        self._fill(counts, theta, n)

    @classmethod
    def _unchecked(cls, counts, theta, n):
        """A Config from parts already known to be valid: counts a
        rectangular tuple of int tuples that satisfies theta as `__init__`
        requires, and n its species count."""
        cfg = object.__new__(cls)
        cfg._fill(counts, theta, n)
        return cfg

    def _fill(self, counts, theta, n):
        # the one writer of the slots; `__setattr__` refuses every other
        init = object.__setattr__
        init(self, "L", len(counts[0]))
        init(self, "n", n)
        init(self, "counts", counts)
        init(self, "theta", theta)

    def __setattr__(self, name, value):
        raise AttributeError("Config is immutable")

    @classmethod
    def capacity(cls, species_counts, theta):
        """Build from species rows 0..n-1 only; the hole row is derived."""
        species_counts = [tuple(int(c) for c in row) for row in species_counts]
        theta = tuple(int(t) for t in theta)
        L = len(theta)
        holes = tuple(theta[x] - sum(row[x] for row in species_counts)
                      for x in range(L))
        if any(h < 0 for h in holes):
            raise DomainError("species counts exceed capacity")
        return cls(species_counts + [holes], theta=theta)

    @classmethod
    def zero_range(cls, species_counts):
        return cls(species_counts, theta=None)

    @property
    def is_zero_range(self):
        return self.theta is None

    @property
    def rows(self):
        """Number of stored rows: n+1 with capacities, n without."""
        return len(self.counts)

    def count(self, i, x):
        """Occupation of species i at site x (1-indexed site)."""
        return self.counts[i][x - 1]

    def row(self, i):
        return self.counts[i]

    def site(self, x):
        return tuple(row[x - 1] for row in self.counts)

    def range_count(self, x, lo, hi):
        """xi^x_{[lo,hi]} = sum of species lo..hi at site x; empty range -> 0."""
        if hi < lo:
            return 0
        if lo < 0 or hi >= self.rows:
            raise DomainError("species range [%r, %r] outside 0..%d"
                              % (lo, hi, self.rows - 1))
        return sum(self.counts[k][x - 1] for k in range(lo, hi + 1))

    def __eq__(self, other):
        return (isinstance(other, Config) and self.counts == other.counts
                and self.theta == other.theta and self.n == other.n)

    def __hash__(self):
        return hash((self.counts, self.theta, self.n))

    def __repr__(self):
        return "Config(counts=%r, theta=%r)" % (self.counts, self.theta)

    def to_json(self):
        obj = {"L": self.L, "n": self.n, "counts": [list(r) for r in self.counts]}
        if self.theta is not None:
            obj["theta"] = list(self.theta)
        return obj

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        cfg = cls(obj["counts"], theta=obj.get("theta"),
                  n=obj.get("n") if obj.get("theta") is None else None)
        if cfg.L != obj["L"] or cfg.n != obj["n"]:
            raise DomainError("inconsistent header")
        return cfg


def n_left(cfg, i, x):
    """N^-_{x-1}(xi_i): particles of species i strictly left of site x."""
    return sum(cfg.counts[i][:x - 1])


def n_right(cfg, i, x):
    """N^+_{x+1}(xi_i): particles of species i strictly right of site x."""
    return sum(cfg.counts[i][x:])


def n_total(cfg, i):
    return sum(cfg.counts[i])


def charge_parity(cfg):
    """T: (T xi)_i^x = xi_{n-i}^x, swapping species i with species n-i."""
    if cfg.is_zero_range:
        raise DomainError("charge parity needs the hole species (capacity mode)")
    return Config(tuple(reversed(cfg.counts)), theta=cfg.theta)


class Sector(namedtuple("Sector", ["k", "theta"])):
    """Conserved species counts k = (k_0..k_n) on capacities theta."""

    def __new__(cls, k, theta):
        k = tuple(int(v) for v in k)
        theta = tuple(int(t) for t in theta)
        if sum(k) != sum(theta):
            raise DomainError("sector counts %s do not fill capacities %s"
                              % (k, theta))
        return super().__new__(cls, k, theta)

    @property
    def n(self):
        return len(self.k) - 1


def enumerate_sector(sector, cap=200_000):
    """All configurations with the sector's species counts, in a fixed order.

    Order: descending lexicographic on the site-major species key
    (site 1 species 0, site 1 species 1, ..., site 2 species 0, ...),
    holes excluded.  This reproduces the printed 4x4 example basis.  More
    than cap configurations raise `ResourceError`.
    """
    k, theta = sector.k, sector.theta
    L = len(theta)
    nsp = len(k) - 1  # species rows, excluding holes
    configs = []

    def fill(x, remaining):
        if x > L:
            if all(r == 0 for r in remaining):
                if len(configs) == cap:
                    raise ResourceError("sector larger than cap=%d" % cap)
                # every site composition fills its capacity with
                # nonnegative ints, so the grid needs no validation
                counts = tuple(tuple(site[i] for site in sites)
                               for i in range(nsp + 1))
                configs.append(Config._unchecked(counts, theta, nsp))
            return
        m = theta[x - 1]

        def comps(i, left):
            # site compositions, species-major descending
            if i == nsp:
                if left <= remaining[nsp]:
                    yield (left,)
                return
            for c in range(min(left, remaining[i]), -1, -1):
                for rest in comps(i + 1, left - c):
                    yield (c,) + rest

        for comp in comps(0, m):
            sites.append(comp)
            fill(x + 1, [r - c for r, c in zip(remaining, comp)])
            sites.pop()

    sites = []
    fill(1, list(k))
    return configs


def enumerate_zrp_sector(counts, L, cap=200_000):
    """All zero-range configurations with the given per-species totals.

    Same order as enumerate_sector: descending lexicographic on the
    site-major species key.  More than cap configurations raise
    `ResourceError`.
    """
    counts = tuple(int(c) for c in counts)
    if min(counts, default=0) < 0 or L < 1:
        raise DomainError("need counts >= 0 and L >= 1, got %r and L = %r"
                          % (counts, L))
    nsp = len(counts)
    configs = []

    def fill(x, remaining):
        if x == L:
            if len(configs) == cap:
                raise ResourceError("sector larger than cap=%d" % cap)
            grid = sites + [remaining]
            configs.append(Config.zero_range(
                [[site[i] for site in grid] for i in range(nsp)]))
            return
        for comp in _site_loads(remaining, nsp):
            sites.append(comp)
            fill(x + 1, tuple(r - c for r, c in zip(remaining, comp)))
            sites.pop()

    def _site_loads(remaining, i):
        if i == 0:
            yield ()
            return
        for head in range(remaining[0], -1, -1):
            for tail in _site_loads(remaining[1:], i - 1):
                yield (head,) + tail

    sites = []
    fill(1, counts)
    return configs


Intermediate = namedtuple("Intermediate", ["i", "rows", "theta"])
# rows: full signed (n+1) x L grid of zeta^{(i)}; theta: signed per-site vector.


def intermediate_configs(xi, eta):
    """The nested configurations zeta^{(i)} and capacities theta^{(i)}.

    zeta^{(i)}_k = xi_k for k<i, eta_k for k>i, and the row i is forced by the
    per-site capacity: zeta^{(i)}_i = eta_{[0,i]} - xi_{[0,i-1]}.  Entries may
    be negative; that marks the pair infeasible (duality value 0), it is not
    an error.
    """
    if xi.is_zero_range or eta.is_zero_range:
        raise DomainError("intermediate configurations need capacity mode")
    if xi.theta != eta.theta or xi.n != eta.n:
        raise DomainError("configurations disagree in capacities or species count")
    xi_upto, eta_upto = _species_prefix_sums(xi), _species_prefix_sums(eta)
    result = []
    for i in range(xi.n):
        # xi_{[0,i-1]} per site; the empty range for i = 0
        left = xi_upto[i - 1] if i else (0,) * xi.L
        zeta_i = tuple(e - c for e, c in zip(eta_upto[i], left))
        theta_i = tuple(e - c for e, c in zip(eta_upto[i + 1], left))
        rows = xi.counts[:i] + (zeta_i,) + eta.counts[i + 1:]
        result.append(Intermediate(i, rows, theta_i))
    return result


def _species_prefix_sums(cfg):
    """Per-site partial sums over species: entry k is cfg_{[0,k]}."""
    out = [cfg.counts[0]]
    for row in cfg.counts[1:]:
        out.append(tuple(a + b for a, b in zip(out[-1], row)))
    return out


def is_feasible(intermediate):
    """True when every zeta row entry and capacity entry is nonnegative."""
    return (all(c >= 0 for row in intermediate.rows for c in row)
            and all(t >= 0 for t in intermediate.theta))
