"""Tests for configurations, sectors, counters, and intermediates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmdual import lattice
from qmdual.errors import DomainError
from qmdual.lattice import (Config, Sector, enumerate_sector,
                            enumerate_zrp_sector, intermediate_configs)


def site_count(cfg, x, lo, hi=None):
    """xi^x_{[lo,hi]} read from cfg.counts: the species rows lo..hi (lo
    alone when hi is None) at the 1-indexed site x; 0 on an empty range."""
    hi = lo if hi is None else hi
    return sum(row[x - 1] for row in cfg.counts[lo:hi + 1])


def example_sector():
    # theta = (2,2), two species, one particle each: the printed 4x4 basis
    return Sector(k=(1, 1, 2), theta=(2, 2))


class TestConfig:
    def test_capacity_mode_sums(self):
        cfg = Config.capacity([[1, 0], [1, 0]], theta=(2, 2))
        assert cfg.counts[2] == (0, 2)  # holes derived
        assert cfg.site(1) == (1, 1, 0)

    def test_capacity_violation(self):
        with pytest.raises(DomainError):
            Config.capacity([[2, 0], [1, 0]], theta=(2, 2))

    def test_immutability(self):
        cfg = Config([[1, 2, 0]])
        with pytest.raises(AttributeError):
            cfg.L = 5

    def test_site_outside_the_chain_raises(self):
        cfg = Config.capacity([(1, 0, 2)], (1, 1, 2))
        assert cfg.site(3) == (2, 0)
        for x in (0, -1, 4):
            with pytest.raises(IndexError, match="outside 1..3"):
                cfg.site(x)


# validation raises, never asserts (tests/test_imports.py keeps assert out of
# src), so these hold under python -O, where CI runs the suite again
_ZRP = Config([(1, 0)])
INPUT_CHECKS = {
    "intermediate types": lambda: intermediate_configs(1, 2),
    "intermediate mode": lambda: intermediate_configs(_ZRP, _ZRP),
    "intermediate capacities": lambda: intermediate_configs(
        Config([(1, 0), (0, 1)], theta=(1, 1)),
        Config([(1, 0), (1, 1)], theta=(2, 1))),
    "no rows": lambda: Config([]),
    "ragged grid": lambda: Config([(1, 2), (3,)]),
    "theta length": lambda: Config([(1, 0), (0, 1)], theta=(1, 1, 1)),
    "hole row count": lambda: Config([(1, 1)], theta=(1, 1)),
    "sector negative count": lambda: Sector((-1, 3), (1, 1)),
    "sector negative hole count": lambda: Sector((3, -1), (1, 1)),
    "sector negative capacity": lambda: Sector((0, 0), (1, -1)),
    "sector without holes": lambda: Sector((2,), (1, 1)),
    "sector counts off the capacities": lambda: Sector((1, 1), (1, 2)),
    "zero-range counts": lambda: enumerate_zrp_sector((-1,), 2),
    "zero-range length": lambda: enumerate_zrp_sector((1,), 0),
    # a count that is not an integer is refused, never truncated; each of
    # these was accepted as its int() before, or failed in arithmetic
    "float count": lambda: Config([[2.7], [0]], theta=(2,)),
    "float capacity": lambda: Config([[2], [0]], theta=(2.0,)),
    "float zero-range count": lambda: Config([(1.5, 0)]),
    "float count of a capacity build": lambda: Config.capacity([(0.5,)], (1,)),
    "string count": lambda: Config([["2"], [0]], theta=(2,)),
    "sector float count": lambda: Sector((2.9, 0), (2,)),
    "sector float capacity": lambda: Sector((2, 0), (2.0,)),
    "zero-range float count": lambda: enumerate_zrp_sector((1.9,), 2),
    "zero-range float length": lambda: enumerate_zrp_sector((1,), 2.0),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_check_raises(name):
    with pytest.raises(DomainError):
        INPUT_CHECKS[name]()


def test_integer_counts_of_any_int_type_become_ints():
    # operator.index takes a numpy int and a bool, as int() did
    cfg = Config([[np.int64(2), True], [0, np.int8(0)]], theta=(2, 1))
    assert cfg == Config([[2, 1], [0, 0]], theta=(2, 1))
    assert all(type(c) is int for row in cfg.counts for c in row)
    assert all(type(t) is int for t in cfg.theta)
    assert Sector(np.array([1, 1]), np.array([1, 1])) == Sector((1, 1), (1, 1))


class TestCounters:
    def test_empty_config(self):
        cfg = Config([[0, 0, 0]])
        assert sum(cfg.counts[0]) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                    min_size=2, max_size=2))
    def test_partition_of_total(self, rows):
        cfg = Config(rows)
        for i in range(2):
            assert (sum(site_count(cfg, x, i) for x in range(1, 4))
                    == sum(cfg.counts[i]))


class TestCompositions:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-2, 10), st.lists(st.integers(0, 4), min_size=1, max_size=4))
    @example(5, [1, 2])  # a total above the sum of the bounds
    @example(-1, [2])
    def test_matches_product_oracle(self, total, bounds):
        grid = itertools.product(*(range(b + 1) for b in bounds))
        want = sorted((c for c in grid if sum(c) == total), reverse=True)
        assert list(lattice.compositions(total, tuple(bounds))) == want


class TestEnumerateSector:
    def test_printed_basis_order(self):
        # both at 1; species 0 at 1 & species 1 at 2; swapped; both at 2
        configs = enumerate_sector(example_sector())
        expected = [
            Config.capacity([[1, 0], [1, 0]], theta=(2, 2)),
            Config.capacity([[1, 0], [0, 1]], theta=(2, 2)),
            Config.capacity([[0, 1], [1, 0]], theta=(2, 2)),
            Config.capacity([[0, 1], [0, 1]], theta=(2, 2)),
        ]
        assert configs == expected

    def test_all_holes_sector(self):
        sec = Sector(k=(0, 0, 4), theta=(2, 2))
        assert len(enumerate_sector(sec)) == 1

    def test_zero_capacity_site(self):
        # capacity 0 is legal, as in Config: the site holds nothing
        configs = enumerate_sector(Sector(k=(1, 1), theta=(0, 2)))
        assert configs == [Config([(0, 1), (0, 1)], theta=(0, 2))]

    def test_count_matches_brute_force(self):
        theta = (2, 1, 2)
        n = 2
        per_site = [
            [c for c in itertools.product(range(t + 1), repeat=n + 1)
             if sum(c) == t]
            for t in theta
        ]
        tally = {}
        for combo in itertools.product(*per_site):
            key = tuple(sum(site[i] for site in combo) for i in range(n + 1))
            tally[key] = tally.get(key, 0) + 1
        for k, count in tally.items():
            got = enumerate_sector(Sector(k=k, theta=theta))
            assert len(got) == count, "sector %s" % (k,)
            assert len(set(got)) == count, "duplicates in sector %s" % (k,)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(lattice, "SECTOR_CAP", 5)
        with pytest.raises(lattice.ResourceError):
            enumerate_sector(Sector(k=(6, 6, 6), theta=(3,) * 6))

    @pytest.mark.parametrize("sector", [Sector((1, 1), (1, 1)),
                                        Sector((1, 1, 2), (2, 2)),
                                        Sector((2, 2, 2), (1,) * 6)])
    def test_cap_boundary(self, sector, monkeypatch):
        # the cap counts configurations: N fit in cap = N, not in N - 1
        N = len(enumerate_sector(sector))
        monkeypatch.setattr(lattice, "SECTOR_CAP", N)
        assert len(enumerate_sector(sector)) == N
        monkeypatch.setattr(lattice, "SECTOR_CAP", N - 1)
        with pytest.raises(lattice.ResourceError):
            enumerate_sector(sector)

    @pytest.mark.parametrize("sector", [Sector((1, 1, 2), (2, 2)),
                                        Sector((1, 3, 4), (2, 2, 2, 2)),
                                        Sector((0, 0, 4), (2, 2)),
                                        Sector((3, 3, 2), (1,) * 8),
                                        Sector((4, 3, 3), (1,) * 10)])
    def test_configs_equal_validated_configs(self, sector):
        # the enumeration builds its configurations without re-validating
        # them; each must be what the validating constructor gives
        for cfg in enumerate_sector(sector):
            want = Config(cfg.counts, theta=sector.theta)
            assert cfg == want and hash(cfg) == hash(want)
            assert (cfg.counts, cfg.theta, cfg.L, cfg.n) \
                == (want.counts, want.theta, want.L, want.n)
            assert all(type(row) is tuple and all(type(c) is int for c in row)
                       for row in cfg.counts)
            assert type(cfg.theta) is tuple


def capacity_pairs(theta, n):
    """Every pair of configurations on the capacity profile theta with n
    species, cross-sector pairs included."""
    configs = [cfg for k in itertools.product(range(sum(theta) + 1), repeat=n)
               if sum(k) <= sum(theta)
               for cfg in enumerate_sector(Sector(k + (sum(theta) - sum(k),),
                                                  theta))]
    return itertools.product(configs, repeat=2)


def nested_difference(xi, eta, i, j):
    """eta_{[0,j]} - xi_{[0,i-1]} per site: the forced row zeta^{(i)}_i at
    j = i, its capacities theta^{(i)} at j = i + 1."""
    return tuple(site_count(eta, x, 0, j) - site_count(xi, x, 0, i - 1)
                 for x in range(1, xi.L + 1))


class TestIntermediates:
    def test_single_species_collapse(self):
        xi = Config.capacity([[1, 0]], theta=(2, 2))
        eta = Config.capacity([[0, 1]], theta=(2, 2))
        (mid,) = intermediate_configs(xi, eta)
        assert mid.row == eta.counts[0]
        assert mid.theta == tuple(
            eta.counts[0][x] + eta.counts[1][x] for x in range(2))

    def test_equal_arguments(self):
        cfg = Config.capacity([[1, 0], [0, 1]], theta=(2, 2))
        for mid in intermediate_configs(cfg, cfg):
            assert mid.row == cfg.counts[mid.i]
            assert mid.theta == tuple(
                cfg.counts[mid.i][x] + cfg.counts[mid.i + 1][x] for x in range(2))

    def test_zeta_rows_sum_to_theta(self):
        # zeta^{(i)}_i + xi_{[0,i-1]} + eta_{[i+1,n]} = theta at every site
        sec = example_sector()
        for xi in enumerate_sector(sec):
            for eta in enumerate_sector(sec):
                for mid in intermediate_configs(xi, eta) or ():
                    for x in range(1, 3):
                        assert (mid.row[x - 1] + site_count(xi, x, 0, mid.i - 1)
                                + site_count(eta, x, mid.i + 1, sec.n)
                                == sec.theta[x - 1])

    def test_printed_zero_pattern(self):
        # infeasibility of zeta^{(1)} reproduces the 4x4 zero positions
        configs = enumerate_sector(example_sector())
        zero = {(a + 1, b + 1) for a, xi in enumerate(configs)
                for b, eta in enumerate(configs)
                if intermediate_configs(xi, eta) is None}
        assert zero == {(1, 4), (2, 4), (3, 1), (4, 1)}

    @pytest.mark.parametrize("theta,n", [((2, 2), 2), ((2, 1, 2), 2),
                                         ((3, 2), 2), ((1, 1, 1), 3)])
    def test_one_feasibility_rule(self, theta, n):
        # None exactly when a forced row has a negative entry; otherwise
        # every intermediate is in range, so no caller checks bounds again
        refused = 0
        for xi, eta in capacity_pairs(theta, n):
            want = [(i, nested_difference(xi, eta, i, i),
                     nested_difference(xi, eta, i, i + 1)) for i in range(n)]
            mids = intermediate_configs(xi, eta)
            if any(min(row) < 0 for _, row, _ in want):
                assert mids is None, (xi, eta)
                refused += 1
                continue
            assert [tuple(m) for m in mids] == want, (xi, eta)
            for mid in mids:
                for c, z, t in zip(xi.counts[mid.i], mid.row, mid.theta):
                    assert 0 <= z <= t and c <= t, (xi, eta, mid)
        assert refused > 0


class TestZRPEnumeration:
    def test_two_site_single_particle_order(self):
        configs = lattice.enumerate_zrp_sector((1,), 2)
        assert [cfg.counts for cfg in configs] == [((1, 0),), ((0, 1),)]

    def test_counts_match_stars_and_bars(self):
        for counts, L in [((2,), 3), ((1, 1), 3), ((2, 1), 2)]:
            configs = lattice.enumerate_zrp_sector(counts, L)
            expect = 1
            for c in counts:
                expect *= math.comb(L + c - 1, c)
            assert len(configs) == expect
            assert len(set(configs)) == expect, "duplicates in enumeration"
            for cfg in configs:
                assert cfg.is_zero_range
                for i, c in enumerate(counts):
                    assert sum(cfg.counts[i]) == c

    def test_descending_site_major_order(self):
        configs = lattice.enumerate_zrp_sector((1, 1), 2)
        keys = [tuple(v for x in range(1, 3) for v in cfg.site(x))
                for cfg in configs]
        assert keys == sorted(keys, reverse=True)

    def test_cap_guard(self, monkeypatch):
        monkeypatch.setattr(lattice, "SECTOR_CAP", 10)
        with pytest.raises(lattice.ResourceError):
            lattice.enumerate_zrp_sector((6, 6), 6)

    def test_matches_brute_force_grid(self):
        # each species row is any L-tuple with its total; the grids sorted
        # descending on the site-major key.  The enumeration builds its
        # configurations without re-validating them, so each must also be
        # what the validating constructor gives
        for n in (1, 2, 3):
            for counts in itertools.product(range(4), repeat=n):
                for L in range(1, 5):
                    rows = [[r for r in itertools.product(range(c + 1), repeat=L)
                             if sum(r) == c] for c in counts]
                    want = sorted(itertools.product(*rows), reverse=True,
                                  key=lambda g: tuple(zip(*g)))
                    got = lattice.enumerate_zrp_sector(counts, L)
                    assert [cfg.counts for cfg in got] == want, (counts, L)
                    for cfg in got:
                        valid = Config(cfg.counts)
                        assert cfg == valid and hash(cfg) == hash(valid)
                        assert (cfg.L, cfg.n, cfg.theta) == (L, n, None)
                        assert all(type(row) is tuple
                                   and all(type(c) is int for c in row)
                                   for row in cfg.counts)

    @pytest.mark.parametrize("counts,L", [((1,), 3), ((2, 1), 3)])
    def test_cap_boundary(self, counts, L, monkeypatch):
        N = len(lattice.enumerate_zrp_sector(counts, L))
        monkeypatch.setattr(lattice, "SECTOR_CAP", N)
        assert len(lattice.enumerate_zrp_sector(counts, L)) == N
        monkeypatch.setattr(lattice, "SECTOR_CAP", N - 1)
        with pytest.raises(lattice.ResourceError):
            lattice.enumerate_zrp_sector(counts, L)
