"""Tests for configurations, sectors, counters, and intermediates."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdual import lattice
from qmdual.errors import DomainError
from qmdual.lattice import (Config, Sector, charge_parity, enumerate_sector,
                            intermediate_configs, is_feasible, n_left,
                            n_right, n_total)


def example_sector():
    # theta = (2,2), two species, one particle each: the printed 4x4 basis
    return Sector(k=(1, 1, 2), theta=(2, 2))


class TestConfig:
    def test_capacity_mode_sums(self):
        cfg = Config.capacity([[1, 0], [1, 0]], theta=(2, 2))
        assert cfg.row(2) == (0, 2)  # holes derived
        assert cfg.site(1) == (1, 1, 0)

    def test_capacity_violation(self):
        with pytest.raises(DomainError):
            Config.capacity([[2, 0], [1, 0]], theta=(2, 2))

    def test_immutability(self):
        cfg = Config.zero_range([[1, 2, 0]])
        with pytest.raises(AttributeError):
            cfg.L = 5

    def test_json_roundtrip(self):
        cfg = Config.capacity([[1, 0], [0, 1]], theta=(2, 2))
        assert Config.from_json(cfg.to_json()) == cfg
        zrp = Config.zero_range([[3, 0, 1], [0, 2, 0]])
        assert Config.from_json(zrp.to_json()) == zrp

    def test_input_checks_raise_under_python_O(self):
        # python -O strips asserts; input validation must not rest on them
        src = str(Path(lattice.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", _CONFIG_CHECKS],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["optimize 1"], proc.stdout


_CONFIG_CHECKS = """
import sys
from qmdual.errors import DomainError
from qmdual.lattice import Config, enumerate_zrp_sector, intermediate_configs
zrp = Config([(1, 0)])
cap = Config([(1, 0), (0, 1)], theta=(1, 1))
checks = {
    "intermediate mode": lambda: intermediate_configs(zrp, zrp),
    "intermediate capacities": lambda: intermediate_configs(
        Config([(1, 0), (0, 1)], theta=(1, 1)),
        Config([(1, 0), (1, 1)], theta=(2, 1))),
    "no rows": lambda: Config([]),
    "ragged grid": lambda: Config([(1, 2), (3,)]),
    "theta length": lambda: Config([(1, 0), (0, 1)], theta=(1, 1, 1)),
    "hole row count": lambda: Config([(1, 1)], theta=(1, 1)),
    "zero-range row count": lambda: Config([(1, 1)], n=2),
    "header mismatch": lambda: Config.from_json(
        {"L": 3, "n": 1, "counts": [[1, 0], [0, 1]], "theta": [1, 1]}),
    "species range above": lambda: cap.range_count(1, 0, 2),
    "species range below": lambda: cap.range_count(1, -1, 0),
    "zero-range counts": lambda: enumerate_zrp_sector((-1,), 2),
    "zero-range length": lambda: enumerate_zrp_sector((1,), 0),
}
for name, call in checks.items():
    try:
        call()
    except DomainError:
        continue
    print("accepted:", name)
print("optimize", sys.flags.optimize)
"""


class TestCounters:
    def test_empty_config(self):
        cfg = Config.zero_range([[0, 0, 0]])
        for x in range(1, 4):
            assert n_left(cfg, 0, x) == 0
            assert n_right(cfg, 0, x) == 0
        assert n_total(cfg, 0) == 0

    def test_single_particle(self):
        cfg = Config.zero_range([[0, 1, 0]])
        assert n_left(cfg, 0, 3) == 1
        assert n_right(cfg, 0, 1) == 1
        assert n_left(cfg, 0, 1) == 0
        assert n_right(cfg, 0, 3) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                    min_size=2, max_size=2))
    def test_partition_of_total(self, rows):
        cfg = Config.zero_range(rows)
        for i in range(2):
            for x in range(1, 4):
                assert (n_left(cfg, i, x) + cfg.count(i, x) + n_right(cfg, i, x)
                        == n_total(cfg, i))


class TestChargeParity:
    def test_single_species_swaps_holes(self):
        cfg = Config([[0, 0], [2, 2]], theta=(2, 2))  # n=1, all holes
        flipped = charge_parity(cfg)
        assert flipped.row(0) == (2, 2) and flipped.row(1) == (0, 0)

    def test_involution_on_sector(self):
        for cfg in enumerate_sector(example_sector()):
            assert charge_parity(charge_parity(cfg)) == cfg

    def test_zero_range_rejected(self):
        with pytest.raises(DomainError):
            charge_parity(Config.zero_range([[1, 0]]))

    def test_sector_reversal(self):
        for cfg in enumerate_sector(example_sector()):
            out = charge_parity(cfg)
            assert tuple(sum(out.row(i)) for i in range(3)) == (2, 1, 1)


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

    def test_cap(self):
        with pytest.raises(lattice.ResourceError):
            enumerate_sector(Sector(k=(6, 6, 6), theta=(3,) * 6), cap=5)

    @pytest.mark.parametrize("sector", [Sector((1, 1), (1, 1)),
                                        Sector((1, 1, 2), (2, 2)),
                                        Sector((2, 2, 2), (1,) * 6)])
    def test_cap_boundary(self, sector):
        # the cap counts configurations: N fit in cap = N, not in N - 1
        N = len(enumerate_sector(sector))
        assert len(enumerate_sector(sector, cap=N)) == N
        with pytest.raises(lattice.ResourceError):
            enumerate_sector(sector, cap=N - 1)

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


class TestIntermediates:
    def test_single_species_collapse(self):
        xi = Config.capacity([[1, 0]], theta=(2, 2))
        eta = Config.capacity([[0, 1]], theta=(2, 2))
        (mid,) = intermediate_configs(xi, eta)
        assert mid.rows[0] == eta.row(0)
        assert mid.theta == tuple(eta.row(0)[x] + eta.row(1)[x] for x in range(2))

    def test_equal_arguments(self):
        cfg = Config.capacity([[1, 0], [0, 1]], theta=(2, 2))
        for mid in intermediate_configs(cfg, cfg):
            assert mid.rows[mid.i] == cfg.row(mid.i)
            assert mid.theta == tuple(
                cfg.row(mid.i)[x] + cfg.row(mid.i + 1)[x] for x in range(2))

    def test_zeta_rows_sum_to_theta(self):
        sec = example_sector()
        for xi in enumerate_sector(sec):
            for eta in enumerate_sector(sec):
                for mid in intermediate_configs(xi, eta):
                    if is_feasible(mid):
                        for x in range(2):
                            assert (sum(row[x] for row in mid.rows)
                                    == sec.theta[x])

    def test_printed_zero_pattern(self):
        # infeasibility of zeta^{(1)} reproduces the 4x4 zero positions
        configs = enumerate_sector(example_sector())
        zero = set()
        for a, xi in enumerate(configs):
            for b, eta in enumerate(configs):
                mids = intermediate_configs(xi, eta)
                if not all(is_feasible(m) for m in mids):
                    zero.add((a + 1, b + 1))
        assert zero == {(1, 4), (2, 4), (3, 1), (4, 1)}


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
                    assert n_total(cfg, i) == c

    def test_descending_site_major_order(self):
        configs = lattice.enumerate_zrp_sector((1, 1), 2)
        keys = [tuple(v for x in range(1, 3) for v in cfg.site(x))
                for cfg in configs]
        assert keys == sorted(keys, reverse=True)

    def test_cap_guard(self):
        with pytest.raises(lattice.ResourceError):
            lattice.enumerate_zrp_sector((6, 6), 6, cap=10)

    @pytest.mark.parametrize("counts,L", [((1,), 3), ((2, 1), 3)])
    def test_cap_boundary(self, counts, L):
        N = len(lattice.enumerate_zrp_sector(counts, L))
        assert len(lattice.enumerate_zrp_sector(counts, L, cap=N)) == N
        with pytest.raises(lattice.ResourceError):
            lattice.enumerate_zrp_sector(counts, L, cap=N - 1)
