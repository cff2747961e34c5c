import itertools
import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axisphere import connection
from axisphere.cli import ExperimentSpec, main, run_sigma
from axisphere.connection import (
    ConnectionResult,
    SingularityConfig,
    _shortest_augmenting_paths,
    kantorovich_dual,
    min_connection_assignment,
    min_connection_bruteforce,
)
from axisphere.geometry import NumericalError

from assignment_reference import reference_search


def oracle_length(cfg):
    """The minimal length by ``reference_search``, the tests' own Hungarian
    method, an oracle that shares no code with the package's search."""
    if cfg.k == 0:
        return 0.0
    dist = cfg.distance_matrix()
    matching, _, _ = reference_search(dist)
    return float(dist[np.arange(cfg.k), matching].sum())


def charge_file(folder, cfg):
    """``cfg`` as a ``sigma`` charge file in ``folder``."""
    path = folder / "charges.json"
    path.write_text(json.dumps({"positives": cfg.positives.tolist(),
                                "negatives": cfg.negatives.tolist()}))
    return path


def random_config(rng, k, multiplicity=1):
    return SingularityConfig(
        positives=rng.uniform(-1.0, 1.0, (k, 3)),
        negatives=rng.uniform(-1.0, 1.0, (k, 3)),
        multiplicity=multiplicity,
    )


def lattice_config(rng, k):
    """k distinct positives and k distinct negatives on a small integer
    lattice: exact distance ties and coincident +- pairs are common."""
    side = max(2, math.ceil((2 * k) ** (1 / 3)))
    lattice = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    return SingularityConfig(
        positives=lattice[rng.choice(len(lattice), k, replace=False)],
        negatives=lattice[rng.choice(len(lattice), k, replace=False)],
    )


AXIS_PAIR = SingularityConfig(
    positives=[[0.0, 0.0, 1.0]], negatives=[[0.0, 0.0, -1.0]], multiplicity=1
)

SQUARE = SingularityConfig(
    positives=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
    negatives=[[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
    multiplicity=1,
)


class TestConfig:
    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            SingularityConfig(positives=[[0, 0, 0]], negatives=[])

    def test_duplicate_within_class_rejected(self):
        with pytest.raises(ValueError):
            SingularityConfig(
                positives=[[0, 0, 0], [0, 0, 0]],
                negatives=[[1, 0, 0], [2, 0, 0]],
            )

    def test_coincident_opposite_pair_allowed(self):
        cfg = SingularityConfig(positives=[[0.5, 0, 0]], negatives=[[0.5, 0, 0]])
        assert min_connection_bruteforce(cfg).length == 0.0

    def test_signed_zero_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate point in negatives"):
            SingularityConfig(
                positives=[[0, 0, 0], [1, 0, 0]],
                negatives=[[0, 1, 1], [-0.0, 1, 1]],
            )

    def test_duplicate_message_names_point(self):
        with pytest.raises(ValueError) as info:
            SingularityConfig(
                positives=[[3, 0, 0], [0.25, -2, 7], [1, 1, 1], [0.25, -2, 7]],
                negatives=[[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]],
            )
        message = str(info.value)
        assert message.startswith("duplicate point in positives:")
        assert str(np.array([0.25, -2.0, 7.0])) in message

    def test_duplicate_check_matches_pairwise_reference(self):
        # coarse integer grids make repeated points common
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(0, 6))
            pos = rng.integers(-1, 2, (k, 3)).astype(float)
            neg = rng.integers(-1, 2, (k, 3)).astype(float)
            repeated = any(
                np.all(pts[i] == pts[j])
                for pts in (pos, neg) for i in range(k) for j in range(i + 1, k)
            )
            if repeated:
                with pytest.raises(ValueError, match="duplicate point"):
                    SingularityConfig(positives=pos, negatives=neg)
            else:
                assert SingularityConfig(positives=pos, negatives=neg).k == k

    def test_coincident_opposite_pairs_among_many_allowed(self):
        pts = [[0, 0, 0], [1, 2, 3], [-1, 0.5, 2]]
        cfg = SingularityConfig(positives=pts, negatives=pts[::-1])
        assert cfg.k == 3
        assert min_connection_assignment(cfg).length == pytest.approx(
            min_connection_bruteforce(cfg).length, abs=1e-14
        )

    def test_single_and_empty(self):
        one = SingularityConfig(positives=[[0, 0, 0]], negatives=[[0, 0, 2]])
        assert one.k == 1
        assert kantorovich_dual(one) == pytest.approx(2.0, abs=1e-9)
        empty = SingularityConfig(positives=np.empty((0, 3)), negatives=np.empty((0, 3)))
        assert empty.k == 0
        assert kantorovich_dual(empty) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["positives", "negatives"])
    def test_non_finite_rejected(self, bad, name):
        points = {"positives": [[0, 0, 0], [1, 0, 0]], "negatives": [[0, 1, 0], [1, 1, 0]]}
        points[name][1][2] = bad
        with pytest.raises(ValueError, match=f"non-finite coordinate in {name}"):
            SingularityConfig(**points)

    @pytest.mark.parametrize("x", [1e160, 1.7e308])
    def test_overflowing_distance_rejected(self, x):
        with pytest.raises(ValueError, match="distance overflows"):
            SingularityConfig(positives=[[x, 0, 0]], negatives=[[-x, 0, 0]])

    def test_large_finite_distance_allowed(self):
        cfg = SingularityConfig(positives=[[5e153, 0, 0]], negatives=[[-5e153, 0, 0]])
        length = min_connection_assignment(cfg).length
        assert kantorovich_dual(cfg) == length == pytest.approx(1e154, rel=1e-15)

    def test_nan_rows_not_merged(self):
        # two NaN rows must fail as non-finite, never pass or fail as a duplicate
        with pytest.raises(ValueError, match="non-finite"):
            SingularityConfig(
                positives=[[math.nan, 0, 0], [math.nan, 0, 0]],
                negatives=[[0, 1, 0], [1, 1, 0]],
            )

    def test_distance_matrix_built_once_read_only(self):
        rng = np.random.default_rng(12)
        positives, negatives = rng.uniform(-1.0, 1.0, (2, 9, 3))
        cfg = SingularityConfig(positives=positives, negatives=negatives)
        assert cfg.distance_matrix() is cfg.distance_matrix()
        assert not cfg.distance_matrix().flags.writeable
        # the points are copies the caller cannot move under the stored matrix
        positives[0] = negatives[0]
        assert cfg.distance_matrix()[0, 0] > 0.0
        assert not cfg.positives.flags.writeable and not cfg.negatives.flags.writeable

    @pytest.mark.parametrize("case", ["k0", "k1", "k9", "k120", "coincident", "spread-1e8"])
    def test_distance_matrix_bitwise_equals_difference_formula(self, case):
        rng = np.random.default_rng(13)
        if case == "coincident":
            pts = rng.uniform(-1.0, 1.0, (9, 3))
            cfg = SingularityConfig(positives=pts, negatives=np.vstack([pts[:5], -pts[5:]]))
        elif case == "spread-1e8":
            cfg = random_config(rng, 40)
            cfg = SingularityConfig(positives=1e8 * cfg.positives, negatives=1e8 * cfg.negatives)
        else:
            cfg = random_config(rng, int(case[1:]))
        diff = cfg.positives[:, None, :] - cfg.negatives[None, :, :]
        expected = np.sqrt(np.sum(diff ** 2, axis=-1))
        dist = cfg.distance_matrix()
        assert dist.shape == expected.shape == (cfg.k, cfg.k)
        assert dist.tobytes() == expected.tobytes()

    def test_json_ingestion_format(self):
        cfg = SingularityConfig.from_json(
            '{"multiplicity": 2, "positives": [[0,0,-1]], "negatives": [[0,0,1]]}'
        )
        assert cfg.multiplicity == 2
        assert cfg.k == 1

    @pytest.mark.parametrize("multiplicity", [2, np.int64(2)])
    def test_integer_multiplicity_accepted(self, multiplicity):
        cfg = SingularityConfig(positives=[[0, 0, 0]], negatives=[[0, 0, 1]],
                                multiplicity=multiplicity)
        assert type(cfg.multiplicity) is int and cfg.multiplicity == 2

    @pytest.mark.parametrize("multiplicity", [
        pytest.param(10 ** 400, id="10**400"), pytest.param(2 ** 1024, id="2**1024"),
        pytest.param(2 ** 1024 - 2 ** 970, id="rounds-to-2**1024"),
    ])
    def test_multiplicity_beyond_float_rejected(self, multiplicity):
        with pytest.raises(ValueError, match="multiplicity must be below about 1.8e308"):
            SingularityConfig(positives=[[0, 0, 0]], negatives=[[0, 0, 1]],
                              multiplicity=multiplicity)

    def test_largest_float_multiplicity_accepted(self):
        multiplicity = 2 ** 1024 - 2 ** 971  # the largest finite float, as an integer
        cfg = SingularityConfig(positives=[[0, 0, 0]], negatives=[[0, 0, 0.5]],
                                multiplicity=multiplicity)
        for route in (min_connection_assignment, min_connection_bruteforce):
            assert route(cfg).mass == float(multiplicity) / 2

    @pytest.mark.parametrize("route", [min_connection_assignment, min_connection_bruteforce])
    def test_overflowing_mass_raises(self, route):
        cfg = SingularityConfig(positives=[[0, 0, -1e9]], negatives=[[0, 0, 1e9]],
                                multiplicity=10 ** 300)
        with pytest.raises(NumericalError, match="current mass.*overflows"):
            route(cfg)

    @pytest.mark.parametrize("multiplicity", [0, -1, 2.7, 2.0, True, np.True_, "2", None])
    def test_non_integer_multiplicity_rejected(self, multiplicity):
        with pytest.raises(ValueError, match="multiplicity must be an integer >= 1"):
            SingularityConfig(positives=[[0, 0, 0]], negatives=[[0, 0, 1]],
                              multiplicity=multiplicity)

    @pytest.mark.parametrize("text", [
        '{"positives": [[0,0,0,1,1,1]], "negatives": [[0,0,1],[1,0,0]]}',
        '{"positives": [0,0,1], "negatives": [[0,0,1]]}',
        '{"positives": [[0,0,1],[1,2]], "negatives": [[0,0,1],[1,0,0]]}',
        '[[0,0,1]]',
    ])
    def test_json_malformed_rows_rejected(self, text):
        with pytest.raises(ValueError):
            SingularityConfig.from_json(text)

    def test_rows_not_recut(self):
        with pytest.raises(ValueError, match=r"\(1, 6\)"):
            SingularityConfig(positives=[[0, 0, 0, 1, 1, 1]], negatives=[[0, 0, 1], [1, 0, 0]])

    @pytest.mark.parametrize("text", ['{"positives": [], "negatives": []}', '{}'])
    def test_json_empty_or_missing_class(self, text):
        cfg = SingularityConfig.from_json(text)
        assert cfg.k == 0
        assert cfg.positives.shape == cfg.negatives.shape == (0, 3)


def enumerate_pairings(cfg):
    """Literal enumeration: each permutation's length, first minimum."""
    k = cfg.k
    perms = np.array(list(itertools.permutations(range(k))))
    totals = cfg.distance_matrix()[np.arange(k), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return float(totals[best]), tuple(int(j) for j in perms[best])


class TestBruteForce:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(300)
        for k in list(range(1, 9)) * 10 + [9] * 3:
            cfg = random_config(rng, k)
            res = min_connection_bruteforce(cfg)
            length, matching = enumerate_pairings(cfg)
            assert res.matching == matching
            assert res.length == length  # bit-identical

    def test_exact_tie_breaks_to_smallest_permutation(self):
        # integer distances on a line: (1, 0, 2) and (2, 0, 1) both have
        # length 17, the identity 27
        cfg = SingularityConfig(
            positives=[[5, 0, 0], [0, 0, 0], [1, 0, 0]],
            negatives=[[-10, 0, 0], [6, 0, 0], [7, 0, 0]],
        )
        res = min_connection_bruteforce(cfg)
        assert res.matching == (1, 0, 2)
        assert res.length == 17.0
        assert enumerate_pairings(cfg) == (17.0, (1, 0, 2))

    def test_length_is_matched_sum_not_suffix_value(self):
        # the subset DP's h[0] adds the matched pairs from the last positive
        # up; on this config that differs from their sum in the last bit
        cfg = random_config(np.random.default_rng(3), 8)
        res = min_connection_bruteforce(cfg)
        dist = cfg.distance_matrix()
        suffix = 0.0
        for i in reversed(range(cfg.k)):
            suffix = dist[i, res.matching[i]] + suffix
        assert suffix != res.length
        assert res.length == dist[np.arange(cfg.k), list(res.matching)].sum()
        assert res.length == enumerate_pairings(cfg)[0]

    def test_single_axis_pair(self):
        res = min_connection_bruteforce(AXIS_PAIR)
        assert res.length == pytest.approx(2.0, abs=1e-15)
        assert res.matching == (0,)

    def test_square_prefers_identity(self):
        res = min_connection_bruteforce(SQUARE)
        assert res.length == pytest.approx(2.0, abs=1e-14)
        assert res.matching == (0, 1)
        swapped = np.linalg.norm([1, 1, 0.0]) * 2
        assert swapped == pytest.approx(2 * math.sqrt(2))

    def test_translated_cloud(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, (5, 3))
        v = np.array([0.3, -0.2, 0.6])
        cfg = SingularityConfig(positives=pts, negatives=pts + v)
        res = min_connection_bruteforce(cfg)
        assert res.length == pytest.approx(5 * np.linalg.norm(v), rel=1e-12)

    def test_k_limit(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            min_connection_bruteforce(random_config(rng, 10))

    def test_empty(self):
        cfg = SingularityConfig(positives=np.empty((0, 3)), negatives=np.empty((0, 3)))
        assert min_connection_bruteforce(cfg) == ConnectionResult(0.0, 0.0, ())

    def test_empty_through_every_route(self):
        # the general code of the two pairing routes handles k = 0 itself
        cfg = SingularityConfig(positives=[], negatives=[])
        for route in (min_connection_bruteforce, min_connection_assignment):
            result = route(cfg)
            assert result == ConnectionResult(0.0, 0.0, ())
            assert type(result.length) is float and math.copysign(1.0, result.length) == 1.0
        assert kantorovich_dual(cfg) == 0.0


class TestAssignment:
    def test_matches_brute_on_named_examples(self):
        for cfg in (AXIS_PAIR, SQUARE):
            assert min_connection_assignment(cfg).length == pytest.approx(
                min_connection_bruteforce(cfg).length, abs=1e-14
            )

    def test_collinear_shifted(self):
        cfg = SingularityConfig(
            positives=[[0, 0, 1], [0, 0, 2], [0, 0, 3]],
            negatives=[[0, 0, 1.5], [0, 0, 2.5], [0, 0, 3.5]],
        )
        res = min_connection_assignment(cfg)
        assert res.length == pytest.approx(1.5, abs=1e-14)
        assert res.length == pytest.approx(min_connection_bruteforce(cfg).length)

    def test_randomized_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            cfg = random_config(rng, 6)
            brute = min_connection_bruteforce(cfg)
            fast = min_connection_assignment(cfg)
            assert fast.length == pytest.approx(brute.length, abs=1e-12)
            assert fast.length == pytest.approx(oracle_length(cfg), abs=1e-12)

    def test_mass_uses_multiplicity(self):
        cfg = SingularityConfig(
            positives=AXIS_PAIR.positives, negatives=AXIS_PAIR.negatives, multiplicity=3
        )
        res = min_connection_assignment(cfg)
        assert res.mass == pytest.approx(3 * res.length)


class TestKantorovichDual:
    def test_single_pair(self):
        assert kantorovich_dual(AXIS_PAIR) == pytest.approx(2.0, abs=1e-9)

    def test_coincident_total_cancellation(self):
        cfg = SingularityConfig(
            positives=[[0, 0, 0], [1, 0, 0]], negatives=[[0, 0, 0], [1, 0, 0]]
        )
        assert kantorovich_dual(cfg) == pytest.approx(0.0, abs=1e-9)

    def test_square(self):
        assert kantorovich_dual(SQUARE) == pytest.approx(2.0, abs=1e-9)

    def test_primal_dual_equality_randomized(self):
        rng = np.random.default_rng(200)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            cfg = random_config(rng, k)
            primal = min_connection_assignment(cfg).length
            dual = kantorovich_dual(cfg)
            assert dual == pytest.approx(primal, abs=1e-9)
            assert dual == pytest.approx(oracle_length(cfg), abs=1e-9)

    def test_near_tie_within_lp_tolerance(self):
        # the pairings differ by 2e-8, below an LP solver's default feasibility tolerance
        positives = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0.5]])
        negatives = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 1e-8]])
        for perm in itertools.permutations(range(3)):
            cfg = SingularityConfig(positives=positives[list(perm)], negatives=negatives)
            assert kantorovich_dual(cfg) == pytest.approx(0.5 - 1e-8, abs=1e-9)

    def test_large_k_matches_assignment(self):
        # k = 200: the all-pairs dense form would need over 0.5 GB here
        for seed, k in [(2024, 200), (120, 120)]:
            cfg = random_config(np.random.default_rng(seed), k)
            t0 = time.perf_counter()
            dual = kantorovich_dual(cfg)
            elapsed = time.perf_counter() - t0
            assert dual == pytest.approx(min_connection_assignment(cfg).length, abs=1e-9)
            assert dual == pytest.approx(oracle_length(cfg), abs=1e-9)
            assert elapsed < 10.0

    def test_large_scale_sets_certified(self):
        # distances near 1e8 round by ~1e-8 each, past an absolute 1e-9; the
        # pair-constraint tolerance and the gap both scale with max d_ij
        for seed in [*range(20), 40]:
            cfg = random_config(np.random.default_rng(seed), 40)
            cfg = SingularityConfig(positives=1e8 * cfg.positives, negatives=1e8 * cfg.negatives)
            dual = kantorovich_dual(cfg)
            gap = abs(min_connection_assignment(cfg).length - dual)
            assert gap <= 1e-9 * cfg.distance_matrix().max()
            assert abs(oracle_length(cfg) - dual) <= 1e-9 * cfg.distance_matrix().max()

    def test_swapped_pairing_fails_certificate(self, monkeypatch, tmp_path):
        # the optimal pairing with two pairs swapped: no potentials make it tight
        cfg = random_config(np.random.default_rng(40), 40)
        path = charge_file(tmp_path, cfg)
        rows, cols = connection.linear_sum_assignment(cfg.distance_matrix())
        cols[[0, 1]] = cols[[1, 0]]
        monkeypatch.setattr("axisphere.connection.linear_sum_assignment",
                            lambda dist: (rows, cols))
        for route in (min_connection_assignment, kantorovich_dual):
            with pytest.raises(NumericalError, match="not certified minimal"):
                route(cfg)
        assert main(["sigma", "--spec", str(path)]) == 4

    def test_violated_row_duals_raise(self, monkeypatch):
        cfg = random_config(np.random.default_rng(41), 5)
        dist = cfg.distance_matrix()
        # u = 0 and v_j = min_i d_ij are feasible; lifting v_0 breaks one pair by 1e-6
        v = dist.min(axis=0)
        v[0] += 1e-6
        optimal = (np.arange(cfg.k), np.zeros(cfg.k), v)
        monkeypatch.setattr("axisphere.connection._shortest_augmenting_paths",
                            lambda dist: optimal)
        with pytest.raises(NumericalError, match="violate a pair constraint"):
            kantorovich_dual(cfg)


class TestSearchOncePerConfig:
    """Both pairing routes read one search per configuration."""

    def counted_search(self, monkeypatch):
        calls = []
        search = connection._shortest_augmenting_paths

        def counted(dist):
            calls.append(dist.shape)
            return search(dist)

        monkeypatch.setattr("axisphere.connection._shortest_augmenting_paths", counted)
        return calls

    @pytest.mark.parametrize("k", [0, 1, 9, 40])
    def test_routes_share_one_read_only_search(self, monkeypatch, k):
        calls = self.counted_search(monkeypatch)
        cfg = random_config(np.random.default_rng(43), k)
        for _ in range(2):
            primal = min_connection_assignment(cfg)
            dual = kantorovich_dual(cfg)
        assert len(calls) == (k > 0)  # a 0 x 0 matrix needs no search
        matching, u, v = cfg._search()
        assert all(array.shape == (k,) and not array.flags.writeable
                   for array in (matching, u, v))
        assert primal.matching == tuple(matching.tolist())
        assert primal.length == pytest.approx(oracle_length(cfg), abs=1e-9)
        assert dual == pytest.approx(primal.length, abs=1e-9)

    def test_run_sigma_searches_once(self, monkeypatch, tmp_path):
        calls = self.counted_search(monkeypatch)
        cfg = random_config(np.random.default_rng(44), 40)
        path = charge_file(tmp_path, cfg)
        (row,), _, code = run_sigma(ExperimentSpec(command="sigma", params={"config": str(path)}))
        assert code == 0 and calls == [(40, 40)]
        assert row["length"] == pytest.approx(oracle_length(cfg), abs=1e-9)

    def test_failed_certificate_is_not_kept(self, monkeypatch):
        cfg = random_config(np.random.default_rng(45), 5)
        v = cfg.distance_matrix().min(axis=0)
        v[0] += 1e-6  # breaks one pair constraint by 1e-6
        calls = []

        def infeasible(dist):
            calls.append(dist.shape)
            return np.arange(5), np.zeros(5), v

        monkeypatch.setattr("axisphere.connection._shortest_augmenting_paths", infeasible)
        for route in (min_connection_assignment, kantorovich_dual):
            with pytest.raises(NumericalError, match="violate a pair constraint"):
                route(cfg)
        assert len(calls) == 2


class TestAugmentingPathSearch:
    def test_matches_reference_search(self):
        # on lattice ties the two may end with different minimal pairings
        rng = np.random.default_rng(18)
        for k in [*range(1, 10)] * 4 + [40, 120] * 2:
            for cfg in (lattice_config(rng, k), random_config(rng, k)):
                dist = cfg.distance_matrix()
                rows = np.arange(k)
                matching, u, v = _shortest_augmenting_paths(dist)
                want, _, _ = reference_search(dist)
                assert sorted(matching) == list(range(k))
                assert dist[rows, matching].sum() == pytest.approx(dist[rows, want].sum(),
                                                                   rel=1e-12)
                tolerance = 1e-9 * max(1.0, dist.max())
                assert np.max(u[:, None] + v - dist) <= tolerance
                assert np.max(np.abs(dist[rows, matching] - u - v[matching])) <= tolerance

    def test_lattice_ties_match_assignment_and_bruteforce(self):
        rng = np.random.default_rng(15)
        configs = [lattice_config(rng, int(k))
                   for k in [*range(1, 10)] * 5 + [*rng.integers(10, 120, 12)] + [120]]
        # 120 pairs on a 7^3 lattice, some positives on top of negatives
        configs.append(lattice_config(np.random.default_rng(120), 120))
        for cfg in configs:
            dual = kantorovich_dual(cfg)
            assert dual == pytest.approx(min_connection_assignment(cfg).length, abs=1e-9)
            assert dual == pytest.approx(oracle_length(cfg), abs=1e-9)
            if cfg.k <= 9:
                assert dual == pytest.approx(min_connection_bruteforce(cfg).length, abs=1e-9)

    def test_tied_cycle_stops_before_the_round_cap(self, monkeypatch):
        # a 7-column cycle of rounded weights here sums to -8.9e-16: without a
        # stop margin every lap lowers v again, for all 120 rounds
        rounds = []

        def counted(w, margin):
            v, used = potentials(w, margin)
            rounds.append(used)
            return v, used

        potentials = connection._column_potentials
        monkeypatch.setattr(connection, "_column_potentials", counted)
        cfg = lattice_config(np.random.default_rng(26), 120)
        dual = kantorovich_dual(cfg)  # the search checks the certificate
        assert len(rounds) == 1 and rounds[0] < cfg.k
        assert dual == pytest.approx(min_connection_assignment(cfg).length, abs=1e-9)
        assert dual == pytest.approx(oracle_length(cfg), abs=1e-9)

    def test_own_matching_is_tight_permutation(self):
        rng = np.random.default_rng(16)
        for k in (1, 2, 5, 9, 40, 120):
            for cfg in (lattice_config(rng, k), random_config(rng, k)):
                dist = cfg.distance_matrix()
                matching, u, v = _shortest_augmenting_paths(dist)
                assert sorted(matching) == list(range(k))
                np.testing.assert_allclose(u + v[matching], dist[np.arange(k), matching],
                                           rtol=0, atol=1e-12)
                length = dist[np.arange(k), matching].sum()
                assert length == pytest.approx(kantorovich_dual(cfg), abs=1e-9)

    @pytest.mark.parametrize("dist", [
        [[0.0, math.inf], [0.0, math.inf]],
        [[0.0, 1.0, math.nan], [1.0, 0.0, math.nan], [2.0, 2.0, math.nan]],
        np.where(np.arange(30) < 29, np.random.default_rng(17).uniform(0, 1, (30, 30)),
                 math.inf),
    ], ids=["inf-column", "nan-column", "inf-column-30"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_distance_raises_promptly(self, dist):
        outcome = []

        def search():
            try:
                _shortest_augmenting_paths(np.array(dist))
            except NumericalError as exc:
                outcome.append(exc)

        worker = threading.Thread(target=search, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "the search did not stop within 10 s"
        assert len(outcome) == 1 and "no finite augmenting path" in str(outcome[0])


class TestInvariances:
    def test_relabeling(self):
        rng = np.random.default_rng(7)
        cfg = random_config(rng, 6)
        perm = rng.permutation(6)
        shuffled = SingularityConfig(
            positives=cfg.positives[perm], negatives=cfg.negatives, multiplicity=1
        )
        assert min_connection_assignment(shuffled).length == pytest.approx(
            min_connection_assignment(cfg).length, rel=1e-12
        )

    def test_colocated_pair_insertion(self):
        rng = np.random.default_rng(8)
        cfg = random_config(rng, 5)
        extra = np.array([[10.0, 10.0, 10.0]])
        grown = SingularityConfig(
            positives=np.vstack([cfg.positives, extra]),
            negatives=np.vstack([cfg.negatives, extra]),
        )
        assert min_connection_assignment(grown).length == pytest.approx(
            min_connection_assignment(cfg).length, rel=1e-12
        )

    def test_dilation_scales_exactly(self):
        rng = np.random.default_rng(9)
        cfg = random_config(rng, 5)
        base = min_connection_assignment(cfg).length
        for lam in (0.25, 2.0, 7.5):
            scaled = SingularityConfig(
                positives=cfg.positives * lam, negatives=cfg.negatives * lam
            )
            assert min_connection_assignment(scaled).length == pytest.approx(
                lam * base, rel=1e-12
            )


coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coords, coords, coords)


def distinct(pts):
    return len(np.unique(pts, axis=0)) == len(pts)


@st.composite
def configs(draw, max_k=9):
    k = draw(st.integers(min_value=1, max_value=max_k))
    positives = draw(st.lists(point, min_size=k, max_size=k, unique=True))
    negatives = draw(st.lists(point, min_size=k, max_size=k, unique=True))
    return SingularityConfig(positives=positives, negatives=negatives)


class TestProperties:
    """Properties of the three minimal-connection routes for k <= 9."""

    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_three_routes_agree(self, cfg):
        brute = min_connection_bruteforce(cfg).length
        assert min_connection_assignment(cfg).length == pytest.approx(brute, abs=1e-9)
        assert kantorovich_dual(cfg) == pytest.approx(brute, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(configs(), point, st.randoms(use_true_random=False))
    def test_dual_translation_and_relabeling(self, cfg, shift, random):
        base = kantorovich_dual(cfg)
        v = np.array(shift)
        # rounding may merge two points of a class (1e-300 + 1 == 1); skip those draws
        assume(all(distinct(pts + v) for pts in (cfg.positives, cfg.negatives)))
        moved = SingularityConfig(positives=cfg.positives + v, negatives=cfg.negatives + v)
        assert kantorovich_dual(moved) == pytest.approx(base, abs=1e-9)
        pos_perm = random.sample(range(cfg.k), cfg.k)
        neg_perm = random.sample(range(cfg.k), cfg.k)
        relabeled = SingularityConfig(
            positives=cfg.positives[pos_perm], negatives=cfg.negatives[neg_perm]
        )
        assert kantorovich_dual(relabeled) == pytest.approx(base, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(configs(), st.floats(min_value=0.01, max_value=100.0))
    def test_dual_dilation(self, cfg, lam):
        base = kantorovich_dual(cfg)
        # underflow may merge two tiny coordinates of a class; skip those draws
        assume(all(distinct(pts * lam) for pts in (cfg.positives, cfg.negatives)))
        scaled = SingularityConfig(positives=cfg.positives * lam, negatives=cfg.negatives * lam)
        # each value is exact up to the routes' 1e-9, at its own scale, so a
        # near-tie may resolve at one scale only
        assert kantorovich_dual(scaled) == pytest.approx(lam * base, abs=1e-9 * (1 + lam))
