"""The exhaustive assignment reference in tests/reference.py: fixtures,
cross-checks, greedy comparison, and the sweep's assignment solver checked
against it."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fusetrack.association import CostWeights, Detection, Track, cost_matrix, greedy_associate
from fusetrack.cli import _optimal_pairs

from reference import matching_cost, optimal_assignment

INF = math.inf


def _enumerate_best(m):
    """Plain recursion over all injective matchings; the slowest possible
    correct answer, used only to cross-check the subset search."""
    n_det, n_trk = m.shape

    def rec(i, used):
        if i == n_det:
            return (0, 0.0, ())
        best = None
        for j in range(n_trk):
            if j in used or math.isinf(m[i, j]):
                continue
            pairs, cost, chosen = rec(i + 1, used | {j})
            cand = (pairs + 1, m[i, j] + cost, ((i, j),) + chosen)
            if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
                best = cand
        skipped = rec(i + 1, used)
        if best is None or (-skipped[0], skipped[1]) < (-best[0], best[1]):
            best = skipped
        return best

    _, _, pairs = rec(0, frozenset())
    return matching_cost(m, pairs), pairs


def test_single_cell():
    assert optimal_assignment([[5.0]]) == (5.0, ((0, 0),))


def test_two_by_two_diagonal():
    cost, pairs = optimal_assignment([[1.0, 10.0], [10.0, 1.0]])
    assert cost == 2.0
    assert pairs == ((0, 0), (1, 1))


def test_forbidden_everywhere_matches_nothing():
    assert optimal_assignment([[INF]]) == (0.0, ())
    assert optimal_assignment([[INF, INF], [INF, INF]]) == (0.0, ())


def test_empty_matrix():
    assert optimal_assignment([]) == (0.0, ())
    assert optimal_assignment(np.zeros((0, 3))) == (0.0, ())


def test_cardinality_beats_cost():
    # Matching both rows forces total 102; the cheap single match (cost 1)
    # must lose because it leaves a row unmatched.
    cost, pairs = optimal_assignment([[1.0, 100.0], [2.0, INF]])
    assert pairs == ((0, 1), (1, 0))
    assert cost == 102.0


def test_tie_prefers_lower_track_index():
    cost, pairs = optimal_assignment([[1.0, 1.0]])
    assert (cost, pairs) == (1.0, ((0, 0),))


def test_size_cap_enforced():
    with pytest.raises(ValueError):
        optimal_assignment(np.zeros((11, 3)))
    with pytest.raises(ValueError):
        optimal_assignment(np.zeros((3, 11)))


def test_rejects_nan_and_negative_infinity():
    with pytest.raises(ValueError):
        optimal_assignment([[math.nan]])
    with pytest.raises(ValueError):
        optimal_assignment([[-INF]])


def _random_matrix(rng, max_n=4, inf_prob=0.25):
    n = rng.randrange(1, max_n + 1)
    k = rng.randrange(1, max_n + 1)
    m = np.empty((n, k))
    for i in range(n):
        for j in range(k):
            m[i, j] = INF if rng.random() < inf_prob else rng.uniform(0, 10)
    return m


def test_agrees_with_plain_recursion():
    rng = random.Random(7)
    for _ in range(1000):
        m = _random_matrix(rng)
        assert optimal_assignment(m) == _enumerate_best(m)


def test_agrees_with_scipy_on_finite_matrices():
    rng = random.Random(8)
    for _ in range(1000):
        n = rng.randrange(1, 7)
        m = np.array([[rng.uniform(0, 10) for _ in range(n)] for _ in range(n)])
        cost, pairs = optimal_assignment(m)
        rows, cols = linear_sum_assignment(m)
        assert len(pairs) == len(rows)
        assert cost == matching_cost(m, zip(rows, cols))


def test_sweep_solver_agrees_with_exhaustive_search():
    # The sweep's shifted linear_sum_assignment against the subset search:
    # same number of pairs and the same total, with forbidden pairs and
    # costs spread over nine orders of magnitude within one matrix.
    rng = random.Random(31)
    for _ in range(1000):
        n, k = rng.randrange(1, 9), rng.randrange(1, 9)
        inf_prob = rng.choice((0.0, 0.2, 0.5, 0.8))
        m = np.array([
            [INF if rng.random() < inf_prob else rng.uniform(0, 10) * 10.0 ** rng.randrange(-4, 5) for _ in range(k)]
            for _ in range(n)
        ])
        pairs = _optimal_pairs(m)
        cost, expected = optimal_assignment(m)
        assert len(pairs) == len(expected)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        assert all(math.isfinite(m[i, j]) for i, j in pairs)
        assert matching_cost(m, pairs) == pytest.approx(cost, rel=1e-12, abs=1e-12)


def test_sweep_solver_keeps_cardinality_first_near_float_max():
    # The finite costs sum past the float range; the cardinality shift must
    # stay finite and still prefer two pairs over one cheaper pair.
    m = np.array([[1e308, 1e308, INF], [1.0, INF, INF], [INF, INF, 1e-300]])
    assert _optimal_pairs(m) == [(0, 1), (1, 0), (2, 2)]


def _finite_instance(rng, n_det, n_trk):
    """Same-class, unlimited-gate detections and tracks, so every pair is
    finite and the greedy matcher reaches maximum cardinality."""
    tracks = [
        Track(j, rng.uniform(0, 800), rng.uniform(0, 448), rng.uniform(5, 80),
              rng.uniform(-5, 5), rng.uniform(-5, 5), 0, 1.0, last_seen=0)
        for j in range(n_trk)
    ]
    dets = [
        Detection(rng.uniform(0, 800), rng.uniform(0, 448), rng.uniform(5, 80),
                  rng.uniform(-5, 5), rng.uniform(-5, 5), 0, rng.random())
        for _ in range(n_det)
    ]
    return dets, tracks


def test_greedy_never_beats_optimal():
    # On all-finite instances both matchers reach maximum cardinality, so
    # their totals are directly comparable and the exhaustive answer is a
    # lower bound.
    rng = random.Random(99)
    weights = CostWeights(radius=1e9)
    for _ in range(1000):
        dets, tracks = _finite_instance(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        m = cost_matrix(dets, tracks, weights)
        res = greedy_associate(dets, tracks, weights)
        greedy_cost = matching_cost(m, res.matches)  # track id == column here
        optimal_cost, optimal_pairs = optimal_assignment(m)
        assert len(res.matches) == min(len(dets), len(tracks)) == len(optimal_pairs)
        assert optimal_cost <= greedy_cost


def test_greedy_equals_optimal_on_dominant_instances():
    # Each detection has one randomly placed cheap track (distinct per
    # detection) and every other pair is far more expensive, so the greedy
    # choice is forced and provably optimal.
    rng = random.Random(123)
    weights = CostWeights(alpha=1.0, beta=0.0, delta=0.0, radius=1e9)
    for _ in range(300):
        n = rng.randrange(1, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        tracks = [
            Track(j, 1000.0 * j, 0.0, 20.0, 0.0, 0.0, 0, 1.0, last_seen=0)
            for j in range(n)
        ]
        dets = [
            Detection(1000.0 * perm[i] + rng.uniform(-1, 1), rng.uniform(-1, 1),
                      20.0, 0.0, 0.0, 0, 1.0)
            for i in range(n)
        ]
        m = cost_matrix(dets, tracks, weights)
        res = greedy_associate(dets, tracks, weights)
        assert sorted((i, tid) for i, tid in res.matches) == [(i, perm[i]) for i in range(n)]
        optimal_cost, optimal_pairs = optimal_assignment(m)
        assert matching_cost(m, res.matches) == optimal_cost
        assert sorted(optimal_pairs) == sorted((i, tid) for i, tid in res.matches)
