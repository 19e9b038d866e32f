"""Tests for repro.core.localsearch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance.oracles import scalar_ldafp_evaluate
from repro.core.localsearch import coordinate_descent, scale_sweep_candidates
from repro.core.problem import LdaFpProblem
from repro.errors import InputValidationError
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import dequantize_raw, quantize, quantize_raw
from repro.stats.scatter import ClassStats, TwoClassStats


def toy_problem(fmt=None) -> LdaFpProblem:
    fmt = fmt or QFormat(2, 3)
    mean_a = np.array([0.4, 0.0])
    cov = np.array([[0.09, 0.0], [0.0, 0.09]])
    stats = TwoClassStats(
        class_a=ClassStats(mean_a, cov, 100),
        class_b=ClassStats(-mean_a, cov, 100),
        within_scatter=cov,
        mean_difference=2 * mean_a,
    )
    return LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)


def random_problem(seed: int) -> LdaFpProblem:
    """A 2-4 feature instance with small statistics, so range-edge weights
    are often feasible and the move windows get clipped."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    mean_a = rng.uniform(-0.15, 0.15, size=m)
    mean_b = rng.uniform(-0.15, 0.15, size=m)
    mixing_a = 0.1 * rng.standard_normal((m, m))
    mixing_b = 0.1 * rng.standard_normal((m, m))
    cov_a = mixing_a @ mixing_a.T + 1e-3 * np.eye(m)
    cov_b = mixing_b @ mixing_b.T + 1e-3 * np.eye(m)
    stats = TwoClassStats(
        class_a=ClassStats(mean_a, cov_a, 100),
        class_b=ClassStats(mean_b, cov_b, 100),
        within_scatter=0.5 * (cov_a + cov_b),
        mean_difference=mean_a - mean_b,
    )
    return LdaFpProblem(stats=stats, fmt=QFormat(2, int(rng.integers(1, 4))))


def scalar_score(problem: LdaFpProblem, w: np.ndarray) -> "tuple[float, float]":
    violation, cost = scalar_ldafp_evaluate(problem, w[None, :])
    return float(violation[0]), float(cost[0])


def serial_coordinate_descent(problem, start, radius, max_sweeps):
    """One coordinate at a time, one scalar-scored move at a time."""
    fmt = problem.fmt
    w = np.asarray(quantize(np.asarray(start, dtype=np.float64), fmt))
    best_cost = scalar_score(problem, w)[1]
    moves = 0
    converged = False
    for _ in range(max_sweeps):
        improved = False
        for i in range(w.size):
            center = int(quantize_raw(float(w[i]), fmt))
            raws = np.arange(center - radius, center + radius + 1)
            raws = raws[(raws >= fmt.min_raw) & (raws <= fmt.max_raw)]
            best_move = None
            for value in dequantize_raw(raws, fmt):
                if value == w[i]:
                    continue
                trial = w.copy()
                trial[i] = value
                violation, cost = scalar_score(problem, trial)
                if violation > 1e-9:
                    continue
                if cost < best_cost - 1e-15 and (best_move is None or cost < best_move[0]):
                    best_move = (cost, value)
            if best_move is not None:
                best_cost, w[i] = best_move
                moves += 1
                improved = True
        if not improved:
            converged = True
            break
    return w, best_cost, moves, converged


def reference_ladder(problem, direction, num_scales=24, refine=True):
    """The scale sweep one rung and one sign at a time, scalar-scored."""
    d = np.asarray(direction, dtype=np.float64)
    peak = float(np.max(np.abs(d)))
    if peak == 0.0:
        return []
    fmt = problem.fmt
    lo_scale, hi_scale = fmt.resolution / peak, fmt.max_value / peak
    scales = [hi_scale] if hi_scale <= lo_scale else list(np.geomspace(lo_scale, hi_scale, num_scales))
    out, seen = [], set()

    def add(scale):
        best_here = None
        for sign in (1.0, -1.0):
            candidate = np.asarray(quantize(sign * scale * d, fmt))
            if not np.any(candidate) or candidate.tobytes() in seen:
                continue
            seen.add(candidate.tobytes())
            violation, cost = scalar_score(problem, candidate)
            out.append((candidate, violation, cost))
            if violation <= 1e-9 and np.isfinite(cost) and (best_here is None or cost < best_here):
                best_here = cost
        return best_here

    best_scale, best_cost = None, np.inf
    for scale in scales:
        result = add(float(scale))
        if result is not None and result < best_cost:
            best_cost, best_scale = result, float(scale)
    if refine and best_scale is not None:
        for scale in np.linspace(best_scale / 1.4, min(best_scale * 1.4, hi_scale), 24):
            add(float(scale))
    return out


class TestCoordinateDescent:
    def test_improves_or_keeps_cost(self):
        problem = toy_problem()
        start = np.array([0.125, 0.5])
        result = coordinate_descent(problem, start)
        assert result.cost <= problem.cost(start) + 1e-12

    def test_result_feasible_and_on_grid(self):
        problem = toy_problem()
        result = coordinate_descent(problem, np.array([0.125, 0.25]))
        assert problem.is_feasible(result.weights)

    def test_local_optimum_unmoved(self):
        problem = toy_problem()
        # The best direction is (1, 0); a point already optimal in its
        # neighborhood should come back unchanged with zero moves.
        result = coordinate_descent(problem, np.array([0.5, 0.0]), radius=1)
        second = coordinate_descent(problem, result.weights, radius=1)
        assert second.moves_accepted == 0
        assert np.array_equal(second.weights, result.weights)

    def test_converged_flag(self):
        problem = toy_problem()
        result = coordinate_descent(problem, np.array([0.25, 0.25]), max_sweeps=25)
        assert result.converged

    def test_zero_sweeps_budget(self):
        problem = toy_problem()
        result = coordinate_descent(problem, np.array([0.25, 0.25]), max_sweeps=0)
        assert not result.converged
        assert result.moves_accepted == 0

    def test_negative_radius_rejected(self):
        with pytest.raises(InputValidationError):
            coordinate_descent(toy_problem(), np.array([0.25, 0.25]), radius=-1)

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    @pytest.mark.parametrize("max_sweeps", [0, 1, 25])
    def test_speculative_sweep_is_the_serial_loop(self, radius, max_sweeps):
        moved = clipped = 0
        for seed in range(30):
            problem = random_problem(seed)
            fmt, m = problem.fmt, problem.num_features
            rng = np.random.default_rng(1000 + seed)
            raws = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=(6, m))
            # Starts pinned at the range edges, where the window is clipped.
            raws[1, 0] = fmt.min_raw
            raws[2, -1] = fmt.max_raw
            raws[3] = fmt.max_raw
            raws[4] = fmt.min_raw
            for start in dequantize_raw(raws, fmt):
                if scalar_score(problem, start)[0] > 1e-9:
                    continue  # feasible starts only
                got = coordinate_descent(problem, start, radius=radius, max_sweeps=max_sweeps)
                w, cost, moves, converged = serial_coordinate_descent(
                    problem, start, radius, max_sweeps
                )
                assert np.array_equal(got.weights, w)
                assert got.cost == cost
                assert got.moves_accepted == moves
                assert got.converged == converged
                moved += moves > 0
                clipped += bool(np.any(start == fmt.min_value) or np.any(start == fmt.max_value))
        assert clipped > 0
        if radius > 0 and max_sweeps > 0:
            assert moved > 0


class TestScaleSweep:
    def test_candidates_on_grid_and_nonzero(self):
        problem = toy_problem()
        candidates = [p.weights for p in scale_sweep_candidates(problem, np.array([1.0, 0.3]))]
        assert candidates
        for c in candidates:
            assert problem.on_grid(c)
            assert np.any(c)

    def test_includes_near_optimal_scaling(self):
        problem = toy_problem()
        direction = np.array([1.0, 0.0])
        candidates = [p.weights for p in scale_sweep_candidates(problem, direction)]
        best = min(
            (problem.cost(c) for c in candidates if problem.is_feasible(c)),
            default=np.inf,
        )
        # continuous optimum for this toy problem
        star = problem.continuous_optimum()
        assert best <= star * 1.05

    def test_zero_direction_empty(self):
        problem = toy_problem()
        assert scale_sweep_candidates(problem, np.zeros(2)) == []

    def test_no_duplicates(self):
        problem = toy_problem()
        candidates = [p.weights for p in scale_sweep_candidates(problem, np.array([0.7, -0.2]))]
        keys = {c.tobytes() for c in candidates}
        assert len(keys) == len(candidates)

    def test_both_signs_generated(self):
        problem = toy_problem()
        candidates = [
            p.weights
            for p in scale_sweep_candidates(problem, np.array([1.0, 0.0]), refine=False)
        ]
        signs = {np.sign(c[0]) for c in candidates}
        assert signs == {1.0, -1.0}

    @pytest.mark.parametrize("refine", [True, False])
    def test_ladder_matches_one_rung_at_a_time(self, refine):
        for seed in range(25):
            problem = random_problem(seed)
            direction = np.random.default_rng(seed).standard_normal(problem.num_features)
            got = scale_sweep_candidates(problem, direction, refine=refine)
            want = reference_ladder(problem, direction, refine=refine)
            assert [p.weights.tobytes() for p in got] == [w.tobytes() for w, _, _ in want]
            assert [(p.violation, p.cost) for p in got] == [(v, c) for _, v, c in want]
