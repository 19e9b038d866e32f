"""Tests for repro.core.problem — the Eq. 21 program and Eq. 25 relaxation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.oracles import scalar_ldafp_evaluate
from repro.core.problem import LdaFpProblem, eta_inf, eta_sup
from repro.errors import OptimizationError
from repro.fixedpoint.qformat import QFormat
from repro.stats.scatter import ClassStats, TwoClassStats


def toy_stats(m: int = 2, separation: float = 1.0) -> TwoClassStats:
    mean_a = np.zeros(m)
    mean_a[0] = separation / 2
    mean_b = -mean_a
    cov = np.eye(m) * 0.25
    return TwoClassStats(
        class_a=ClassStats(mean_a, cov, 100),
        class_b=ClassStats(mean_b, cov, 100),
        within_scatter=cov,
        mean_difference=mean_a - mean_b,
    )


@pytest.fixture
def problem() -> LdaFpProblem:
    return LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), rho=0.99)


class TestEtaRules:
    def test_sup_positive_interval(self):
        assert eta_sup(1.0, 3.0) == 9.0

    def test_sup_straddling(self):
        assert eta_sup(-3.0, 1.0) == 9.0

    def test_inf_positive_interval(self):
        assert eta_inf(1.0, 3.0) == 1.0

    def test_inf_straddling_is_zero(self):
        assert eta_inf(-1.0, 2.0) == 0.0
        assert eta_inf(0.0, 2.0) == 0.0

    def test_inf_negative_interval(self):
        assert eta_inf(-3.0, -2.0) == 4.0

    def test_empty_interval_rejected(self):
        with pytest.raises(OptimizationError):
            eta_sup(1.0, 0.0)
        with pytest.raises(OptimizationError):
            eta_inf(1.0, 0.0)


class TestBetaDerivation:
    def test_rho_to_beta(self):
        problem = LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), rho=0.95)
        assert problem.beta == pytest.approx(1.959964, abs=1e-5)

    def test_explicit_beta_wins(self):
        problem = LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), rho=0.5, beta=3.0)
        assert problem.beta == 3.0

    def test_negative_beta_rejected(self):
        with pytest.raises(OptimizationError):
            LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), beta=-1.0)


class TestDiscreteChecks:
    def test_on_grid(self, problem):
        assert problem.on_grid(np.array([0.25, -0.5]))
        assert not problem.on_grid(np.array([0.3, 0.0]))

    def test_cost_matches_fisher(self, problem):
        w = np.array([1.0, 0.25])
        assert problem.cost(w) == pytest.approx(problem.stats.fisher_cost(w))

    def test_zero_weight_infeasible_cost(self, problem):
        assert problem.cost(np.zeros(2)) == np.inf

    def test_small_weights_feasible(self, problem):
        assert problem.constraint_violation(np.array([0.25, 0.0])) <= 0.0
        assert problem.is_feasible(np.array([0.25, 0.0]))

    def test_violation_matches_manual_eq18(self, problem):
        w = np.array([1.5, -1.0])
        beta = problem.beta
        stats = problem.stats
        manual = -np.inf
        lo, hi = problem.value_lo, problem.value_hi
        for cls in (stats.class_a, stats.class_b):
            for i in range(2):
                upper = w[i] * cls.mean[i] + beta * abs(w[i]) * cls.std[i]
                lower = w[i] * cls.mean[i] - beta * abs(w[i]) * cls.std[i]
                manual = max(manual, upper - hi, lo - lower)
        for cls, chol in ((stats.class_a, problem._chol_a), (stats.class_b, problem._chol_b)):
            center = float(w @ cls.mean)
            spread = beta * float(np.linalg.norm(chol.T @ w))
            manual = max(manual, center + spread - hi, lo - (center - spread))
        manual = max(manual, float(np.max(w - hi)), float(np.max(lo - w)))
        assert problem.constraint_violation(w) == pytest.approx(manual)

    def test_projection_constraint_binds_for_large_weights(self):
        # Large variance makes the SOC constraint the binding one.
        stats = toy_stats()
        big_cov = np.eye(2) * 4.0
        stats = TwoClassStats(
            class_a=ClassStats(stats.class_a.mean, big_cov, 100),
            class_b=ClassStats(stats.class_b.mean, big_cov, 100),
            within_scatter=big_cov,
            mean_difference=stats.mean_difference,
        )
        problem = LdaFpProblem(stats=stats, fmt=QFormat(2, 2), rho=0.99)
        assert problem.constraint_violation(np.array([1.0, 1.0])) > 0.0


class TestRootBox:
    def test_w_range_within_eq28(self, problem):
        box = problem.root_box()
        fmt = problem.fmt
        # Static Eq. 18 tightening can only shrink the Eq. 28 range.
        assert np.all(box.lo[:2] >= fmt.min_value - 1e-12)
        assert np.all(box.hi[:2] <= fmt.max_value + 1e-12)
        assert np.all(box.lo[:2] <= 0.0)  # w = 0 always inside
        assert np.all(box.hi[:2] >= 0.0)
        assert np.all(box.steps[:2] == fmt.resolution)
        assert box.steps[2] == 0.0  # t is continuous

    def test_static_bounds_never_cut_feasible_points(self, problem):
        """Grid points excluded by the static tightening must genuinely
        violate the Eq. 18 constraints."""
        lo, hi = problem.static_weight_bounds()
        grid = problem.fmt.grid()
        for w0 in grid:
            for w1 in grid:
                w = np.array([w0, w1])
                inside = np.all(w >= lo - 1e-12) and np.all(w <= hi + 1e-12)
                if not inside:
                    assert problem.constraint_violation(w) > 0.0

    def test_t_interval_contains_all_images_of_root(self, problem, rng):
        box = problem.root_box()
        d = problem.stats.mean_difference
        for _ in range(200):
            w = np.array(
                [
                    rng.choice(box.grid_values(0)),
                    rng.choice(box.grid_values(1)),
                ]
            )
            t = float(d @ w)
            assert box.lo[2] - 1e-12 <= t <= box.hi[2] + 1e-12

    def test_propagate_t_interval_tightens(self, problem):
        lo = np.array([-2.0, -2.0])
        hi = np.array([1.75, 1.75])
        d = problem.stats.mean_difference
        # Force t to its maximum: each w_i must sit at its extreme.
        t_max = float(np.sum(np.maximum(d * lo, d * hi)))
        result = problem.propagate_t_interval(lo, hi, t_max - 1e-9, t_max)
        assert result is not None
        new_lo, new_hi = result
        assert np.all(new_lo >= lo - 1e-12) and np.all(new_hi <= hi + 1e-12)
        # Dimensions that contribute to t (d_i != 0) get pinned to their
        # extremes; zero-coefficient dimensions carry no information.
        d = problem.stats.mean_difference
        widths = new_hi - new_lo
        assert np.all(widths[d != 0.0] < 1e-6)

    def test_propagate_t_interval_detects_empty(self, problem):
        lo = np.array([-0.25, -0.25])
        hi = np.array([0.25, 0.25])
        image_lo, image_hi = problem.linear_image(lo, hi)
        assert (
            problem.propagate_t_interval(lo, hi, image_hi + 1.0, image_hi + 2.0)
            is None
        )

    def test_exact_image_tighter_than_paper_eq29(self, problem):
        box = problem.root_box()
        fmt = problem.fmt
        d = problem.stats.mean_difference
        paper_hi = fmt.max_value * float(np.sum(np.abs(d)))
        paper_lo = fmt.min_value * float(np.sum(np.abs(d)))
        assert box.lo[2] >= paper_lo - 1e-12
        # our exact image can exceed the paper's (incorrect) upper bound
        assert box.hi[2] <= abs(fmt.min_value) * float(np.sum(np.abs(d))) + 1e-12


class TestContinuousOptimum:
    def test_formula(self, problem):
        d = problem.stats.mean_difference
        s = problem.stats.within_scatter
        expected = 1.0 / float(d @ np.linalg.solve(s, d))
        assert problem.continuous_optimum() == pytest.approx(expected)

    def test_lower_bounds_all_grid_points(self, problem):
        fmt = problem.fmt
        grid = fmt.grid()
        star = problem.continuous_optimum()
        for w0 in grid[::3]:
            for w1 in grid[::3]:
                w = np.array([w0, w1])
                cost = problem.cost(w)
                if np.isfinite(cost):
                    assert cost >= star - 1e-10

    def test_singular_within_scatter_returns_zero(self):
        stats = toy_stats()
        singular = TwoClassStats(
            class_a=stats.class_a,
            class_b=stats.class_b,
            within_scatter=np.zeros((2, 2)),
            mean_difference=stats.mean_difference,
        )
        problem = LdaFpProblem(stats=singular, fmt=QFormat(2, 2))
        assert problem.continuous_optimum() == 0.0


class TestNodeProgram:
    def test_row_count(self, problem):
        box = problem.root_box()
        program = problem.node_program(box, eta=1.0)
        # 8 rows per feature (Eq. 18) + 2 t rows
        assert len(program.linear) == 8 * 2 + 2
        assert len(program.socs) == 4

    def test_relaxation_lower_bounds_discrete_cost(self, problem):
        """The solved relaxation must lower-bound every feasible grid point
        inside the node — the core soundness property of Algorithm 1."""
        from repro.optim.slsqp_backend import solve_with_slsqp

        box = problem.root_box()
        eta = eta_sup(float(box.lo[2]), float(box.hi[2]))
        program = problem.node_program(box, eta)
        result = solve_with_slsqp(program)
        assert result.max_violation <= 1e-7
        fmt = problem.fmt
        grid = fmt.grid()
        for w0 in grid[::2]:
            for w1 in grid[::2]:
                w = np.array([w0, w1])
                if not problem.is_feasible(w):
                    continue
                cost = problem.cost(w)
                if np.isfinite(cost):
                    assert cost >= result.objective - 1e-6

    def test_eta_must_be_positive(self, problem):
        with pytest.raises(OptimizationError):
            problem.node_program(problem.root_box(), eta=0.0)

    def test_box_dimension_checked(self, problem):
        from repro.optim.boxes import Box

        bad = Box(np.zeros(2), np.ones(2), np.full(2, 0.25))
        with pytest.raises(OptimizationError):
            problem.node_program(bad, eta=1.0)

    def test_linear_image(self, problem):
        lo, hi = problem.linear_image(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        d = problem.stats.mean_difference
        assert hi == pytest.approx(float(np.sum(np.abs(d))))
        assert lo == pytest.approx(-float(np.sum(np.abs(d))))


@st.composite
def evaluator_cases(draw):
    """An instance and an ``(n, M)`` grid matrix covering the edge rows.

    ``mean_difference`` gets two equal dyadic components and a zero one (when
    ``M`` allows), so rows orthogonal to it exist on the grid and take the
    ``t == 0`` path; ``rank_deficient`` gives class covariances of rank 1,
    which go through the ``psd_floor`` Cholesky path.
    """
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    fmt = QFormat(draw(st.integers(2, 3)), draw(st.integers(0, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank_deficient = draw(st.booleans())
    d = rng.uniform(-1.0, 1.0, size=m)
    if m >= 2:
        # Dyadic, so both products of an orthogonal pair are exact and
        # cancel to 0 even under a fused multiply-add.
        d[:2] = rng.integers(-16, 17) / 16.0
    if m >= 3:
        d[2] = 0.0
    mean_a = rng.uniform(-0.5, 0.5, size=m)
    covs = []
    for _ in range(2):
        if rank_deficient:
            v = rng.standard_normal(m) * 0.2
            covs.append(np.outer(v, v))
        else:
            mixing = rng.standard_normal((m, m)) * 0.2
            covs.append(mixing @ mixing.T + 1e-3 * np.eye(m))
    stats = TwoClassStats(
        class_a=ClassStats(mean_a, covs[0], 100),
        class_b=ClassStats(mean_a - d, covs[1], 100),
        within_scatter=0.5 * (covs[0] + covs[1]),
        mean_difference=d,
    )
    problem = LdaFpProblem(stats=stats, fmt=fmt, rho=draw(st.sampled_from([0.9, 0.99])))
    n_random = draw(st.integers(0, 16))
    raws = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=(n_random, m))
    rows = [raws * fmt.resolution, np.zeros((1, m))]
    rows.append(np.full((1, m), problem.value_lo))
    rows.append(np.full((1, m), problem.value_hi))
    rows.append(np.where(np.arange(m) % 2, problem.value_lo, problem.value_hi)[None, :])
    orthogonal = []
    if m >= 2:
        pair = np.zeros((1, m))
        value = fmt.resolution * float(rng.integers(1, fmt.max_raw + 1))
        pair[0, :2] = value, -value
        orthogonal.append(pair)
    if m >= 3:
        lone = np.zeros((1, m))
        lone[0, 2] = problem.value_lo
        orthogonal.append(lone)
    matrix = np.concatenate(rows + orthogonal)
    order = rng.permutation(matrix.shape[0])
    return problem, matrix[order], np.flatnonzero(order >= matrix.shape[0] - len(orthogonal))


class TestBatchedEvaluator:
    @settings(max_examples=80, deadline=None)
    @given(evaluator_cases())
    def test_matches_scalar_reference_bit_for_bit(self, case):
        problem, matrix, orthogonal = case
        for rows in (matrix, matrix[:0], matrix[:1]):
            violation, cost = problem.evaluate(rows)
            want_violation, want_cost = scalar_ldafp_evaluate(problem, rows)
            assert violation.shape == cost.shape == (rows.shape[0],)
            assert np.array_equal(violation, want_violation)
            assert np.array_equal(cost, want_cost)
        assert np.all(np.isinf(problem.evaluate(matrix[orthogonal])[1]))

    def test_scalar_forms_are_the_one_row_case(self, problem):
        w = np.array([0.5, -0.25])
        violation, cost = problem.evaluate(w[None, :])
        assert problem.constraint_violation(w) == violation[0]
        assert problem.cost(w) == cost[0]

    def test_shape_checked(self, problem):
        with pytest.raises(OptimizationError):
            problem.evaluate(np.zeros((2, 3)))
        with pytest.raises(OptimizationError):
            problem.evaluate(np.zeros(2))
