"""Tests for repro.stats: normal, scatter, crossval, metrics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from repro.errors import DataError
from repro.stats.crossval import KFold, LeaveOneOut, StratifiedKFold, train_test_split
from repro.stats.metrics import (
    accuracy,
    balanced_error,
    classification_error,
    confusion_matrix,
)
from repro.stats.normal import confidence_beta, norm_cdf, norm_pdf, norm_ppf
from repro.stats.scatter import estimate_class_stats, estimate_two_class_stats


class TestNormal:
    @given(st.floats(min_value=-8, max_value=8))
    @settings(max_examples=100)
    def test_cdf_matches_scipy(self, x):
        assert norm_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), abs=1e-12)

    @given(st.floats(min_value=1e-10, max_value=1 - 1e-10))
    @settings(max_examples=150)
    def test_ppf_matches_scipy(self, p):
        assert norm_ppf(p) == pytest.approx(
            scipy.stats.norm.ppf(p), rel=1e-8, abs=1e-8
        )

    @given(st.floats(min_value=-5, max_value=5))
    @settings(max_examples=100)
    def test_ppf_inverts_cdf(self, x):
        # Beyond |x| ~ 5 the cdf saturates and inversion loses precision by
        # construction (1 - cdf underflows relative to 1).
        assert norm_ppf(norm_cdf(x)) == pytest.approx(x, abs=1e-7)

    def test_pdf_matches_scipy(self):
        xs = np.linspace(-5, 5, 41)
        assert np.allclose(norm_pdf(xs), scipy.stats.norm.pdf(xs), atol=1e-14)

    def test_ppf_edges(self):
        assert norm_ppf(0.0) == -np.inf
        assert norm_ppf(1.0) == np.inf
        assert np.isnan(norm_ppf(-0.1))
        assert np.isnan(norm_ppf(float("nan")))

    def test_ppf_vectorized(self):
        out = norm_ppf(np.array([0.025, 0.5, 0.975]))
        assert out[1] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(1.959964, abs=1e-5)

    def test_confidence_beta_known_values(self):
        assert confidence_beta(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert confidence_beta(0.99) == pytest.approx(2.575829, abs=1e-5)
        assert confidence_beta(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_confidence_beta_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            confidence_beta(1.0)
        with pytest.raises(ValueError):
            confidence_beta(-0.1)


class TestScatter:
    def test_class_stats_mean_cov(self, rng):
        samples = rng.standard_normal((5000, 3)) * np.array([1.0, 2.0, 0.5]) + np.array(
            [1.0, -1.0, 0.0]
        )
        stats = estimate_class_stats(samples)
        assert np.allclose(stats.mean, [1.0, -1.0, 0.0], atol=0.1)
        assert np.allclose(np.diag(stats.covariance), [1.0, 4.0, 0.25], atol=0.2)
        assert stats.count == 5000

    def test_paper_normalization_is_n(self):
        samples = np.array([[0.0], [2.0]])
        stats = estimate_class_stats(samples, ddof=0)
        assert stats.covariance[0, 0] == pytest.approx(1.0)  # /N, not /(N-1)
        stats_unbiased = estimate_class_stats(samples, ddof=1)
        assert stats_unbiased.covariance[0, 0] == pytest.approx(2.0)

    def test_two_class_within_scatter(self):
        a = np.array([[0.0], [2.0]])
        b = np.array([[1.0], [1.0]])
        stats = estimate_two_class_stats(a, b)
        assert stats.within_scatter[0, 0] == pytest.approx(0.5)  # (1 + 0)/2
        assert stats.mean_difference[0] == pytest.approx(0.0)
        assert stats.midpoint[0] == pytest.approx(1.0)

    def test_between_scatter_outer_product(self, synthetic_stats):
        d = synthetic_stats.mean_difference
        assert np.allclose(synthetic_stats.between_scatter, np.outer(d, d))

    def test_fisher_cost_matches_formula(self, synthetic_stats):
        w = np.array([1.0, 0.5, -0.5])
        expected = (w @ synthetic_stats.within_scatter @ w) / (
            synthetic_stats.mean_difference @ w
        ) ** 2
        assert synthetic_stats.fisher_cost(w) == pytest.approx(expected)

    def test_fisher_cost_orthogonal_is_inf(self):
        from repro.stats.scatter import ClassStats, TwoClassStats

        stats = TwoClassStats(
            class_a=ClassStats(np.array([1.0, 0.0]), np.eye(2), 10),
            class_b=ClassStats(np.array([-1.0, 0.0]), np.eye(2), 10),
            within_scatter=np.eye(2),
            mean_difference=np.array([2.0, 0.0]),
        )
        assert stats.fisher_cost(np.array([0.0, 1.0])) == np.inf

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            estimate_class_stats(np.array([[np.nan]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DataError):
            estimate_two_class_stats(np.ones((3, 2)), np.ones((3, 3)))


class TestCrossval:
    def test_kfold_partitions(self):
        labels = np.zeros(10)
        folds = list(KFold(n_splits=5, shuffle=False).split(labels))
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test) == list(range(10))
        for train, test in folds:
            assert set(train) & set(test) == set()
            assert len(train) + len(test) == 10

    def test_kfold_uneven(self):
        labels = np.zeros(7)
        sizes = [len(test) for _, test in KFold(n_splits=3, shuffle=False).split(labels)]
        assert sorted(sizes) == [2, 2, 3]

    def test_kfold_too_many_splits(self):
        with pytest.raises(DataError):
            list(KFold(n_splits=5).split(np.zeros(3)))

    def test_stratified_preserves_ratio(self):
        labels = np.array([0] * 50 + [1] * 50)
        for train, test in StratifiedKFold(n_splits=5, seed=3).split(labels):
            assert np.sum(labels[test] == 0) == 10
            assert np.sum(labels[test] == 1) == 10

    def test_stratified_partitions_everything(self):
        labels = np.array([0] * 33 + [1] * 27)
        folds = list(StratifiedKFold(n_splits=5, seed=1).split(labels))
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test) == list(range(60))

    def test_stratified_rejects_tiny_class(self):
        with pytest.raises(DataError):
            list(StratifiedKFold(n_splits=5).split(np.array([0, 0, 0, 1, 1])))

    def test_stratified_deterministic_given_seed(self):
        labels = np.array([0, 1] * 20)
        a = [t.tolist() for _, t in StratifiedKFold(n_splits=4, seed=7).split(labels)]
        b = [t.tolist() for _, t in StratifiedKFold(n_splits=4, seed=7).split(labels)]
        assert a == b

    def test_leave_one_out(self):
        folds = list(LeaveOneOut().split(np.zeros(4)))
        assert len(folds) == 4
        assert all(len(test) == 1 for _, test in folds)

    def test_train_test_split_stratified(self):
        labels = np.array([0] * 40 + [1] * 40)
        train, test = train_test_split(labels, test_fraction=0.25, seed=2)
        assert np.sum(labels[test] == 0) == 10
        assert np.sum(labels[test] == 1) == 10
        assert sorted(np.concatenate([train, test])) == list(range(80))

    def test_train_test_split_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros(10), test_fraction=1.5)


class TestMetrics:
    def test_classification_error(self):
        assert classification_error([1, 1, 0, 0], [1, 0, 0, 0]) == 0.25
        assert accuracy([1, 1], [1, 1]) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            classification_error([1, 0], [1])

    def test_empty(self):
        with pytest.raises(DataError):
            classification_error([], [])

    def test_confusion_matrix_counts(self):
        cm = confusion_matrix([1, 1, 0, 0, 0], [1, 0, 0, 1, 0])
        assert (cm.true_a, cm.false_b, cm.false_a, cm.true_b) == (1, 1, 1, 2)
        assert cm.total == 5
        assert cm.error == pytest.approx(0.4)
        assert cm.sensitivity == pytest.approx(0.5)
        assert cm.specificity == pytest.approx(2 / 3)

    def test_confusion_matrix_rejects_nonbinary(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 2], [0, 1])

    def test_balanced_error(self):
        # class A: 1 of 2 wrong; class B: 0 of 2 wrong -> balanced 0.25
        assert balanced_error([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(0.25)
