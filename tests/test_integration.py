"""End-to-end integration tests across subsystem boundaries.

These check the claims the library is built around, at test-suite budgets:
LDA-FP beats rounded LDA at small word lengths, the trained classifier is
consistent between the float path, the bit-exact datapath, and the
generated C semantics, and the whole train->quantize->deploy flow holds
together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classifier import FixedPointLinearClassifier
from repro.core.ldafp import LdaFpConfig, train_lda_fp
from repro.core.pipeline import PipelineConfig, TrainingPipeline
from repro.data.bci import BciConfig, make_bci_dataset
from repro.data.scaling import FeatureScaler
from repro.data.synthetic import make_synthetic_dataset
from repro.fixedpoint.datapath import DatapathConfig, FixedPointDatapath
from repro.fixedpoint.qformat import QFormat
from repro.stats.crossval import StratifiedKFold


class TestHeadlineClaim:
    """Paper abstract: LDA-FP >> rounded LDA at aggressive word lengths."""

    def test_synthetic_4bit_gap(self):
        train = make_synthetic_dataset(1500, seed=10)
        test = make_synthetic_dataset(3000, seed=11)
        lda = TrainingPipeline(PipelineConfig(method="lda", lda_shrinkage=0.0))
        fp = TrainingPipeline(
            PipelineConfig(
                method="lda-fp", ldafp=LdaFpConfig(max_nodes=200, time_limit=20)
            )
        )
        lda_error = lda.run(train, test, 4).test_error
        fp_error = fp.run(train, test, 4).test_error
        assert lda_error > 0.45  # chance
        assert fp_error < 0.35  # far better

    def test_errors_converge_at_large_wordlength(self):
        train = make_synthetic_dataset(1500, seed=12)
        test = make_synthetic_dataset(3000, seed=13)
        lda = TrainingPipeline(PipelineConfig(method="lda", lda_shrinkage=0.0))
        fp = TrainingPipeline(
            PipelineConfig(
                method="lda-fp", ldafp=LdaFpConfig(max_nodes=50, time_limit=15)
            )
        )
        lda_error = lda.run(train, test, 16).test_error
        fp_error = fp.run(train, test, 16).test_error
        assert abs(lda_error - fp_error) < 0.05

    def test_bci_small_wordlength_gap(self):
        ds = make_bci_dataset(BciConfig(seed=5))
        train_idx, test_idx = next(StratifiedKFold(5, seed=0).split(ds.labels))
        train, test = ds.subset(train_idx), ds.subset(test_idx)
        lda = TrainingPipeline(
            PipelineConfig(method="lda", lda_shrinkage=1e-3)
        )
        fp = TrainingPipeline(
            PipelineConfig(
                method="lda-fp",
                ldafp=LdaFpConfig(
                    max_nodes=20, time_limit=10, shrinkage=1e-3, local_search_radius=1
                ),
            )
        )
        lda_error = lda.run(train, test, 4).test_error
        fp_error = fp.run(train, test, 4).test_error
        assert fp_error <= lda_error + 0.05  # never meaningfully worse


class TestDeploymentConsistency:
    def test_float_and_bitexact_mostly_agree(self):
        train = make_synthetic_dataset(800, seed=20)
        test = make_synthetic_dataset(400, seed=21)
        fp = TrainingPipeline(
            PipelineConfig(
                method="lda-fp", ldafp=LdaFpConfig(max_nodes=50, time_limit=10)
            )
        )
        result = fp.run(train, test, 6)
        scaler = FeatureScaler(limit=0.45 * 2.0)
        scaler.fit(train.features)
        scaled = scaler.transform(test.features)
        fast = result.classifier.predict(scaled)
        exact = result.classifier.predict_bitexact(scaled)
        # Product rounding flips decisions for samples within ~1 LSB of the
        # boundary (this dataset is heavily overlapped, so that's a visible
        # fraction), but the two paths' *error rates* must agree closely and
        # no overflow wrap should cause wholesale divergence.
        fast_error = float(np.mean(fast != test.labels))
        exact_error = float(np.mean(exact != test.labels))
        assert abs(fast_error - exact_error) < 0.05
        assert float(np.mean(fast == exact)) > 0.75

    def test_python_datapath_matches_c_semantics(self):
        """Emulate the generated C's integer flow and compare bit-for-bit."""
        fmt = QFormat(2, 4)
        weights = np.array([0.5, -0.75, 1.25])
        clf = FixedPointLinearClassifier(weights, 0.375, fmt)
        rng = np.random.default_rng(0)
        features = rng.uniform(-2, 2, size=(100, 3))

        def c_classify(row: np.ndarray) -> int:
            mask = (1 << fmt.word_length) - 1
            sign_bit = 1 << (fmt.word_length - 1)

            def wrap_q(value: int) -> int:
                value &= mask
                if value & sign_bit:
                    value -= mask + 1
                return value

            acc = 0
            w_raws = [int(fmt.to_raw(w)) for w in clf.weights]
            # The C deployment receives pre-quantized integer features; the
            # front-end quantizer here must match the datapath's FLOOR mode.
            x_raws = [
                int(
                    np.clip(
                        np.floor(x * (1 << fmt.fraction_bits)),
                        fmt.min_raw,
                        fmt.max_raw,
                    )
                )
                for x in row
            ]
            for w_raw, x_raw in zip(w_raws, x_raws):
                full = w_raw * x_raw
                product = wrap_q(full >> fmt.fraction_bits)  # floor narrow
                acc = wrap_q(acc + product)
            decision = wrap_q(acc - int(fmt.to_raw(clf.threshold)))
            return 0 if decision < 0 else 1

        from repro.fixedpoint.rounding import RoundingMode

        datapath = FixedPointDatapath(
            clf.weights,
            clf.threshold,
            DatapathConfig(fmt=fmt, rounding=RoundingMode.FLOOR),
        )
        for row in features:
            assert datapath.classify(row) == c_classify(row)


class TestCrossValidationFlow:
    def test_cv_loop_runs_clean(self):
        ds = make_bci_dataset(BciConfig(trials_per_class=40, seed=1))
        pipe = TrainingPipeline(PipelineConfig(method="lda", lda_shrinkage=0.01))
        errors = []
        for train_idx, test_idx in StratifiedKFold(4, seed=0).split(ds.labels):
            result = pipe.run(ds.subset(train_idx), ds.subset(test_idx), 8)
            errors.append(result.test_error)
        assert len(errors) == 4
        assert all(0.0 <= e <= 1.0 for e in errors)


class TestTrainCertifyServe:
    """Train -> statically certify -> admit into the serving registry.

    The certificate covers exactly what the LDA-FP solver guarantees
    (per-sample empirical exactness plus its own statistical constraint
    set), so a freshly trained artifact must come out all-PROVEN and the
    certification-gated registry must accept it.
    """

    def test_synthetic_artifact_is_provable_and_servable(self):
        from repro.check import certify_classifier, dataset_evidence, make_certifier
        from repro.serve import ModelRegistry

        train = make_synthetic_dataset(1500, seed=0)
        pipe = TrainingPipeline(
            PipelineConfig(ldafp=LdaFpConfig(max_nodes=50, time_limit=10))
        )
        result = pipe.run(train, train, word_length=6)
        classifier = result.classifier

        bounds, stats, scaled = dataset_evidence(train, classifier.fmt)
        report = certify_classifier(
            classifier,
            feature_bounds=bounds,
            stats=stats,
            samples=scaled,
            worst_case=False,
        )
        assert report.all_proven, report.summary()

        registry = ModelRegistry(
            certifier=make_certifier(
                feature_bounds=bounds, stats=stats, samples=scaled, worst_case=False
            )
        )
        model = registry.register("clf", classifier)
        assert model.certificate is not None and model.certificate.all_proven
        assert "cert=PROVEN" in model.describe()
