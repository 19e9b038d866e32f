"""Static overflow/width certification of the classifier datapath.

The paper's core guarantee (Section 3, Eq. 16-20) is that with
two's-complement *wrapping* arithmetic, intermediate sums of the dot
product may overflow freely: the final register holds the exact value of
``w'x - threshold`` if and only if that exact value is representable in
``QK.F``.  The serving stack verifies this dynamically (wrap-event
counters); this module proves or refutes it **statically**, before any
sample is run, by abstract interpretation over raw integer words.

The abstraction is interval propagation made *exact*: for a fixed weight
word ``w`` the narrowed product ``shift_right_rounded(w * x, F)`` is
monotone in ``x`` (and bilinear over a ``(w, x)`` box), so evaluating the
interval corners in unbounded Python-int arithmetic yields the true
attainable min/max of every datapath node — per-feature products (Eq. 18),
the accumulated projection (Eq. 16-17 worst case), and the final decision
value.  Because every feature coordinate varies independently, interval
sums are attainable too, which is why exact-mode verdicts come with
replayable witnesses: a VIOLATED invariant names a concrete on-grid input
vector that any bit-exact simulator overflows on, and the differential
tests replay exactly that.

A second, *statistical* family of invariants re-checks the same nodes
under the paper's own Gaussian model at confidence ``rho`` (reusing
:mod:`repro.wordlength.range_analysis`), which is how the LDA-FP solver
constrained them during training.

Results are emitted as a :class:`~repro.check.report.CheckReport`
(``repro.check-report/v1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.classifier import FixedPointLinearClassifier
from ..errors import CheckError, DataError
from ..fixedpoint.datapath import int64_path_available
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import quantize_raw
from ..fixedpoint.rounding import RoundingMode, shift_right_rounded
from ..stats.scatter import TwoClassStats
from ..wordlength.range_analysis import statistical_ranges
from .report import CheckReport, Invariant, Verdict

__all__ = [
    "FeatureBounds",
    "certify_classifier",
    "certify_format",
    "dataset_evidence",
    "make_certifier",
]

# The serving engine's int64 fast path holds 63 magnitude bits; see
# repro.fixedpoint.datapath.int64_path_available.
_INT64_MAGNITUDE_BITS = 63


@dataclass(frozen=True)
class FeatureBounds:
    """Per-feature real-valued input bounds ``[lo_m, hi_m]``.

    The certifier admits every input whose quantized raw word lies between
    the quantizations of ``lo`` and ``hi`` (quantization is monotone, so
    that set is exactly the grid points of the interval).  Bounds wider
    than the format's range are harmless: input quantization saturates, so
    they clip to the representable range.
    """

    lo: np.ndarray
    hi: np.ndarray
    source: str = "explicit"

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DataError(
                f"feature bounds must be matching vectors, got {lo.shape} / {hi.shape}"
            )
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DataError("feature bounds must be finite")
        if np.any(hi < lo):
            raise DataError("feature bounds cross (hi < lo)")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def num_features(self) -> int:
        """Number of feature coordinates covered by the bounds."""
        return int(self.lo.shape[0])

    # ------------------------------------------------------------------ #
    @classmethod
    def from_format(cls, fmt: QFormat, num_features: int) -> "FeatureBounds":
        """The widest admissible bounds: the format's own range.

        This is what input-quantization saturation enforces, so it is the
        sound default when nothing is known about the data.
        """
        if num_features < 1:
            raise DataError(f"num_features must be >= 1, got {num_features}")
        return cls(
            lo=np.full(num_features, fmt.min_value),
            hi=np.full(num_features, fmt.max_value),
            source="format-range",
        )

    @classmethod
    def from_data(cls, features: np.ndarray, margin: float = 0.0) -> "FeatureBounds":
        """Empirical per-feature min/max, optionally widened.

        ``margin`` widens each side by that fraction of the feature's
        empirical range (``margin=0.05`` adds 5% headroom per side), so a
        certificate generalizes a little beyond the exact sample set.
        """
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.size == 0:
            raise DataError(f"features must be a non-empty (N, M) array, got {x.shape}")
        if margin < 0.0:
            raise DataError(f"margin must be >= 0, got {margin}")
        lo = np.min(x, axis=0)
        hi = np.max(x, axis=0)
        slack = margin * (hi - lo)
        return cls(lo=lo - slack, hi=hi + slack, source="dataset")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (conformance-witness hook): floats stay exact
        through a JSON round-trip, so the rebuilt bounds are bit-identical."""
        return {
            "lo": [float(v) for v in self.lo],
            "hi": [float(v) for v in self.hi],
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FeatureBounds":
        """Rebuild bounds serialized by :meth:`to_dict`."""
        if not isinstance(payload, dict) or "lo" not in payload or "hi" not in payload:
            raise DataError("feature-bounds payload must have 'lo' and 'hi' lists")
        return cls(
            lo=np.asarray(payload["lo"], dtype=np.float64),
            hi=np.asarray(payload["hi"], dtype=np.float64),
            source=str(payload.get("source", "explicit")),
        )

    def raw_intervals(
        self, fmt: QFormat, rounding: "RoundingMode | str"
    ) -> List[Tuple[int, int]]:
        """Per-feature attainable raw-word intervals after quantization."""
        lo_raws = quantize_raw(self.lo, fmt, rounding=rounding)
        hi_raws = quantize_raw(self.hi, fmt, rounding=rounding)
        return [
            (int(lo), int(hi))
            for lo, hi in zip(np.atleast_1d(lo_raws), np.atleast_1d(hi_raws))
        ]


# ---------------------------------------------------------------------- #
# Exact interval propagation over raw words
# ---------------------------------------------------------------------- #
def _narrowed_product(w: int, x: int, fraction_bits: int, rounding: RoundingMode) -> int:
    """The datapath's narrowed product of two raw words, exactly."""
    return shift_right_rounded(w * x, fraction_bits, rounding)


def _product_interval(
    w_lo: int,
    w_hi: int,
    x_lo: int,
    x_hi: int,
    fraction_bits: int,
    rounding: RoundingMode,
) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """Exact min/max of the narrowed product over a ``(w, x)`` raw box.

    ``w * x`` is bilinear over the box (extremes at corners) and the
    narrowing shift is monotone, so corner evaluation is exact.  Returns
    ``((min_value, w, x), (max_value, w, x))`` with the attaining corners.
    """
    corners = [
        (w, x)
        for w in ({w_lo, w_hi})
        for x in ({x_lo, x_hi})
    ]
    values = [
        (_narrowed_product(w, x, fraction_bits, rounding), w, x) for w, x in corners
    ]
    return min(values), max(values)


def _interval_invariant(
    invariant_id: str,
    description: str,
    lo: int,
    hi: int,
    fmt: QFormat,
    attainable: bool,
    witness_lo: Optional[Dict[str, Any]],
    witness_hi: Optional[Dict[str, Any]],
    detail_ok: str = "",
) -> Invariant:
    """Build an exact-mode invariant from a raw-word interval.

    ``attainable`` distinguishes the degenerate-weight (trained classifier)
    case, where an out-of-range bound is a replayable VIOLATED witness,
    from the weight-box case, where it only means *some* classifier in the
    box could overflow — reported as UNKNOWN.
    """
    bounds = {
        "lo_raw": int(lo),
        "hi_raw": int(hi),
        "min_raw": fmt.min_raw,
        "max_raw": fmt.max_raw,
    }
    below = lo < fmt.min_raw
    above = hi > fmt.max_raw
    if not below and not above:
        return Invariant(
            id=invariant_id,
            description=description,
            verdict=Verdict.PROVEN,
            mode="exact",
            bounds=bounds,
            detail=detail_ok,
        )
    witness = witness_hi if above else witness_lo
    side = "above max_raw" if above else "below min_raw"
    if attainable:
        return Invariant(
            id=invariant_id,
            description=description,
            verdict=Verdict.VIOLATED,
            mode="exact",
            bounds=bounds,
            witness=witness,
            detail=f"attainable value {side}",
        )
    return Invariant(
        id=invariant_id,
        description=description,
        verdict=Verdict.UNKNOWN,
        mode="exact",
        bounds=bounds,
        detail=(
            f"some classifier in the weight box reaches {side}; "
            "no single-classifier witness is implied"
        ),
    )


def _structural_invariants(fmt: QFormat, num_features: int) -> List[Invariant]:
    """Invariants depending only on the format and feature count."""
    carry_bits = math.ceil(math.log2(max(int(num_features), 2)))
    required = 2 * fmt.word_length + carry_bits
    available = _INT64_MAGNITUDE_BITS
    ok = int64_path_available(fmt, num_features)
    return [
        Invariant(
            id="int64-fast-path",
            description=(
                "serving engine int64 fast path is exact: "
                "2*(K+F) + ceil(log2 M) <= 63"
            ),
            verdict=Verdict.PROVEN if ok else Verdict.VIOLATED,
            mode="structural",
            bounds={
                "required_bits": required,
                "available_bits": available,
                "word_length": fmt.word_length,
                "num_features": int(num_features),
            },
            detail=(
                ""
                if ok
                else "engine falls back to the unbounded-int object path"
            ),
        )
    ]


def _sum_witness(
    fmt: QFormat,
    x_choices: List[int],
    total: int,
    key: str,
) -> Dict[str, Any]:
    """A replayable witness vector for a sum-type violation."""
    return {
        "features": [float(fmt.to_real(x)) for x in x_choices],
        "feature_raws": [int(x) for x in x_choices],
        key: int(total),
    }


def _exact_invariants(
    fmt: QFormat,
    rounding: RoundingMode,
    weight_boxes: List[Tuple[int, int]],
    threshold_box: Tuple[int, int],
    feature_bounds: FeatureBounds,
    worst_case: bool = True,
) -> List[Invariant]:
    """The exact-mode invariant family over raw-word boxes.

    ``weight_boxes`` / ``threshold_box`` are degenerate (lo == hi) when a
    trained classifier is being certified; then every bound is attainable
    and violations carry witnesses.  ``worst_case=False`` keeps only the
    per-feature product invariant (the box-corner sum claims are stronger
    than what statistical training guarantees).
    """
    m = len(weight_boxes)
    if feature_bounds.num_features != m:
        raise DataError(
            f"feature bounds cover {feature_bounds.num_features} features, "
            f"classifier has {m}"
        )
    x_boxes = feature_bounds.raw_intervals(fmt, rounding)
    degenerate = all(lo == hi for lo, hi in weight_boxes) and (
        threshold_box[0] == threshold_box[1]
    )

    product_lo: List[Tuple[int, int, int]] = []
    product_hi: List[Tuple[int, int, int]] = []
    for (w_lo, w_hi), (x_lo, x_hi) in zip(weight_boxes, x_boxes):
        lo, hi = _product_interval(w_lo, w_hi, x_lo, x_hi, fmt.fraction_bits, rounding)
        product_lo.append(lo)
        product_hi.append(hi)

    # Eq. 18: each narrowed product must be representable.
    worst_lo = min(range(m), key=lambda i: product_lo[i][0])
    worst_hi = max(range(m), key=lambda i: product_hi[i][0])
    prod_min = product_lo[worst_lo][0]
    prod_max = product_hi[worst_hi][0]

    def product_witness(index: int, corner: Tuple[int, int, int]) -> Dict[str, Any]:
        value, w, x = corner
        return {
            "feature_index": index,
            "feature": float(fmt.to_real(x)),
            "feature_raw": int(x),
            "weight": float(fmt.to_real(w)),
            "weight_raw": int(w),
            "product_raw": int(value),
        }

    invariants = [
        _interval_invariant(
            "product-range",
            "per-feature narrowed products w_m * x_m stay in QK.F (Eq. 18)",
            prod_min,
            prod_max,
            fmt,
            attainable=degenerate,
            witness_lo=product_witness(worst_lo, product_lo[worst_lo]),
            witness_hi=product_witness(worst_hi, product_hi[worst_hi]),
        )
    ]

    if not worst_case:
        return invariants

    # Eq. 16-17 worst case: the exact projection sum.  Feature coordinates
    # vary independently, so the interval sum is attained by the
    # per-feature extreme choices.
    sum_lo = sum(corner[0] for corner in product_lo)
    sum_hi = sum(corner[0] for corner in product_hi)
    x_for_lo = [corner[2] for corner in product_lo]
    x_for_hi = [corner[2] for corner in product_hi]
    invariants.append(
        _interval_invariant(
            "accumulator-range",
            "the exact projection sum w'x stays in QK.F (Eq. 16-17, worst case)",
            sum_lo,
            sum_hi,
            fmt,
            attainable=degenerate,
            witness_lo=_sum_witness(fmt, x_for_lo, sum_lo, "sum_raw"),
            witness_hi=_sum_witness(fmt, x_for_hi, sum_hi, "sum_raw"),
            detail_ok="intermediate wrap-and-recover is certified safe",
        )
    )

    # Final decision value: with wrapping arithmetic the congruence
    # result == w'x - t (mod 2**(K+F)) always holds, so the hardware result
    # is exact iff the exact decision value is representable — the paper's
    # central claim, certified here.
    t_lo, t_hi = threshold_box
    dec_lo = sum_lo - t_hi
    dec_hi = sum_hi - t_lo
    invariants.append(
        _interval_invariant(
            "decision-range",
            "the exact decision value w'x - threshold stays in QK.F (Eq. 12, 20)",
            dec_lo,
            dec_hi,
            fmt,
            attainable=degenerate,
            witness_lo=_sum_witness(fmt, x_for_lo, dec_lo, "decision_raw"),
            witness_hi=_sum_witness(fmt, x_for_hi, dec_hi, "decision_raw"),
        )
    )
    return invariants


def _statistical_invariants(
    fmt: QFormat,
    weights: np.ndarray,
    threshold: float,
    stats: TwoClassStats,
    rho: float,
    include_decision: bool = True,
) -> List[Invariant]:
    """Gaussian-model invariants at confidence ``rho`` (Eq. 16-20).

    ``include_decision`` gates the decision-node invariant: the LDA-FP
    solver constrains products (Eq. 18) and the projection (Eq. 16-17) but
    not the subtraction node, so demanding it refutes legitimately trained
    classifiers; see :func:`certify_classifier`'s ``worst_case``.
    """
    if not 0.0 < rho < 1.0:
        raise CheckError(f"rho must be in (0, 1), got {rho}")
    ranges = statistical_ranges(stats, weights, threshold, rho=rho)

    def real_invariant(
        invariant_id: str, description: str, lo: float, hi: float
    ) -> Invariant:
        bounds = {
            "lo": float(lo),
            "hi": float(hi),
            "min_value": fmt.min_value,
            "max_value": fmt.max_value,
        }
        inside = lo >= fmt.min_value and hi <= fmt.max_value
        return Invariant(
            id=invariant_id,
            description=description,
            verdict=Verdict.PROVEN if inside else Verdict.VIOLATED,
            mode="statistical",
            bounds=bounds,
            confidence=rho,
            detail=(
                ""
                if inside
                else "the beta-sigma interval exceeds the representable range"
            ),
        )

    prod_lo = float(np.min(ranges.products[:, 0]))
    prod_hi = float(np.max(ranges.products[:, 1]))
    invariants = [
        real_invariant(
            "product-range-statistical",
            "per-feature products stay in QK.F at confidence rho (Eq. 18)",
            prod_lo,
            prod_hi,
        ),
        real_invariant(
            "accumulator-range-statistical",
            "the projection w'x stays in QK.F at confidence rho (Eq. 16-17)",
            ranges.accumulator[0],
            ranges.accumulator[1],
        ),
    ]
    if include_decision:
        invariants.append(
            real_invariant(
                "decision-range-statistical",
                "the decision value stays in QK.F at confidence rho (Eq. 20)",
                ranges.decision[0],
                ranges.decision[1],
            )
        )
    return invariants


def _empirical_invariants(
    fmt: QFormat,
    rounding: RoundingMode,
    weight_raws: List[int],
    threshold_raw: int,
    samples: np.ndarray,
) -> List[Invariant]:
    """Exact per-sample invariants over a concrete (scaled) dataset.

    These certify what the training pipeline actually establishes: on every
    quantized training sample, the exact accumulated projection and the
    exact decision value stay representable.  Violations carry the
    offending sample as a replayable witness.  (Per-feature product bounds
    over the empirical box already equal the per-sample extremes, so
    products are covered by the exact ``product-range`` invariant.)
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise DataError(f"samples must be a non-empty (N, M) array, got {x.shape}")
    if x.shape[1] != len(weight_raws):
        raise DataError(
            f"samples have {x.shape[1]} features, classifier has {len(weight_raws)}"
        )
    x_raws = np.asarray(quantize_raw(x, fmt, rounding=rounding))

    sum_lo = sum_hi = dec_lo = dec_hi = None
    sum_witness: Optional[Dict[str, Any]] = None
    dec_witness: Optional[Dict[str, Any]] = None
    for index, row in enumerate(x_raws):
        row_ints = [int(v) for v in row]
        total = sum(
            _narrowed_product(w, v, fmt.fraction_bits, rounding)
            for w, v in zip(weight_raws, row_ints)
        )
        decision = total - threshold_raw
        if sum_lo is None or total < sum_lo:
            sum_lo = total
        if sum_hi is None or total > sum_hi:
            sum_hi = total
        if dec_lo is None or decision < dec_lo:
            dec_lo = decision
        if dec_hi is None or decision > dec_hi:
            dec_hi = decision
        if sum_witness is None and not fmt.min_raw <= total <= fmt.max_raw:
            sum_witness = _sum_witness(fmt, row_ints, total, "sum_raw")
            sum_witness["sample_index"] = index
        if dec_witness is None and not fmt.min_raw <= decision <= fmt.max_raw:
            dec_witness = _sum_witness(fmt, row_ints, decision, "decision_raw")
            dec_witness["sample_index"] = index

    assert sum_lo is not None and sum_hi is not None
    assert dec_lo is not None and dec_hi is not None

    def empirical(
        invariant_id: str,
        description: str,
        lo: int,
        hi: int,
        witness: Optional[Dict[str, Any]],
    ) -> Invariant:
        bounds = {
            "lo_raw": int(lo),
            "hi_raw": int(hi),
            "min_raw": fmt.min_raw,
            "max_raw": fmt.max_raw,
            "num_samples": int(x.shape[0]),
        }
        if witness is None:
            return Invariant(
                id=invariant_id,
                description=description,
                verdict=Verdict.PROVEN,
                mode="empirical",
                bounds=bounds,
            )
        return Invariant(
            id=invariant_id,
            description=description,
            verdict=Verdict.VIOLATED,
            mode="empirical",
            bounds=bounds,
            witness=witness,
            detail=f"sample {witness['sample_index']} overflows",
        )

    return [
        empirical(
            "accumulator-range-empirical",
            "the exact projection w'x stays in QK.F on every dataset sample",
            sum_lo,
            sum_hi,
            sum_witness,
        ),
        empirical(
            "decision-range-empirical",
            "the exact decision value stays in QK.F on every dataset sample",
            dec_lo,
            dec_hi,
            dec_witness,
        ),
    ]


# ---------------------------------------------------------------------- #
# Public entry points
# ---------------------------------------------------------------------- #
def certify_classifier(
    classifier: FixedPointLinearClassifier,
    feature_bounds: Optional[FeatureBounds] = None,
    stats: Optional[TwoClassStats] = None,
    rho: float = 0.99,
    samples: Optional[np.ndarray] = None,
    worst_case: bool = True,
    metadata: Optional[Dict[str, Any]] = None,
) -> CheckReport:
    """Statically certify a trained classifier's datapath invariants.

    Parameters
    ----------
    classifier:
        The trained (grid-exact) classifier.
    feature_bounds:
        Admissible input region; defaults to the format's full range (what
        saturation enforces) — sound but usually far wider than any scaled
        dataset, so prefer dataset-derived bounds when available.
    stats:
        Two-class statistics of the (scaled, quantized) training data.
        When given, the statistical invariant family (the constraints the
        LDA-FP solver actually imposed) is certified at confidence ``rho``.
    rho:
        Confidence level of the statistical invariants (paper Eq. 16).
    samples:
        ``(N, M)`` scaled real feature rows (the training set after the
        pipeline's scaler).  When given, exact per-sample accumulator and
        decision invariants are certified (``*-range-empirical``).
    worst_case:
        Include the box-corner exact sum invariants and the statistical
        decision invariant.  These are *stronger than what LDA-FP training
        guarantees* (the solver's Eq. 16-18 constraints are statistical and
        do not cover the subtraction node), so ``repro check`` disables
        them in dataset mode; see ``docs/static_checks.md``.
    metadata:
        Extra key/values recorded in the certificate.

    Returns
    -------
    CheckReport
        The ``repro.check-report/v1`` certificate.
    """
    fmt = classifier.fmt
    rounding = classifier.rounding
    if rounding is RoundingMode.STOCHASTIC:
        raise CheckError("stochastic rounding cannot be certified exactly")
    if feature_bounds is None:
        feature_bounds = FeatureBounds.from_format(fmt, classifier.num_features)

    weight_raws = [
        int(r) for r in np.atleast_1d(np.asarray(fmt.to_raw(classifier.weights)))
    ]
    threshold_raw = int(fmt.to_raw(classifier.threshold))

    invariants = _structural_invariants(fmt, classifier.num_features)
    invariants += _exact_invariants(
        fmt,
        rounding,
        [(w, w) for w in weight_raws],
        (threshold_raw, threshold_raw),
        feature_bounds,
        worst_case=worst_case,
    )
    if samples is not None:
        invariants += _empirical_invariants(
            fmt, rounding, weight_raws, threshold_raw, samples
        )
    if stats is not None:
        invariants += _statistical_invariants(
            fmt,
            classifier.weights,
            classifier.threshold,
            stats,
            rho,
            include_decision=worst_case,
        )

    meta: Dict[str, Any] = {"rounding": rounding.value}
    if stats is not None:
        meta["rho"] = float(rho)
    if metadata:
        meta.update(metadata)
    return CheckReport(
        format=str(fmt),
        num_features=classifier.num_features,
        invariants=tuple(invariants),
        subject="classifier",
        bound_source=feature_bounds.source,
        metadata=meta,
    )


def certify_format(
    fmt: QFormat,
    num_features: int,
    feature_bounds: Optional[FeatureBounds] = None,
    weight_bounds: Optional[FeatureBounds] = None,
    rounding: "RoundingMode | str" = RoundingMode.NEAREST_AWAY,
    metadata: Optional[Dict[str, Any]] = None,
) -> CheckReport:
    """Certify a ``QK.F`` format *before training* (weight-box mode).

    Weights and threshold range over boxes (default: the format's whole
    range, i.e. "any classifier this format can express"; pass solver box
    constraints for a tighter pre-check).  PROVEN means every classifier in
    the box satisfies the invariant for every admissible input; a bound
    failure is reported as UNKNOWN because no *single* classifier is
    implied to violate it.
    """
    rounding = RoundingMode.coerce(rounding)
    if rounding is RoundingMode.STOCHASTIC:
        raise CheckError("stochastic rounding cannot be certified exactly")
    if num_features < 1:
        raise DataError(f"num_features must be >= 1, got {num_features}")
    if feature_bounds is None:
        feature_bounds = FeatureBounds.from_format(fmt, num_features)
    if weight_bounds is None:
        weight_bounds = FeatureBounds(
            lo=np.full(num_features, fmt.min_value),
            hi=np.full(num_features, fmt.max_value),
            source="format-range",
        )
    if weight_bounds.num_features != num_features:
        raise DataError(
            f"weight bounds cover {weight_bounds.num_features} features, "
            f"expected {num_features}"
        )

    weight_boxes = weight_bounds.raw_intervals(fmt, rounding)
    threshold_box = (fmt.min_raw, fmt.max_raw)
    invariants = _structural_invariants(fmt, num_features)
    invariants += _exact_invariants(
        fmt, rounding, weight_boxes, threshold_box, feature_bounds
    )
    meta: Dict[str, Any] = {"rounding": rounding.value}
    if metadata:
        meta.update(metadata)
    return CheckReport(
        format=str(fmt),
        num_features=num_features,
        invariants=tuple(invariants),
        subject="format",
        bound_source=feature_bounds.source,
        metadata=meta,
    )


def dataset_evidence(
    dataset: Any,
    fmt: QFormat,
    rounding: "RoundingMode | str" = RoundingMode.NEAREST_AWAY,
    scale_margin: float = 0.45,
    margin: float = 0.0,
) -> Tuple[FeatureBounds, TwoClassStats, np.ndarray]:
    """Replicate the training pipeline's preprocessing as certificate evidence.

    Mirrors :class:`~repro.core.pipeline.TrainingPipeline`: fit the feature
    scaler (``limit = scale_margin * 2**(K-1)``) on the dataset, scale, and
    quantize to the grid.  Returns the empirical :class:`FeatureBounds` of
    the quantized features (optionally widened by ``margin``), the
    two-class statistics the LDA-FP solver would constrain against, and the
    scaled sample matrix for the empirical invariants.

    ``dataset`` is a :class:`~repro.data.dataset.Dataset` (label 1 = class
    A, matching :func:`~repro.stats.scatter.estimate_two_class_stats`).
    """
    from ..data.scaling import FeatureScaler
    from ..fixedpoint.quantize import quantize
    from ..stats.scatter import estimate_two_class_stats

    rounding = RoundingMode.coerce(rounding)
    scaler = FeatureScaler(limit=scale_margin * 2.0 ** (fmt.integer_bits - 1))
    scaler.fit(dataset.features)
    scaled = np.asarray(scaler.transform(dataset.features), dtype=np.float64)
    quantized = np.asarray(quantize(scaled, fmt, rounding=rounding))
    labels = np.asarray(dataset.labels)
    bounds = FeatureBounds.from_data(quantized, margin=margin)
    stats = estimate_two_class_stats(quantized[labels == 1], quantized[labels == 0])
    return bounds, stats, scaled


def make_certifier(
    feature_bounds: Optional[FeatureBounds] = None,
    stats: Optional[TwoClassStats] = None,
    rho: float = 0.99,
    samples: Optional[np.ndarray] = None,
    worst_case: bool = True,
) -> Callable[[FixedPointLinearClassifier], CheckReport]:
    """A one-argument certifier closure for :class:`ModelRegistry`.

    The registry calls it with each classifier at registration time and
    refuses models whose certificate has a VIOLATED invariant (see
    ``docs/static_checks.md``).
    """

    def certifier(classifier: FixedPointLinearClassifier) -> CheckReport:
        return certify_classifier(
            classifier,
            feature_bounds=feature_bounds,
            stats=stats,
            rho=rho,
            samples=samples,
            worst_case=worst_case,
        )

    return certifier
