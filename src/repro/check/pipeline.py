"""The ``repro.check-report/v2`` end-to-end pipeline certificate.

A v1 certificate (:mod:`repro.check.report`) covers one datapath — the
classifier, a format, a signal stage.  A deployed monitor is a *chain*:
raw ADC words through the fixed-point FIR front end, feature extraction,
the classifier, and (when the native backend is in play) the generated C
kernel.  The v2 schema composes one v1 certificate per stage into a single
end-to-end certificate whose overall verdict is the worst stage verdict,
so "this artifact is safe to serve" is one machine-checkable object.

Stages are named; the canonical chain (emitted by ``repro check --all``)
uses :data:`KNOWN_STAGES` order::

    signal-frontend -> features -> classifier -> native-kernel

but a v2 certificate may carry any non-empty subset (a classifier with no
native backend certifies three stages).  Each stage embeds an unmodified
``repro.check-report/v1`` payload, so existing v1 tooling (witness replay,
the differential selftest) can consume any stage in isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import CheckError
from ..fixedpoint.datapath import int64_path_available
from ..fixedpoint.overflow import OverflowMode
from .report import CheckReport, Verdict

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..core.classifier import FixedPointLinearClassifier
    from ..signal.fxfir import FixedPointFir
    from ..stats.scatter import TwoClassStats
    from .certifier import FeatureBounds

__all__ = [
    "PIPELINE_REPORT_SCHEMA",
    "KNOWN_STAGES",
    "StageReport",
    "PipelineReport",
    "certify_pipeline",
    "make_pipeline_certifier",
]

PIPELINE_REPORT_SCHEMA = "repro.check-report/v2"

#: Canonical stage names in pipeline order (other names are permitted).
KNOWN_STAGES: Tuple[str, ...] = (
    "signal-frontend",
    "features",
    "classifier",
    "native-kernel",
)


@dataclass(frozen=True)
class StageReport:
    """One named stage of the pipeline with its v1 certificate."""

    stage: str
    report: CheckReport

    def __post_init__(self) -> None:
        if not self.stage:
            raise CheckError("stage name must be non-empty")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation: stage name + embedded v1 payload."""
        return {"stage": self.stage, "report": self.report.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StageReport":
        """Rebuild a stage from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping) or "stage" not in payload:
            raise CheckError("stage payload must be an object with 'stage'")
        report_payload = payload.get("report")
        if not isinstance(report_payload, Mapping):
            raise CheckError(
                f"stage {payload.get('stage')!r} carries no embedded report"
            )
        return cls(
            stage=str(payload["stage"]),
            report=CheckReport.from_dict(report_payload),
        )


@dataclass(frozen=True)
class PipelineReport:
    """A full ``repro.check-report/v2`` end-to-end certificate.

    Attributes
    ----------
    stages:
        The certified stages, in pipeline order.  At least one is required
        — an empty pipeline certificate would be vacuously PROVEN.
    metadata:
        Chain-level context (artifact path, dataset, front-end config, ...).
        Stage-level context lives on each embedded v1 certificate.
    """

    stages: Tuple[StageReport, ...]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stages:
            raise CheckError("pipeline certificate needs at least one stage")
        seen = set()
        for stage in self.stages:
            if stage.stage in seen:
                raise CheckError(f"duplicate pipeline stage {stage.stage!r}")
            seen.add(stage.stage)

    # ------------------------------------------------------------------ #
    @property
    def verdict(self) -> Verdict:
        """Worst stage verdict (VIOLATED > UNKNOWN > PROVEN)."""
        worst = Verdict.PROVEN
        for stage in self.stages:
            if stage.report.verdict.severity > worst.severity:
                worst = stage.report.verdict
        return worst

    @property
    def all_proven(self) -> bool:
        """True iff every invariant of every stage is PROVEN."""
        return self.verdict is Verdict.PROVEN

    @property
    def has_violation(self) -> bool:
        """True iff at least one stage has a VIOLATED invariant."""
        return any(stage.report.has_violation for stage in self.stages)

    @property
    def stage_names(self) -> Tuple[str, ...]:
        """Stage names in pipeline order."""
        return tuple(stage.stage for stage in self.stages)

    def stage(self, name: str) -> StageReport:
        """Look up one stage by name; raises :class:`CheckError` if absent."""
        for stage in self.stages:
            if stage.stage == name:
                return stage
        raise CheckError(f"pipeline certificate has no stage {name!r}")

    def has_stage(self, name: str) -> bool:
        """True when a stage named ``name`` is present."""
        return any(stage.stage == name for stage in self.stages)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON payload (schema ``repro.check-report/v2``)."""
        return {
            "schema": PIPELINE_REPORT_SCHEMA,
            "verdict": self.verdict.value,
            "stages": [stage.to_dict() for stage in self.stages],
            "metadata": dict(self.metadata),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The certificate as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path: str) -> None:
        """Write the certificate JSON to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PipelineReport":
        """Rebuild a v2 certificate from :meth:`to_dict` output.

        Like the v1 loader, the stored top-level ``verdict`` is recomputed
        from the stages and a disagreement raises :class:`CheckError`.
        """
        if not isinstance(payload, Mapping):
            raise CheckError(
                f"certificate payload must be a JSON object, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != PIPELINE_REPORT_SCHEMA:
            raise CheckError(
                f"unsupported certificate schema {schema!r}; "
                f"expected {PIPELINE_REPORT_SCHEMA!r}"
            )
        stages_payload = payload.get("stages")
        if not isinstance(stages_payload, (list, tuple)):
            raise CheckError("v2 certificate payload must carry a 'stages' list")
        report = cls(
            stages=tuple(StageReport.from_dict(item) for item in stages_payload),
            metadata=dict(payload.get("metadata", {})),
        )
        stored = payload.get("verdict")
        if stored is not None and stored != report.verdict.value:
            raise CheckError(
                f"certificate verdict {stored!r} disagrees with its stages "
                f"({report.verdict.value})"
            )
        return report

    @classmethod
    def load(cls, path: str) -> "PipelineReport":
        """Read a certificate written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Multi-line human-readable rendering used by the CLI."""
        lines = [
            f"certificate {PIPELINE_REPORT_SCHEMA} — "
            f"{len(self.stages)} stage(s): {' -> '.join(self.stage_names)}"
        ]
        for stage in self.stages:
            mark = {"PROVEN": "+", "VIOLATED": "!", "UNKNOWN": "?"}[
                stage.report.verdict.value
            ]
            lines.append(f"[{mark}] stage {stage.stage}: {stage.report.verdict.value}")
            for line in stage.report.summary().splitlines():
                lines.append(f"    {line}")
        lines.append(f"overall: {self.verdict.value}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# End-to-end composition
# ---------------------------------------------------------------------- #
def certify_pipeline(
    classifier: "FixedPointLinearClassifier",
    fir: "Optional[FixedPointFir]" = None,
    feature_bounds: "Optional[FeatureBounds]" = None,
    stats: "Optional[TwoClassStats]" = None,
    rho: float = 0.99,
    samples: Optional[np.ndarray] = None,
    worst_case: bool = True,
    overflow: "OverflowMode | str" = OverflowMode.WRAP,
    include_native: Optional[bool] = None,
    scale_margin: float = 0.45,
    input_bounds: Optional[Tuple[float, float]] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> PipelineReport:
    """Certify the whole signal chain into one v2 certificate.

    Stages (in :data:`KNOWN_STAGES` order):

    - ``signal-frontend`` — :func:`~repro.check.signal_certifier.certify_fir`
      on the fixed-point FIR front end (skipped when ``fir`` is None, e.g.
      an artifact served on pre-extracted features).
    - ``features`` — band-power extraction bounds feeding the classifier
      format (:func:`~repro.check.signal_certifier.certify_feature_extraction`;
      also needs ``fir``).
    - ``classifier`` — the Eq. 16-20 datapath certificate
      (:func:`~repro.check.certifier.certify_classifier`), always present.
    - ``native-kernel`` — UB proofs over the generated C
      (:func:`~repro.check.native_ub.certify_native_kernel`).
      ``include_native=None`` (auto) includes the stage only when the
      classifier admits a kernel; ``True`` forces it (a non-generable
      classifier then carries a VIOLATED ``native-kernel-generable``);
      ``False`` skips it.

    ``input_bounds`` are real-valued bounds on the raw input samples
    feeding the FIR; ``feature_bounds``/``stats``/``samples`` are the
    classifier-stage evidence (see
    :func:`~repro.check.certifier.dataset_evidence`).
    """
    from .certifier import certify_classifier
    from .native_ub import certify_native_kernel
    from .signal_certifier import certify_feature_extraction, certify_fir

    stages = []
    if fir is not None:
        stages.append(
            StageReport(
                stage="signal-frontend",
                report=certify_fir(fir, input_bounds=input_bounds),
            )
        )
        stages.append(
            StageReport(
                stage="features",
                report=certify_feature_extraction(
                    fir,
                    classifier.fmt,
                    scale_margin=scale_margin,
                    input_bounds=input_bounds,
                ),
            )
        )
    stages.append(
        StageReport(
            stage="classifier",
            report=certify_classifier(
                classifier,
                feature_bounds=feature_bounds,
                stats=stats,
                rho=rho,
                samples=samples,
                worst_case=worst_case,
            ),
        )
    )
    if include_native is None:
        include_native = int64_path_available(
            classifier.fmt, classifier.num_features
        )
    if include_native:
        stages.append(
            StageReport(
                stage="native-kernel",
                report=certify_native_kernel(
                    classifier,
                    overflow=overflow,
                    feature_bounds=feature_bounds,
                ),
            )
        )
    meta: Dict[str, Any] = {
        "overflow": OverflowMode.coerce(overflow).value,
        "fir_present": fir is not None,
    }
    if metadata:
        meta.update(metadata)
    return PipelineReport(stages=tuple(stages), metadata=meta)


def make_pipeline_certifier(
    fir: "Optional[FixedPointFir]" = None,
    feature_bounds: "Optional[FeatureBounds]" = None,
    stats: "Optional[TwoClassStats]" = None,
    rho: float = 0.99,
    samples: Optional[np.ndarray] = None,
    worst_case: bool = True,
    overflow: "OverflowMode | str" = OverflowMode.WRAP,
    include_native: Optional[bool] = None,
    input_bounds: Optional[Tuple[float, float]] = None,
) -> "Callable[[FixedPointLinearClassifier], PipelineReport]":
    """A one-argument v2 certifier closure for :class:`ModelRegistry`.

    The registry's ``require_signal_certified=True`` gate needs the
    certificate to carry a ``signal-frontend`` stage, so pass the deployed
    front end's ``fir`` here.
    """

    def certifier(classifier: "FixedPointLinearClassifier") -> PipelineReport:
        return certify_pipeline(
            classifier,
            fir=fir,
            feature_bounds=feature_bounds,
            stats=stats,
            rho=rho,
            samples=samples,
            worst_case=worst_case,
            overflow=overflow,
            include_native=include_native,
            input_bounds=input_bounds,
        )

    return certifier
