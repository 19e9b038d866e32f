"""Discrete local search over the ``QK.F`` grid.

Part of the "additional heuristics" layer (paper Section 4 mentions
speed-up heuristics without detail).  Two roles:

1. **Polish**: coordinate-descent on the exact Eq. 21 cost starting from a
   feasible grid point (typically a rounded relaxation solution), moving one
   coordinate at a time within a small window of grid steps, accepting the
   best feasible improving move until a local optimum.  This is what makes
   large-``M`` (BCI) runs productive under a node budget.
2. **Scale sweep**: the continuous cost (Eq. 10) is scale-invariant but the
   grid is not — ``round(lambda * w)`` for different ``lambda`` yields very
   different discrete costs.  ``scale_sweep_candidates`` scans a ladder of
   scales that place the largest weight at every usable magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from ..errors import InputValidationError
from ..fixedpoint.quantize import quantize
from .problem import LdaFpProblem

__all__ = [
    "LocalSearchResult",
    "ScoredPoint",
    "coordinate_descent",
    "scale_sweep_candidates",
    "score_rows",
]

_FEAS_TOL = 1e-9


class ScoredPoint(NamedTuple):
    """A grid weight vector with its exact violation and cost."""

    weights: np.ndarray
    violation: float
    cost: float


def score_rows(problem: LdaFpProblem, rows: np.ndarray) -> "List[ScoredPoint]":
    """Score an ``(n, M)`` matrix in one :meth:`LdaFpProblem.evaluate` call."""
    violation, cost = problem.evaluate(rows)
    return [
        ScoredPoint(row, v, c)
        for row, v, c in zip(rows, violation.tolist(), cost.tolist())
    ]


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a coordinate-descent polish."""

    weights: np.ndarray
    cost: float
    moves_accepted: int
    converged: bool


def coordinate_descent(
    problem: LdaFpProblem,
    start: np.ndarray,
    radius: int = 2,
    max_sweeps: int = 25,
) -> LocalSearchResult:
    """Exact-cost coordinate descent from a feasible grid point.

    Each sweep visits the coordinates in order and moves one to the best
    feasible improving grid value within ``radius`` quanta (ties go to the
    lowest value).  The sweep is scored speculatively: every window move of
    every coordinate not yet visited is scored in one batch against the
    current point; the first coordinate with an improving move takes it,
    and the batch is rescored from the next coordinate.  Moves of the later
    coordinates were scored against the same point and cost the one-at-a-
    time sweep would have used, so the result is that sweep's result.

    Parameters
    ----------
    problem:
        The LDA-FP instance (provides cost + exact feasibility).
    start:
        Feasible grid starting point.
    radius:
        Moves considered per coordinate: grid values within ``radius``
        quanta of the current value, clipped to the format's range.
    max_sweeps:
        Sweep budget; ``converged`` is False if it runs out first.
    """
    if radius < 0:
        raise InputValidationError(f"radius must be >= 0, got {radius}")
    fmt = problem.fmt
    w = np.asarray(quantize(np.asarray(start, dtype=np.float64), fmt))
    best_cost = problem.cost(w)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    offsets = offsets[offsets != 0.0]
    moves = 0
    converged = False
    for _ in range(max_sweeps):
        improved = False
        first = 0
        while first < w.size:
            # Grid words of the window around each remaining coordinate
            # (exact: w is on the grid), coordinate-major, ascending.
            words = w[first:, None] * float(1 << fmt.fraction_bits) + offsets
            in_range = (words >= fmt.min_raw) & (words <= fmt.max_raw)
            coord = np.nonzero(in_range)[0] + first
            trials = np.repeat(w[None, :], coord.size, axis=0)
            trials[np.arange(coord.size), coord] = words[in_range] * fmt.resolution
            violation, cost = problem.evaluate(trials)
            hits = np.flatnonzero((violation <= _FEAS_TOL) & (cost < best_cost - 1e-15))
            if hits.size == 0:
                break
            i = coord[hits[0]]
            hits = hits[coord[hits] == i]
            k = hits[np.argmin(cost[hits])]
            best_cost, w[i] = float(cost[k]), trials[k, i]
            moves += 1
            improved = True
            first = i + 1
        if not improved:
            converged = True
            break
    return LocalSearchResult(weights=w, cost=best_cost, moves_accepted=moves, converged=converged)


def scale_sweep_candidates(
    problem: LdaFpProblem,
    direction: np.ndarray,
    num_scales: int = 24,
    refine: bool = True,
) -> "List[ScoredPoint]":
    """Grid roundings of ``lambda * direction`` over a ladder of scales.

    The continuous cost (Eq. 10) is invariant to ``lambda`` but the rounded
    cost is not, so the ladder runs from "largest element at one quantum" up
    to "largest element at the top of the range", geometrically spaced, in
    both signs.  With ``refine``, a second, finer ladder is placed around
    the coarse ladder's best feasible scale — this is what lets the rounded
    conventional solution reach the continuous optimum at large word
    lengths (paper Table 1, 14-16 bit rows).  Each ladder is quantized as
    one ``(2 * scales, M)`` matrix and its new rows are scored in one
    :meth:`LdaFpProblem.evaluate` call.  The all-zero rounding and repeats
    are dropped; infeasible candidates are kept, with their scores, for the
    caller to filter.
    """
    d = np.asarray(direction, dtype=np.float64)
    peak = float(np.max(np.abs(d)))
    if peak == 0.0 or not np.isfinite(peak):
        return []
    fmt = problem.fmt
    lo_scale = fmt.resolution / peak
    hi_scale = fmt.max_value / peak
    if hi_scale <= lo_scale:
        scales = np.array([hi_scale])
    else:
        scales = np.geomspace(lo_scale, hi_scale, num=num_scales)

    out: "List[ScoredPoint]" = []
    seen: "set[bytes]" = set()

    def add(ladder: np.ndarray) -> np.ndarray:
        """Append the ladder's new roundings; return each scale's best cost."""
        signed = np.repeat(ladder, 2) * np.tile([1.0, -1.0], ladder.size)
        grid = np.asarray(quantize(signed[:, None] * d, fmt))
        fresh = []
        for k in np.flatnonzero(grid.any(axis=1)).tolist():
            key = grid[k].tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(k)
        scored = score_rows(problem, grid[fresh])
        out.extend(scored)
        best = np.full(ladder.size, np.inf)
        for k, point in zip(fresh, scored):
            if point.violation <= _FEAS_TOL and point.cost < best[k // 2]:
                best[k // 2] = point.cost
        return best

    best = add(scales)
    if refine and np.isfinite(best).any():
        best_scale = float(scales[np.argmin(best)])
        add(np.linspace(best_scale / 1.4, min(best_scale * 1.4, hi_scale), 24))
    return out
