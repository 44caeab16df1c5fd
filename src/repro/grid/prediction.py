"""Queue-wait-time prediction for meta-scheduling.

Section 3.1: "the meta-scheduler needs to know how long a given request will
take to be processed on a given machine scheduler, under the current system
load" — and cites the queue-time-prediction line of work (Downey; Smith,
Taylor & Foster; Gibbons).  Three predictor families are implemented, from
least to most informed:

* :class:`MeanWaitPredictor` — the running mean of recently observed waits
  (what a user eyeballing the queue does);
* :class:`CategoryMeanPredictor` — Gibbons/Smith-style historical templates:
  the mean wait of past jobs in the same (size class, estimate class)
  category;
* :class:`ProfilePredictor` — Downey-style deterministic prediction from the
  current machine state: build the availability profile from running jobs'
  estimates and the queued jobs ahead, and report when the hypothetical job
  would start under conservative-backfilling assumptions.

Every predictor answers :meth:`predict_wait` and is updated with observed
(job, wait) outcomes so E9 can score their accuracy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.schedulers.base import JobRequest, RunningJobInfo
from repro.schedulers.freespace import FreeSpace

__all__ = [
    "WaitPredictor",
    "MeanWaitPredictor",
    "CategoryMeanPredictor",
    "ProfilePredictor",
    "prediction_error_summary",
]


class WaitPredictor(ABC):
    """Interface of queue-wait predictors."""

    name: str = "predictor"

    @abstractmethod
    def predict_wait(
        self,
        processors: int,
        estimate: int,
        now: float,
        total_processors: int,
        free_processors: int,
        running: List[RunningJobInfo],
        queued: List[JobRequest],
    ) -> float:
        """Predicted wait (seconds) for a job of ``processors``/``estimate`` submitted now."""

    def observe(self, processors: int, estimate: int, wait: float) -> None:
        """Record an observed (job, wait) outcome.  Default: no learning."""


class MeanWaitPredictor(WaitPredictor):
    """Sliding-window mean of recently observed waits, ignoring the job's shape."""

    name = "mean-wait"

    def __init__(self, window: int = 50) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._waits: Deque[float] = deque(maxlen=window)

    def predict_wait(self, processors, estimate, now, total_processors, free_processors, running, queued) -> float:
        if not self._waits:
            return 0.0
        return float(sum(self._waits) / len(self._waits))

    def observe(self, processors: int, estimate: int, wait: float) -> None:
        self._waits.append(max(0.0, float(wait)))


class CategoryMeanPredictor(WaitPredictor):
    """Historical mean wait per (size class, estimate class) category.

    Categories are logarithmic: size classes double (1, 2, 3-4, 5-8, ...) and
    estimate classes are decades of seconds, following the template approach
    of Gibbons and of Smith, Taylor & Foster.
    """

    name = "category-mean"

    def __init__(self) -> None:
        self._sums: Dict[Tuple[int, int], float] = defaultdict(float)
        self._counts: Dict[Tuple[int, int], int] = defaultdict(int)

    @staticmethod
    def _category(processors: int, estimate: int) -> Tuple[int, int]:
        size_class = int(math.ceil(math.log2(max(processors, 1) + 0.0))) if processors > 1 else 0
        estimate_class = int(math.log10(max(estimate, 1)))
        return size_class, estimate_class

    def predict_wait(self, processors, estimate, now, total_processors, free_processors, running, queued) -> float:
        key = self._category(processors, estimate)
        if self._counts[key] > 0:
            return self._sums[key] / self._counts[key]
        # Fall back to the global mean when the category is empty.
        total = sum(self._sums.values())
        count = sum(self._counts.values())
        return total / count if count else 0.0

    def observe(self, processors: int, estimate: int, wait: float) -> None:
        key = self._category(processors, estimate)
        self._sums[key] += max(0.0, float(wait))
        self._counts[key] += 1


class ProfilePredictor(WaitPredictor):
    """Deterministic prediction from the current machine state.

    Builds the availability profile implied by the running jobs' estimates,
    inserts the queued jobs ahead of the hypothetical job (conservative
    assumption: they all hold earlier reservations), and reports when the new
    job would start.  Accuracy is limited by estimate quality — exactly the
    effect the prediction literature documents.
    """

    name = "profile"

    def predict_wait(self, processors, estimate, now, total_processors, free_processors, running, queued) -> float:
        profile = FreeSpace.from_running(total_processors, now, running)
        for request in queued:
            profile.place(min(request.processors, total_processors), max(request.estimate, 1))
        start = profile.earliest_start(min(processors, total_processors), max(estimate, 1))
        return max(0.0, start - now)


def prediction_error_summary(pairs: List[Tuple[float, float]]) -> Dict[str, float]:
    """Accuracy summary for (predicted, actual) wait pairs.

    Reports the mean absolute error, the mean error (bias), and the mean
    actual wait for scale, which is how E9 tabulates predictor quality.
    """
    if not pairs:
        return {"mae": 0.0, "bias": 0.0, "mean_actual": 0.0, "count": 0}
    errors = [p - a for p, a in pairs]
    return {
        "mae": sum(abs(e) for e in errors) / len(errors),
        "bias": sum(errors) / len(errors),
        "mean_actual": sum(a for _, a in pairs) / len(pairs),
        "count": len(pairs),
    }
