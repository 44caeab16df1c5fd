"""``repro serve``: the scheduler-evaluation service.

The paper's case for *shared* evaluation standards becomes an economic
argument once evaluation is served: identical questions must share one
computation.  This package is the serving layer over the substrate the
library already has — JSON :class:`~repro.api.scenario.Scenario` specs, the
content-addressed :class:`~repro.bench.store.ResultStore`, digest-addressed
traces — exposed as a small stdlib-only HTTP daemon:

* :mod:`repro.serve.service` — digest-keyed jobs, request coalescing, the
  bounded admission queue with backpressure, graceful draining, and the
  transport-agnostic request router;
* :mod:`repro.serve.daemon`  — the asyncio HTTP/1.1 adapter and the
  blocking :func:`~repro.serve.daemon.serve` entry point behind
  ``repro serve``;
* :mod:`repro.serve.html`    — the self-contained HTML report view at
  ``/v1/reports/<digest>``.

Endpoints: ``POST /v1/runs``, ``GET /v1/runs[/<id>]``,
``GET /v1/results/<digest>`` (ETag/304), ``GET /v1/reports/<digest>``,
``GET /v1/healthz``.

Attributes load lazily (PEP 562, same idiom as :mod:`repro.api`).
"""

from __future__ import annotations

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "service": (
            "EvaluationService",
            "Evaluation",
            "Job",
            "Response",
            "SubmissionError",
            "QueueFull",
            "ServiceDraining",
            "resolve_submission",
        ),
        "daemon": ("ServeConfig", "ReproServer", "serve"),
        "html": ("render_report",),
    },
)
