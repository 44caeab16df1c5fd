"""parsched-bench: benchmarks and standards for evaluating parallel job schedulers.

A reproduction of Chapin, Cirne, Feitelson, Jones, Leutenegger,
Schwiegelshohn, Smith & Talby, "Benchmarks and Standards for the Evaluation
of Parallel Job Schedulers" (IPPS/SPDP JSSPP 1999).

Top-level convenience imports cover the most common entry points; the
subpackages hold the full API:

* :mod:`repro.api` — the canonical front door: registries, spec strings,
  :class:`Scenario`, and the unified :func:`run` / :func:`run_many`,
* :mod:`repro.core` — the SWF and outage-log standards,
* :mod:`repro.workloads` — workload models (rigid, flexible, sessions),
* :mod:`repro.schedulers` — machine-scheduling policies,
* :mod:`repro.evaluation` — the simulation drivers and their results,
* :mod:`repro.metrics` — metrics, objectives, ranking comparison,
* :mod:`repro.grid` — metacomputing: sites, meta-schedulers, reservations,
* :mod:`repro.appsched` — program graphs and the WARMstones environment,
* :mod:`repro.data` — synthetic archive traces,
* :mod:`repro.experiments` — the E1..E10 experiment harnesses.
"""

from repro.api.registry import (
    make_model,
    make_scheduler,
    model_names,
    parse_spec,
    scheduler_names,
)
from repro.api.scenario import Scenario
from repro.api.runner import ScenarioResult, run, run_many
from repro.core.swf import (
    SWFHeader,
    SWFJob,
    Workload,
    parse_swf,
    parse_swf_text,
    validate,
    write_swf,
    write_swf_text,
)
from repro.core.outage import OutageLog, OutageRecord, OutageType, generate_outages
from repro.data import synthetic_archive
from repro.evaluation import simulate
from repro.metrics import ObjectiveFunction, compute_metrics, rank_schedulers
from repro.schedulers import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FCFSScheduler,
    simulate_gang,
)
from repro.workloads import (
    Downey97Model,
    Feitelson96Model,
    Jann97Model,
    Lublin99Model,
    SessionModel,
    UniformModel,
)

__version__ = "1.1.0"

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run",
    "run_many",
    "make_scheduler",
    "make_model",
    "scheduler_names",
    "model_names",
    "parse_spec",
    "SWFHeader",
    "SWFJob",
    "Workload",
    "parse_swf",
    "parse_swf_text",
    "validate",
    "write_swf",
    "write_swf_text",
    "OutageLog",
    "OutageRecord",
    "OutageType",
    "generate_outages",
    "synthetic_archive",
    "simulate",
    "ObjectiveFunction",
    "compute_metrics",
    "rank_schedulers",
    "FCFSScheduler",
    "EasyBackfillScheduler",
    "ConservativeBackfillScheduler",
    "simulate_gang",
    "Downey97Model",
    "Feitelson96Model",
    "Jann97Model",
    "Lublin99Model",
    "SessionModel",
    "UniformModel",
    "__version__",
]
