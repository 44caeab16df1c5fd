"""The canonical public surface: registries, spec strings, scenarios, run().

Everything an evaluation needs is reachable from here::

    from repro.api import Scenario, run, run_many

    result = run(Scenario(workload="lublin99:jobs=2000,seed=1",
                          policy="easy", machine_size=128, load=0.7))
    print(result.report.mean_bounded_slowdown)

Attributes are loaded lazily (PEP 562) so that low-level modules — scheduler
and workload definitions register themselves via
:mod:`repro.api.registry` at import time — can import this package without
creating an import cycle.
"""

from __future__ import annotations

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "registry": (
            "Registry",
            "RegistryError",
            "UnknownNameError",
            "SpecError",
            "parse_spec",
            "format_spec",
            "scheduler_registry",
            "model_registry",
            "metric_registry",
            "register_scheduler",
            "register_model",
            "register_metric",
            "make_scheduler",
            "make_model",
            "get_metric",
            "scheduler_names",
            "model_names",
            "metric_names",
        ),
        "scenario": ("Scenario",),
        "runner": (
            "ScenarioResult",
            "GridPolicy",
            "run",
            "run_many",
            "resolve_workload",
            "resolve_workload_shared",
        ),
    },
)
