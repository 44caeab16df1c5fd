"""Per-layer attribution, measured from outside the program.

A :class:`LayerClock` replaces public functions of each layer with timing
wrappers and puts the originals back on :meth:`LayerClock.restore`.  The
wrappers keep a stack of open frames, so every layer is charged its *self*
time: a frame's duration minus the time spent in wrapped calls made from
inside it.  Self times of all frames sum to the wall time spent inside the
outermost frame, which is what ``trace.unattributed_frac`` checks.

Two wrappers do more than time a call:

* ``Simulator.schedule_at`` wraps each event callback in a ``driver`` frame,
  so the engine's self time is ``Simulator.run`` minus the callbacks it
  dispatches;
* a policy's ``select_jobs`` wraps ``state.min_capacity`` (the announced
  capacity function) before handing the state on, so the capacity layer is
  timed wherever the policy calls it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple


class Observed:
    """What the wrappers recorded during one phase of a run."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        #: inclusive per-call durations, for keys that need percentiles
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: distinct argument keys (workloads materialized)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.bytes: Counter = Counter()
        self.hits: Counter = Counter()


class LayerClock:
    """Self-time accounting for wrapped functions, grouped by layer key."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.phases: Dict[str, Observed] = defaultdict(Observed)
        self.now = self.phases["setup"]

    def phase(self, name: str) -> None:
        """Record into the observations of phase ``name`` from here on."""
        self.now = self.phases[name]

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def call(self, key: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` in a frame charged to ``key``; returns (result, inclusive s)."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            now = self.now
            now.seconds[key] += elapsed - frame[0]
            now.calls[key] += 1
            if stack:
                stack[-1][0] += elapsed
        return result, elapsed

    def timed(self, key: str, fn: Callable) -> Callable:
        clock = self

        def wrapper(*args, **kwargs):
            return clock.call(key, fn, *args, **kwargs)[0]

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` by ``wrapper`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_method(self, cls: type, attr: str, key: str) -> None:
        if attr in cls.__dict__:
            self.patch(cls, attr, self.timed(key, cls.__dict__[attr]))

    def patch_function(self, module: Any, name: str, key: str, wrapper_factory=None) -> None:
        """Wrap a module-level function in every ``repro`` module that imported it."""
        original = getattr(module, name)
        wrapper = (wrapper_factory or (lambda fn: self.timed(key, fn)))(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and mod.__dict__.get(name) is original:
                self.patch(mod, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        return list(self._patches)

    # ------------------------------------------------------------------
    # the repository's layers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every layer the benchmark reports."""
        from repro.api import runner as api_runner
        from repro.bench import runner as bench_runner
        from repro.bench import store as bench_store
        from repro.evaluation.simulator import MachineSimulation
        from repro.machine.cluster import Machine
        from repro.metrics import basic as metrics_basic
        from repro.schedulers.base import Scheduler
        from repro.schedulers.freespace import FreeSpace, FreeSpaceTracker
        from repro.simulation.engine import Simulator

        clock = self

        # engine + driver
        self.patch_method(Simulator, "run", "engine.run")
        schedule_at = Simulator.__dict__["schedule_at"]

        def timed_schedule_at(sim, time, callback, *args, **kwargs):
            def driver_callback(*cb_args, **cb_kwargs):
                return clock.call("driver", callback, *cb_args, **cb_kwargs)[0]

            return clock.call(
                "engine.schedule_at", schedule_at, sim, time, driver_callback, *args, **kwargs
            )[0]

        self.patch(Simulator, "schedule_at", timed_schedule_at)
        self.patch_method(MachineSimulation, "run", "driver")

        # machine allocator
        for attr in ("free_count", "allocate", "release"):
            self.patch_method(Machine, attr, f"machine.{attr}")
        self.patch_method(Machine, "fail_nodes", "machine.outage")
        self.patch_method(Machine, "restore_nodes", "machine.outage")

        # policies, and the capacity function they are handed
        def policy_wrapper(select_jobs):
            def timed_select(policy, state):
                min_capacity = state.min_capacity
                if not hasattr(min_capacity, "__wrapped__"):
                    state.min_capacity = clock.timed("capacity.min_capacity", min_capacity)
                result, elapsed = clock.call("policy.select", select_jobs, policy, state)
                clock.now.samples["policy.select"].append(elapsed)
                return result

            return timed_select

        for cls in _subclasses(Scheduler):
            if "select_jobs" in cls.__dict__:
                self.patch(cls, "select_jobs", policy_wrapper(cls.__dict__["select_jobs"]))

        # free-space tracker
        self.patch_method(FreeSpaceTracker, "sync", "freespace.sync")
        for attr in ("earliest_start", "reserve", "copy"):
            self.patch_method(FreeSpace, attr, f"freespace.{attr}")
        self.patch_method(FreeSpace, "clamp_capacity", "freespace.clamp")

        # workload materialization, metrics, suite runner, store
        def generate_wrapper(resolve_workload):
            def timed_resolve(scenario, *args, **kwargs):
                clock.now.distinct["workloads.generate"].add(
                    (scenario.workload, scenario.jobs, scenario.machine_size, scenario.seed)
                )
                return clock.call("workloads.generate", resolve_workload, scenario, *args, **kwargs)[0]

            return timed_resolve

        self.patch_function(api_runner, "resolve_workload", "workloads.generate", generate_wrapper)
        self.patch_function(metrics_basic, "compute_metrics", "metrics.compute")
        self.patch_function(bench_store, "result_key", "runner.result_key")
        self.patch_function(bench_runner, "run_suite", "runner")

        put = bench_store.ResultStore.__dict__["put"]
        get = bench_store.ResultStore.__dict__["get"]

        def timed_put(store, entry):
            path = clock.call("store.put", put, store, entry)[0]
            clock.now.bytes["store.put"] += path.stat().st_size
            return path

        def timed_get(store, key):
            hit = clock.call("store.get", get, store, key)[0]
            clock.now.hits["store.get"] += hit is not None
            return hit

        self.patch(bench_store.ResultStore, "put", timed_put)
        self.patch(bench_store.ResultStore, "get", timed_get)

    def install_setup(self) -> None:
        """Wrap only trace materialization, the layer set-up exercises."""
        from repro.traces.trace import Trace

        self.patch_method(Trace, "materialize", "traces.materialize")


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def layer_metrics(cold: Observed, warm: Observed, cold_passes: int, warm_passes: int) -> Dict[str, float]:
    """Per-pass layer times and calls from the cold and warm phases of a run."""
    s, n = cold.seconds, cold.calls
    per_cold = 1.0 / max(1, cold_passes)
    per_warm = 1.0 / max(1, warm_passes)
    select = sorted(cold.samples["policy.select"])
    get_calls = warm.calls["store.get"]
    capacity_calls = n["capacity.min_capacity"]
    return {
        "engine.self_s": (s["engine.run"] + s["engine.schedule_at"]) * per_cold,
        "engine.schedule_calls": n["engine.schedule_at"] * per_cold,
        "driver.self_s": s["driver"] * per_cold,
        "machine.free_count_s": s["machine.free_count"] * per_cold,
        "machine.free_count_calls": n["machine.free_count"] * per_cold,
        "machine.allocate_s": s["machine.allocate"] * per_cold,
        "machine.release_s": s["machine.release"] * per_cold,
        "machine.outage_s": s["machine.outage"] * per_cold,
        "policy.select_s": s["policy.select"] * per_cold,
        "policy.select_calls": n["policy.select"] * per_cold,
        "policy.select_p50_us": _percentile(select, 0.50) * 1e6,
        "policy.select_p99_us": _percentile(select, 0.99) * 1e6,
        "freespace.sync_s": s["freespace.sync"] * per_cold,
        "freespace.earliest_start_s": s["freespace.earliest_start"] * per_cold,
        "freespace.earliest_start_calls": n["freespace.earliest_start"] * per_cold,
        "freespace.reserve_s": s["freespace.reserve"] * per_cold,
        "freespace.copy_s": s["freespace.copy"] * per_cold,
        "freespace.clamp_s": s["freespace.clamp"] * per_cold,
        "capacity.min_capacity_s": s["capacity.min_capacity"] * per_cold,
        "capacity.min_capacity_calls": capacity_calls * per_cold,
        "capacity.min_capacity_us_per_call": (
            s["capacity.min_capacity"] / capacity_calls * 1e6 if capacity_calls else 0.0
        ),
        "workloads.generate_s": s["workloads.generate"] * per_cold,
        "workloads.generate_calls": n["workloads.generate"] * per_cold,
        "workloads.distinct": len(cold.distinct["workloads.generate"]),
        "metrics.compute_s": s["metrics.compute"] * per_cold,
        "store.put_s": s["store.put"] * per_cold,
        "store.put_calls": n["store.put"] * per_cold,
        "store.put_bytes": cold.bytes["store.put"] * per_cold,
        "store.get_s": warm.seconds["store.get"] * per_warm,
        "store.get_calls": get_calls * per_warm,
        "store.get_hit_ratio": warm.hits["store.get"] / get_calls if get_calls else 0.0,
        "runner.result_key_s": warm.seconds["runner.result_key"] * per_warm,
        "runner.self_s": warm.seconds["runner"] * per_warm,
        "runner.cold_self_s": s["runner"] * per_cold,
    }


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]
