"""Zero-dependency telemetry primitives: counters, gauges and histograms.

The serve daemon and the dist workers record into a :class:`Telemetry`
registry: labelled counters, gauges and latency histograms, rendered for
Prometheus or flattened by :meth:`Telemetry.as_counters`.  A simulation's
own counters (events, passes, shadow scans, slot splits) are not kept
here: they are a plain dict the driver owns and hands to the policy as
``SchedulerState.counts`` (see :mod:`repro.evaluation.simulator`).

The registry is intentionally small and stdlib-only; the Prometheus text
rendering lives in :mod:`repro.obs.prometheus`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "Telemetry",
    "TelemetryError",
]

#: Default histogram buckets (seconds) for request/phase latencies: the usual
#: Prometheus client defaults extended to a minute, since evaluation jobs are
#: slow compared to web requests.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: One labelled series inside a family: the sorted (name, value) label pairs.
LabelKey = Tuple[Tuple[str, str], ...]


class TelemetryError(ValueError):
    """Raised on metric misuse: kind clashes, bad buckets, negative counts."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, order-independent series key for a label set."""
    if not labels:  # the common unlabelled case: nothing to sort
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Family:
    """A named metric family holding one series per distinct label set."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text

    def label_keys(self) -> List[LabelKey]:
        """Every series' label key, deterministically ordered."""
        return sorted(self._series)  # type: ignore[attr-defined]


class CounterFamily(_Family):
    """A monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0)


class GaugeFamily(_Family):
    """A value that can go up and down (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels: object) -> None:
        """High-water mark: keep the largest value ever seen."""
        key = _label_key(labels)
        if key not in self._series or value > self._series[key]:
            self._series[key] = value

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, buckets: int) -> None:
        self.counts = [0] * (buckets + 1)  # one extra for +Inf
        self.sum = 0.0
        self.count = 0


class HistogramFamily(_Family):
    """Fixed-bucket distribution (per label set).

    Buckets follow the Prometheus convention: each upper bound is
    *inclusive* (an observation equal to a bucket edge lands in that
    bucket), and an implicit ``+Inf`` bucket catches everything beyond the
    largest edge.  Bucket counts are stored per bucket and cumulated only
    at render time.
    """

    kind = "histogram"

    def __init__(
        self, name: str, buckets: Sequence[float], help_text: str = ""
    ) -> None:
        super().__init__(name, help_text)
        uppers = [float(b) for b in buckets]
        if not uppers:
            raise TelemetryError(f"histogram {self.name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(uppers, uppers[1:])):
            raise TelemetryError(
                f"histogram {self.name!r} buckets must be strictly increasing"
            )
        self.buckets: Tuple[float, ...] = tuple(uppers)
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        # bisect_left finds the first upper bound >= value: the inclusive
        # bucket.  A value beyond every edge lands at index len(buckets),
        # the +Inf slot.
        series.counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def bucket_counts(self, **labels: object) -> List[int]:
        """Cumulative counts per bucket (ending with the +Inf total)."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        cumulative, total = [], 0
        for n in series.counts:
            total += n
            cumulative.append(total)
        return cumulative

    def sum_(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def count_(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0


class Telemetry:
    """A registry of metric families, created lazily by name.

    Asking twice for the same name returns the same family; asking for an
    existing name with a different kind (or different histogram buckets) is
    an error — silently forking a metric would corrupt both series.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _get(self, name: str, kind: type, *args) -> _Family:
        """The family ``name``, created as ``kind(name, *args)`` on first use."""
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = kind(name, *args)
        elif not isinstance(family, kind):
            raise TelemetryError(
                f"metric {name!r} is a {family.kind}, not a {kind.kind}"  # type: ignore[attr-defined]
            )
        return family

    def counter(self, name: str, help_text: str = "") -> CounterFamily:
        return self._get(name, CounterFamily, help_text)  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> GaugeFamily:
        return self._get(name, GaugeFamily, help_text)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help_text: str = "",
    ) -> HistogramFamily:
        family = self._get(name, HistogramFamily, buckets, help_text)
        if tuple(float(b) for b in buckets) != family.buckets:  # type: ignore[attr-defined]
            raise TelemetryError(
                f"histogram {name!r} was registered with different buckets"
            )
        return family  # type: ignore[return-value]

    def families(self) -> Iterator[_Family]:
        """Families in deterministic (name) order."""
        for name in sorted(self._families):
            yield self._families[name]

    def as_counters(self) -> Dict[str, float]:
        """Unlabelled counter and gauge values as one flat dict.

        Integral values come back as ``int`` so the dict serializes to the
        same JSON text on every run (a dist worker's ``extra_counters``).
        """
        snapshot: Dict[str, float] = {}
        for family in self.families():
            if isinstance(family, (CounterFamily, GaugeFamily)):
                if () not in family._series:  # labelled-only family
                    continue
                value = family.value()
                snapshot[family.name] = int(value) if value == int(value) else value
        return snapshot

