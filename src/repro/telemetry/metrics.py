"""Counter, Gauge, and Histogram primitives in a process-local registry.

The simulator's telemetry needs are modest but strict:

* **zero dependencies** — the primitives are plain Python over ints and
  floats, importable everywhere without pulling in the simulation stack;
* **zero cost when disabled** — disabled telemetry is no registry at
  all: instrumented code guards on a ``telem is None`` hook and pays
  nothing;
* **mergeable** — experiment cells run in worker processes, so every
  metric must aggregate across processes.  Snapshots merge with
  :func:`merge_snapshots`: counters and histogram buckets add, gauges
  combine under their declared policy (``max`` by default, ``min`` for
  headroom-style minima, ``last`` for single-writer point-in-time
  values).  ``max``/``min`` merges are associative and commutative, so
  the aggregate is independent of worker scheduling — the same guarantee
  the parallel harness makes for results.  ``last`` is associative but
  takes the right-hand operand, so it is only scheduling-independent
  when a single writer owns the gauge (the intended use).

Naming convention: dotted lowercase paths (``events.page-retire``,
``phase.software-apply.seconds``).  The registry rejects re-registering a
name as a different metric type — a typo'd kind would otherwise corrupt
both series silently.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError

Number = Union[int, float]

#: Default histogram bucket upper bounds (seconds-ish scale; callers pass
#: their own bounds for anything with different units).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: Default SLO quantiles reported for latency-style histograms.
SLO_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Gauge merge policies: how two snapshots of the same gauge combine.
GAUGE_MODES: Tuple[str, ...] = ("max", "min", "last")


class Counter:
    """A monotonically non-decreasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add *amount* (>= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        self.value += amount

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A point-in-time value (last write wins within a process).

    Across snapshots the gauge combines under its *mode*: ``max`` (the
    historical default — high-water marks), ``min`` (low-water marks,
    e.g. the worst wear-headroom across shards), or ``last`` (the
    incoming snapshot wins — single-writer point-in-time values).  The
    default ``max`` mode snapshots as a bare number, exactly as before
    the modes existed; ``min``/``last`` gauges snapshot as
    ``{"value": ..., "mode": ...}`` so merges know the policy.
    """

    __slots__ = ("name", "value", "mode")

    def __init__(self, name: str, mode: str = "max") -> None:
        if mode not in GAUGE_MODES:
            raise ConfigurationError(
                f"gauge {name!r}: unknown merge mode {mode!r}; "
                f"choose from {GAUGE_MODES}")
        self.name = name
        self.mode = mode
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def combine(self, value: Number) -> None:
        """Fold one snapshot *value* in under this gauge's merge mode."""
        if self.mode == "max":
            self.value = max(self.value, value)
        elif self.mode == "min":
            self.value = min(self.value, value)
        else:
            self.value = value

    def snapshot(self) -> object:
        if self.mode == "max":
            return self.value
        return {"value": self.value, "mode": self.mode}


class Histogram:
    """Fixed-bound bucketed distribution of observed values.

    ``bounds`` are strictly increasing upper bounds; an implicit overflow
    bucket catches everything above the last bound, so ``counts`` has
    ``len(bounds) + 1`` entries and :meth:`cumulative` is monotone with
    total count as its last element.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds_t = tuple(float(b) for b in bounds)
        if not bounds_t:
            raise ConfigurationError(
                f"histogram {name!r} needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds_t, bounds_t[1:])):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds_t
        self.counts: List[int] = [0] * (len(bounds_t) + 1)
        self.total = 0
        self.sum: Number = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: Sequence[Number]) -> None:
        """Record every value in *values*: one sort, one bisect per bound.

        Buckets and ``total`` match one :meth:`observe` per value; so
        does ``sum`` for ints (float sums may round differently).
        """
        ordered = sorted(values)
        below = 0
        for i, bound in enumerate(self.bounds):
            upto = bisect.bisect_right(ordered, bound)
            self.counts[i] += upto - below
            below = upto
        self.counts[-1] += len(ordered) - below
        self.total += len(ordered)
        self.sum += sum(ordered)

    def cumulative(self) -> List[int]:
        """Running totals per bucket; non-decreasing, ends at :attr:`total`."""
        out: List[int] = []
        acc = 0
        for count in self.counts:
            acc += count
            out.append(acc)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile of the observed distribution.

        Delegates to :func:`histogram_quantile` over this histogram's
        snapshot — same estimator live or from a merged snapshot.
        """
        return histogram_quantile(self.snapshot(), q)

    def snapshot(self) -> Dict[str, object]:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "total": self.total, "sum": self.sum}


class Registry:
    """Process-local, name-addressed home of every metric."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------- accessors

    def counter(self, name: str) -> Counter:
        """The counter registered under *name* (created on first use)."""
        found = self._counters.get(name)
        if found is None:
            self._check_free(name, self._counters)
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str, mode: Optional[str] = None) -> Gauge:
        """The gauge registered under *name* (created on first use).

        *mode* fixes the merge policy on first use (default ``max``).
        Passing a mode for an existing gauge asserts it: a mismatch is a
        configuration error — the same gauge cannot merge two ways.
        """
        found = self._gauges.get(name)
        if found is None:
            self._check_free(name, self._gauges)
            found = self._gauges[name] = Gauge(
                name, mode if mode is not None else "max")
        elif mode is not None and found.mode != mode:
            raise ConfigurationError(
                f"gauge {name!r} is registered with merge mode "
                f"{found.mode!r}, not {mode!r}")
        return found

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram under *name* (created on first use with *bounds*)."""
        found = self._histograms.get(name)
        if found is None:
            self._check_free(name, self._histograms)
            found = self._histograms[name] = Histogram(name, bounds)
        return found

    def _check_free(self, name: str, owner: Mapping[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not owner and name in family:
                raise ConfigurationError(
                    f"metric name {name!r} is already registered as a "
                    f"different type")

    # ------------------------------------------------------------- snapshots

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready dump of every registered metric."""
        return {
            "counters": {n: c.snapshot() for n, c in
                         sorted(self._counters.items())},
            "gauges": {n: g.snapshot() for n, g in
                       sorted(self._gauges.items())},
            "histograms": {n: h.snapshot() for n, h in
                           sorted(self._histograms.items())},
        }

    def merge(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(_as_number(value))
        for name, value in snapshot.get("gauges", {}).items():
            number, mode = gauge_payload(name, value)
            existing = self._gauges.get(name)
            if existing is None:
                self.gauge(name, mode).set(number)
            else:
                if existing.mode != mode:
                    raise ConfigurationError(
                        f"gauge {name!r} merge mode differs between "
                        f"snapshots: {existing.mode!r} vs {mode!r}")
                existing.combine(number)
        for name, data in snapshot.get("histograms", {}).items():
            if not isinstance(data, Mapping):
                raise ConfigurationError(
                    f"histogram snapshot {name!r} is not a mapping")
            bounds = [float(b) for b in _as_list(data, "bounds")]
            histogram = self.histogram(name, bounds)
            if list(histogram.bounds) != bounds:
                raise ConfigurationError(
                    f"histogram {name!r} bounds differ between snapshots")
            counts = [int(c) for c in _as_list(data, "counts")]
            if len(counts) != len(histogram.counts):
                raise ConfigurationError(
                    f"histogram {name!r} bucket count differs between "
                    f"snapshots")
            for i, count in enumerate(counts):
                histogram.counts[i] += count
            histogram.total += int(_as_number(data["total"]))
            histogram.sum += _as_number(data["sum"])


def merge_snapshots(a: Mapping[str, Mapping[str, object]],
                    b: Mapping[str, Mapping[str, object]],
                    ) -> Dict[str, Dict[str, object]]:
    """Pure merge of two snapshots; associative.

    Counters and histogram buckets add; gauges combine under their
    declared merge policy (``max`` — the default for bare-number gauge
    snapshots — ``min``, or ``last``).  ``max``/``min`` are commutative,
    so those aggregates are independent of worker completion order;
    ``last`` takes *b*'s value and is only order-independent when a
    single writer owns the gauge.
    """
    merged = Registry()
    merged.merge(a)
    merged.merge(b)
    return merged.snapshot()


def deterministic_snapshot(snapshot: Mapping[str, Mapping[str, object]],
                           ) -> Dict[str, Dict[str, object]]:
    """Drop wall-clock phase counters so snapshots are run-stable.

    ``phase.<name>.seconds`` counters measure real elapsed time and differ
    between otherwise identical runs; every other metric of a seeded run
    is deterministic (``phase.<name>.calls`` included).
    """
    counters = {name: value
                for name, value in snapshot.get("counters", {}).items()
                if not (name.startswith("phase.")
                        and name.endswith(".seconds"))}
    return {"counters": counters,
            "gauges": dict(snapshot.get("gauges", {})),
            "histograms": dict(snapshot.get("histograms", {}))}


def gauge_payload(name: str, value: object) -> Tuple[Number, str]:
    """``(value, mode)`` of one gauge's snapshot entry.

    Accepts both forms: a bare number (the historical ``max``-mode
    snapshot) and the ``{"value": ..., "mode": ...}`` mapping that
    ``min``/``last`` gauges emit.
    """
    if isinstance(value, Mapping):
        mode = value.get("mode")
        if not isinstance(mode, str) or mode not in GAUGE_MODES:
            raise ConfigurationError(
                f"gauge snapshot {name!r} has bad merge mode {mode!r}")
        return _as_number(value.get("value")), mode
    return _as_number(value), "max"


def gauge_value(value: object) -> Number:
    """The numeric reading of one gauge snapshot entry, either form."""
    return gauge_payload("<gauge>", value)[0]


def histogram_quantile(data: Mapping[str, object], q: float) -> float:
    """Estimate the *q*-quantile of one histogram snapshot.

    The estimator is the standard bucketed one (what Prometheus calls
    ``histogram_quantile``): find the bucket holding the ``q * total``-th
    observation in cumulative order and interpolate linearly inside it,
    taking ``0.0`` (or the first bound, when negative) as the lower edge
    of the first bucket.  The open overflow bucket has no upper edge, so
    quantiles landing there clamp to the last bound — callers wanting
    exact tails must size their bounds past them.

    Deterministic and snapshot-native: merged snapshots (bucket counts
    added across shards/workers) yield exactly the quantiles of the
    union of observations, up to the shared bucket resolution.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    bounds = [float(b) for b in _as_list(data, "bounds")]
    counts = [int(c) for c in _as_list(data, "counts")]
    if len(counts) != len(bounds) + 1:
        raise ConfigurationError(
            "histogram snapshot needs len(bounds) + 1 bucket counts")
    total = sum(counts)
    if total <= 0:
        raise ConfigurationError("cannot take a quantile of an empty "
                                 "histogram")
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if i >= len(bounds):
                return bounds[-1]  # open overflow bucket: clamp
            hi = bounds[i]
            lo = min(0.0, bounds[0]) if i == 0 else bounds[i - 1]
            fraction = max(0.0, rank - cumulative) / count
            return lo + fraction * (hi - lo)
        cumulative += count
    return bounds[-1]  # pragma: no cover - rank <= total always lands


def quantile_label(q: float) -> str:
    """Canonical ``pNN`` label for a quantile (``0.99`` -> ``"p99"``)."""
    text = f"{q * 100:.10g}"
    return f"p{text}"


def snapshot_quantiles(snapshot: Mapping[str, Mapping[str, object]],
                       quantiles: Sequence[float] = SLO_QUANTILES,
                       ) -> Dict[str, Dict[str, float]]:
    """Per-histogram quantile table of a registry snapshot.

    Returns ``{histogram name: {"p50": ..., "p95": ..., "p99": ...}}``
    for every non-empty histogram in *snapshot* (empty ones are skipped —
    they have no quantiles).  Works on single and merged snapshots alike.
    """
    table: Dict[str, Dict[str, float]] = {}
    for name, data in snapshot.get("histograms", {}).items():
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"histogram snapshot {name!r} is not a mapping")
        if int(_as_number(data["total"])) <= 0:
            continue
        table[name] = {quantile_label(q): histogram_quantile(data, q)
                       for q in quantiles}
    return table


def _as_number(value: object) -> Number:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"expected a number in snapshot, got "
                                 f"{value!r}")
    return value


def _as_list(data: Mapping[str, object], key: str) -> Sequence[object]:
    value = data.get(key)
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ConfigurationError(f"expected a list under {key!r} in "
                                 f"histogram snapshot")
    return value


__all__ = ["Counter", "Gauge", "Histogram", "Registry", "merge_snapshots",
           "gauge_payload", "gauge_value",
           "histogram_quantile", "quantile_label", "snapshot_quantiles",
           "DEFAULT_BUCKETS", "SLO_QUANTILES", "GAUGE_MODES"]
