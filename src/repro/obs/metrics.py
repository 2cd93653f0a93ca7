"""Metric aggregation and exporters (Prometheus text + JSON).

Three layers:

* primitives — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
  (fixed upper-bound buckets, cumulative on export like Prometheus);
* :class:`MetricsRegistry` — named, labelled families of primitives with
  :meth:`~MetricsRegistry.to_prometheus_text` /
  :meth:`~MetricsRegistry.to_dict` exporters and a strict
  :func:`parse_prometheus_text` scrape-parse validator (what the CI
  smoke job runs against exported files);
* :class:`RunMetrics` — the engines' aggregator.  Its
  :meth:`~RunMetrics.record_step` is the per-step hot path, so it only
  buffers the sample; the batch is folded vectorised at run end (or
  before any export), and a registry is materialised on export only.
  Sparse occurrences (faults, retries, quarantines, journal writes)
  arrive through dedicated methods that cost nothing on healthy steps.
  Both engines record one sample per unit step, so every family except
  ``krad_step_wall_seconds`` is identical across engines, which
  :mod:`repro.sim.conformance` checks.

Metric families all carry the ``krad_`` prefix; docs/OBSERVABILITY.md
is the reference list.  Counters accumulate across every run observed
by one :class:`~repro.obs.Observability`; gauges reflect the most
recently finished run.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunMetrics",
    "parse_prometheus_text",
]

#: step wall-time buckets (seconds) — spans micro-step reference loops
#: to multi-millisecond vectorised steps
WALL_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 1.0,
)

#: desire-satisfaction / utilization ratio buckets (dimensionless)
RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

#: per-step reallocation volume buckets (processor units moved)
REALLOC_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: round-robin queue depth buckets (marked jobs, summed over categories)
RR_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Counter:
    """Monotone accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed upper-bound buckets plus sum/count, Prometheus-style.

    ``buckets`` are strictly increasing inclusive upper bounds; an
    implicit ``+Inf`` bucket catches the rest.  Per-bucket counts are
    stored disjoint and cumulated on export (the exposition format's
    convention).
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_bounds")

    def __init__(self, buckets) -> None:
        bs = tuple(float(b) for b in buckets)
        if not bs or any(a >= b for a, b in zip(bs, bs[1:])):
            raise ValueError(
                f"histogram buckets must be strictly increasing, got {bs}"
            )
        self.buckets = bs
        self.counts = [0] * (len(bs) + 1)
        self.sum = 0.0
        self.count = 0
        self._bounds = np.asarray(bs)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """Fold an array of observations in one vectorised pass.

        ``searchsorted(side="left")`` is exactly ``bisect_left``, so
        the bucketing matches :meth:`observe` sample for sample.
        """
        n = len(values)
        if not n:
            return
        idx = np.searchsorted(self._bounds, values, side="left")
        folded = np.bincount(idx, minlength=len(self.counts))
        counts = self.counts
        for i, c in enumerate(folded):
            if c:
                counts[i] += int(c)
        self.sum += float(values.sum())
        self.count += n

    def cumulative(self) -> list[int]:
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    __slots__ = ("kind", "help", "buckets", "children")

    def __init__(self, kind: str, help_: str, buckets=None) -> None:
        self.kind = kind
        self.help = help_
        self.buckets = buckets
        self.children: dict[tuple, object] = {}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_str(key: tuple) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Named, labelled metric families with text/JSON exporters."""

    def __init__(self, prefix: str = "krad") -> None:
        self.prefix = prefix
        self._families: dict[str, _Family] = {}

    def _get(self, kind, name, help_, labels, buckets=None):
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = _Family(kind, help_, buckets)
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"requested {kind}"
            )
        key = _label_key(labels)
        child = fam.children.get(key)
        if child is None:
            child = (
                Histogram(buckets if buckets is not None else fam.buckets)
                if kind == "histogram"
                else _TYPES[kind]()
            )
            fam.children[key] = child
        return child

    def counter(self, name: str, help_: str = "", **labels) -> Counter:
        return self._get("counter", name, help_, labels)

    def gauge(self, name: str, help_: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help_, labels)

    def histogram(
        self, name: str, help_: str = "", *, buckets, **labels
    ) -> Histogram:
        return self._get("histogram", name, help_, labels, buckets)

    # ------------------------------------------------------------------
    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._families):
            fam = self._families[name]
            full = f"{self.prefix}_{name}"
            if fam.help:
                lines.append(f"# HELP {full} {fam.help}")
            lines.append(f"# TYPE {full} {fam.kind}")
            for key in sorted(fam.children):
                child = fam.children[key]
                ls = _label_str(key)
                if fam.kind == "histogram":
                    cum = child.cumulative()
                    for ub, c in zip(child.buckets, cum):
                        le = _label_str(key + (("le", _fmt(ub)),))
                        lines.append(f"{full}_bucket{le} {c}")
                    inf = _label_str(key + (("le", "+Inf"),))
                    lines.append(f"{full}_bucket{inf} {cum[-1]}")
                    lines.append(f"{full}_sum{ls} {_fmt(child.sum)}")
                    lines.append(f"{full}_count{ls} {child.count}")
                else:
                    lines.append(f"{full}{ls} {_fmt(child.value)}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Plain-JSON form of every family (artifact dumps, tests)."""
        out: dict[str, dict] = {}
        for name in sorted(self._families):
            fam = self._families[name]
            children = {}
            for key, child in sorted(fam.children.items()):
                ls = _label_str(key) or "{}"
                if fam.kind == "histogram":
                    children[ls] = {
                        "buckets": list(child.buckets),
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    children[ls] = child.value
            out[f"{self.prefix}_{name}"] = {
                "type": fam.kind,
                "help": fam.help,
                "values": children,
            }
        return out


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Strict scrape-parse of the text exposition format.

    Returns ``{"name{labels}": value}`` and raises :class:`ValueError`
    on anything a real scraper would reject: samples for undeclared
    families, malformed lines, duplicate series, unparsable values, or
    histogram bucket counts that fail to cumulate monotonically.  The
    CI observability smoke job validates exported files through here.
    """
    declared: dict[str, str] = {}
    samples: dict[str, float] = {}
    buckets: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                if parts[3] not in _TYPES:
                    raise ValueError(
                        f"line {lineno}: unknown metric type {parts[3]!r}"
                    )
                declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        try:
            series, raw = line.rsplit(" ", 1)
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: unparsable sample {line!r}"
            ) from None
        name = series.split("{", 1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
        if base not in declared:
            raise ValueError(
                f"line {lineno}: sample for undeclared family {name!r}"
            )
        if declared[base] == "histogram" and name.endswith("_bucket"):
            if 'le="' not in series:
                raise ValueError(
                    f"line {lineno}: histogram bucket without le label"
                )
            key = series[: series.rindex(",le=")] if ",le=" in series else base
            buckets.setdefault(key, []).append((series, value))
        if series in samples:
            raise ValueError(f"line {lineno}: duplicate series {series!r}")
        samples[series] = value
    for key, series in buckets.items():
        values = [v for _s, v in series]
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError(
                f"histogram {key!r} bucket counts are not cumulative"
            )
    return samples


class RunMetrics:
    """The engines' aggregator: hot-path scalars in, registry out.

    One instance may observe many runs (the CLI reuses it across an
    experiment's whole grid); per-category accumulators grow to the
    largest K seen.  Everything here is derived from engine-observed
    values only — recording never feeds back into simulation state, so
    results are identical with metrics on or off.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.steps = 0
        self.idle_steps = 0
        self.stall_steps = 0
        self.arrivals = 0
        self.completions = 0
        self.progress = 0
        self.realloc_units = 0.0
        self.task_failures = 0
        self.job_kills = 0
        self.retries = 0
        self.jobs_failed = 0
        self.quarantines = 0
        self.checkpoints = 0
        self.incidents: dict[str, int] = {}
        self.journal_records: dict[str, int] = {}
        self.submissions: dict[str, int] = {}
        self.rejections: dict[str, int] = {}
        self.state_changes: dict[str, int] = {}
        self.cancellations = 0
        self.allocated = np.zeros(0, dtype=np.int64)
        self.desired = np.zeros(0, dtype=np.int64)
        self.transitions: list[dict[str, int]] = []
        self.rr_depth_last: list[int] = []
        self.last_makespan = 0
        self.last_utilization: tuple[float, ...] = ()
        self.wall = Histogram(WALL_BUCKETS)
        self.satisfaction = Histogram(RATIO_BUCKETS)
        self.step_utilization = Histogram(RATIO_BUCKETS)
        self.realloc = Histogram(REALLOC_BUCKETS)
        self.rr_depth = Histogram(RR_DEPTH_BUCKETS)
        #: buffered record_step samples, folded vectorised by _flush()
        self._pending: list[tuple] = []

    def _ensure_k(self, k: int) -> None:
        if k > self.allocated.shape[0]:
            grow = k - self.allocated.shape[0]
            self.allocated = np.concatenate(
                [self.allocated, np.zeros(grow, dtype=np.int64)]
            )
            self.desired = np.concatenate(
                [self.desired, np.zeros(grow, dtype=np.int64)]
            )
            self.transitions += [{} for _ in range(grow)]

    # ------------------------------------------------------------------
    # hot path (once per executed step)
    # ------------------------------------------------------------------
    def record_step(
        self,
        desired,
        allocated,
        progress: int,
        arrivals: int,
        completions: int,
        stalled: bool,
        realloc: float,
        rr_depths,
        wall: float,
        caps_total: int,
    ) -> None:
        """Buffer one step's sample; :meth:`_flush` folds the batch.

        The engines call this once per executed step, so it does the
        minimum: one append.  ``desired``/``allocated`` are engine-fresh
        arrays that are never mutated afterwards, so holding references
        is safe; ``rr_depths`` may be scheduler-owned scratch and is
        reduced here instead.
        """
        if rr_depths is not None:
            self.rr_depth_last = rr_depths
            rr_sum = float(sum(rr_depths))
        else:
            rr_sum = -1.0
        self._pending.append(
            (
                desired,
                allocated,
                progress,
                arrivals,
                completions,
                stalled,
                realloc,
                rr_sum,
                wall,
                caps_total,
            )
        )

    def _flush(self) -> None:
        """Fold buffered step samples into the aggregate state.

        Runs at run end and before any export — never per step.  All
        folds are order-independent sums and histogram counts, so
        interleaving with the sparse-event methods cannot change the
        result.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self.steps += len(pending)
        k0 = pending[0][0].shape[0]
        if all(p[0].shape[0] == k0 for p in pending):
            des = np.vstack([p[0] for p in pending])
            alo = np.vstack([p[1] for p in pending])
            if k0 > self.desired.shape[0]:
                self._ensure_k(k0)
            self.desired[:k0] += des.sum(axis=0)
            self.allocated[:k0] += alo.sum(axis=0)
            d_tot = des.sum(axis=1)
        else:
            # mixed-K batch (one aggregator across runs on different
            # machines): fold row by row, vectorise only the scalars
            for p in pending:
                k = p[0].shape[0]
                if k > self.desired.shape[0]:
                    self._ensure_k(k)
                self.desired[:k] += p[0]
                self.allocated[:k] += p[1]
            d_tot = np.array(
                [int(p[0].sum()) for p in pending], dtype=np.int64
            )
        prog = np.array([p[2] for p in pending], dtype=np.int64)
        self.progress += int(prog.sum())
        self.arrivals += sum(p[3] for p in pending)
        self.completions += sum(p[4] for p in pending)
        self.stall_steps += sum(1 for p in pending if p[5])
        realloc = np.array([p[6] for p in pending])
        self.realloc_units += float(realloc.sum())
        self.realloc.observe_many(realloc)
        mask = d_tot > 0
        self.satisfaction.observe_many(prog[mask] / d_tot[mask])
        caps = np.array([p[9] for p in pending], dtype=np.int64)
        mask = caps > 0
        self.step_utilization.observe_many(prog[mask] / caps[mask])
        rr = np.array([p[7] for p in pending])
        self.rr_depth.observe_many(rr[rr >= 0.0])
        self.wall.observe_many(np.array([p[8] for p in pending]))

    # ------------------------------------------------------------------
    # sparse events
    # ------------------------------------------------------------------
    def record_task_failures(self, n: int) -> None:
        self.task_failures += n

    def record_job_kill(self) -> None:
        self.job_kills += 1

    def record_retry(self) -> None:
        self.retries += 1

    def record_job_failed(self) -> None:
        self.jobs_failed += 1

    def record_incident(self, monitor: str, quarantined: bool) -> None:
        self.incidents[monitor] = self.incidents.get(monitor, 0) + 1
        if quarantined:
            self.quarantines += 1

    def record_checkpoint(self) -> None:
        self.checkpoints += 1

    def record_journal(self, record_type: str) -> None:
        self.journal_records[record_type] = (
            self.journal_records.get(record_type, 0) + 1
        )

    def record_submission(self, tenant: str) -> None:
        """One accepted online submission (service layer)."""
        self.submissions[tenant] = self.submissions.get(tenant, 0) + 1

    def record_rejection(self, reason: str) -> None:
        """One refused submission, by admission reason code."""
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def record_cancellation(self) -> None:
        """One not-yet-released job withdrawn by its submitter."""
        self.cancellations += 1

    def record_state_change(self, state: str) -> None:
        """One graceful-degradation transition, by destination state."""
        self.state_changes[state] = self.state_changes.get(state, 0) + 1

    def record_run_start(self) -> None:
        self.runs += 1

    def record_run_end(
        self, *, makespan, idle_steps, utilization, transitions
    ) -> None:
        self._flush()
        self.idle_steps += idle_steps
        self.last_makespan = makespan
        self.last_utilization = tuple(float(u) for u in utilization)
        if transitions is not None:
            self._ensure_k(len(transitions))
            for alpha, ledger in enumerate(transitions):
                acc = self.transitions[alpha]
                for kind, n in ledger.items():
                    acc[kind] = acc.get(kind, 0) + int(n)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_registry(self) -> MetricsRegistry:
        self._flush()
        reg = MetricsRegistry()
        c = reg.counter
        c("runs_total", "simulation runs observed").inc(self.runs)
        c("steps_total", "simulated steps").inc(self.steps)
        c("idle_steps_total", "fast-forwarded idle steps").inc(
            self.idle_steps
        )
        c("stall_steps_total", "zero-progress steps with live jobs").inc(
            self.stall_steps
        )
        c("arrivals_total", "job arrivals").inc(self.arrivals)
        c("completions_total", "job completions").inc(self.completions)
        c(
            "reallocation_units_total",
            "summed |allotment delta| between consecutive steps",
        ).inc(self.realloc_units)
        c("task_failures_total", "tasks failed by the fault model").inc(
            self.task_failures
        )
        c("job_kills_total", "whole-job kills").inc(self.job_kills)
        c("retries_total", "killed jobs resubmitted after backoff").inc(
            self.retries
        )
        c("jobs_failed_total", "jobs that exhausted their retries").inc(
            self.jobs_failed
        )
        c("quarantines_total", "jobs quarantined by the supervisor").inc(
            self.quarantines
        )
        c("checkpoints_total", "state checkpoints materialised").inc(
            self.checkpoints
        )
        for monitor in sorted(self.incidents):
            c(
                "incidents_total",
                "supervisor incidents by monitor",
                monitor=monitor,
            ).inc(self.incidents[monitor])
        for rtype in sorted(self.journal_records):
            c(
                "journal_records_total",
                "write-ahead journal records by type",
                type=rtype,
            ).inc(self.journal_records[rtype])
        for tenant in sorted(self.submissions):
            c(
                "submissions_total",
                "accepted online submissions by tenant",
                tenant=tenant,
            ).inc(self.submissions[tenant])
        for reason in sorted(self.rejections):
            c(
                "rejections_total",
                "refused submissions by admission reason",
                reason=reason,
            ).inc(self.rejections[reason])
        if self.cancellations:
            c(
                "cancellations_total",
                "pending jobs withdrawn by their submitter",
            ).inc(self.cancellations)
        for state in sorted(self.state_changes):
            c(
                "state_transitions_total",
                "graceful-degradation transitions by destination state",
                state=state,
            ).inc(self.state_changes[state])
        for alpha in range(self.allocated.shape[0]):
            c(
                "allocated_processor_steps_total",
                "processor-steps allotted per category",
                category=alpha,
            ).inc(int(self.allocated[alpha]))
            c(
                "desired_processor_steps_total",
                "processor-steps desired per category",
                category=alpha,
            ).inc(int(self.desired[alpha]))
            for kind in sorted(self.transitions[alpha]):
                c(
                    "deq_rr_transitions_total",
                    "RAD DEQ<->RR state-machine transitions",
                    category=alpha,
                    kind=kind,
                ).inc(self.transitions[alpha][kind])
        reg.gauge("last_makespan", "makespan of the last run").set(
            self.last_makespan
        )
        for alpha, u in enumerate(self.last_utilization):
            reg.gauge(
                "utilization",
                "per-category utilization of the last run",
                category=alpha,
            ).set(u)
        for alpha, depth in enumerate(self.rr_depth_last):
            reg.gauge(
                "rr_queue_depth",
                "marked jobs in the open RR cycle (last step)",
                category=alpha,
            ).set(depth)
        for name, help_, hist in (
            ("step_wall_seconds", "wall time per executed step", self.wall),
            (
                "desire_satisfaction_ratio",
                "allotted / desired processors per step",
                self.satisfaction,
            ),
            (
                "step_utilization_ratio",
                "allotted / capacity per step",
                self.step_utilization,
            ),
            (
                "reallocation_units",
                "per-step allotment movement",
                self.realloc,
            ),
            (
                "rr_queue_depth_observed",
                "marked jobs summed over categories, per step",
                self.rr_depth,
            ),
        ):
            dst = reg.histogram(name, help_, buckets=hist.buckets)
            dst.counts = list(hist.counts)
            dst.sum = hist.sum
            dst.count = hist.count
        return reg

    def to_prometheus_text(self) -> str:
        return self.to_registry().to_prometheus_text()

    def to_dict(self) -> dict:
        return self.to_registry().to_dict()
