"""Timing wrappers for the traced perfbench run.

``Tracer.install()`` patches wrappers onto public functions (as bound in
the modules that call them) and onto class attributes.  Instances are
never wrapped or subclassed: the array core picks its flat FIFO loop by
``type(policy) is FifoScheduler``, so touching an instance would change
the program being measured.

Two kinds of record:

* coarse calls (workload generation, one scenario, digests, store
  get/put, keys, one simulator run, config load/build, the live run)
  become spans with a parent id, kept in memory and handed back by
  ``report()``;
* per-decision and per-message calls (policy ``select``/``select_batch``
  and ``MqttBroker.publish``) are aggregated as count, sum and a
  log-bucketed histogram, because one span each would cost more than
  the call.

Policy calls nest: a fairshare ``select`` calls ``PriorityScheduler.
select``, which calls the inner policy's ``select``, and a power-aware
``select_batch`` calls its own ``select``.  Only the outermost call counts
as a decision; each family's self time is its calls' duration minus the
policy calls nested inside them.
"""

from __future__ import annotations

import functools
import math
import time

_clock = time.perf_counter

#: Histogram resolution: buckets per doubling of the call duration.
_SUB = 8

#: (module path, attribute, policy family) for every policy entry point.
_POLICY_METHODS = (
    ("repro.scheduler.policies", "FifoScheduler", "fifo"),
    ("repro.scheduler.policies", "EasyBackfillScheduler", "easy"),
    ("repro.scheduler.power_aware", "PowerAwareScheduler", "power-aware"),
    ("repro.scheduler.fairshare", "PriorityScheduler", "fairshare"),
    ("repro.scheduler.fairshare", "EnergyFairShareScheduler", "fairshare"),
)


def _bucket(seconds: float) -> int:
    return int(math.floor(_SUB * math.log2(max(seconds * 1e6, 1e-3))))


def percentile_us(hist: dict, q: float) -> float:
    """The ``q``-quantile (0..1) of a bucket histogram, in microseconds."""
    total = sum(hist.values())
    if not total:
        return 0.0
    seen = 0
    for b in sorted(hist, key=int):
        seen += hist[b]
        if seen >= q * total:
            return 2.0 ** ((int(b) + 0.5) / _SUB)
    return 0.0


class _Aggregate:
    """Count, time in outermost calls, and a duration histogram."""

    __slots__ = ("calls", "seconds", "depth", "hist")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.hist: dict[int, int] = {}

    def to_dict(self) -> dict:
        return {"calls": self.calls, "seconds": self.seconds,
                "hist": dict(self.hist)}


class Tracer:
    """Spans and aggregates for one traced run of one workload."""

    def __init__(self) -> None:
        #: [span id, parent id (-1 for none), name, start, end, size]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.aggregates: dict[str, _Aggregate] = {}
        # Policy decisions: outermost calls, their duration histogram,
        # jobs started, decisions that started nothing, family self time.
        self.decisions = 0
        self.decide_s = 0.0
        self.decide_hist: dict[int, int] = {}
        self.jobs_started = 0
        self.noop_decisions = 0
        self.family_self_s: dict[str, float] = {}
        self._policy_stack: list[list[float]] = []
        self.events = 0

    # -- wrappers ---------------------------------------------------------
    def span(self, name: str, fn, size=None):
        """Wrap ``fn`` so each call records a span.

        ``size(result)`` optionally measures the call's output (jobs
        generated, cache hit) into the span's last field.
        """
        spans, open_ids = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), open_ids[-1] if open_ids else -1, name,
                   _clock(), 0.0, 0]
            spans.append(rec)
            open_ids.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _clock()
                open_ids.pop()
            if size is not None:
                rec[5] = int(size(result))
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        """Wrap a per-message call: count every call, time outermost ones."""
        agg = self.aggregates.setdefault(name, _Aggregate())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg.calls += 1
            if agg.depth:
                return fn(*args, **kwargs)
            agg.depth = 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                agg.depth = 0
                agg.seconds += dt
                b = _bucket(dt)
                agg.hist[b] = agg.hist.get(b, 0) + 1

        return wrapper

    def decision(self, family: str, fn):
        """Wrap a policy entry point (see the module docstring)."""
        stack = self._policy_stack
        self.family_self_s.setdefault(family, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [_clock(), 0.0]
            stack.append(frame)
            try:
                started = fn(*args, **kwargs)
            finally:
                dt = _clock() - frame[0]
                stack.pop()
                self.family_self_s[family] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if not stack:
                self.decisions += 1
                self.decide_s += dt
                b = _bucket(dt)
                self.decide_hist[b] = self.decide_hist.get(b, 0) + 1
                self.jobs_started += len(started)
                if not started:
                    self.noop_decisions += 1
            return started

        return wrapper

    def count_event(self, event, now_s) -> None:
        """``KernelHooks.on_dispatch`` callback: one kernel event."""
        self.events += 1

    # -- installation -----------------------------------------------------
    @staticmethod
    def _patch(owner, attr: str, wrapper) -> None:
        # vars() rather than getattr: only what the owner itself defines
        # is replaced, so no class gains a method it did not have.
        setattr(owner, attr, wrapper(vars(owner)[attr]))

    def install(self) -> None:
        """Patch every wrapper in place; call after the entry import."""
        import importlib

        from repro.cluster.builder import LiveCluster
        from repro.monitoring import mqtt
        from repro.runtime import cli
        from repro.scheduler import cache, campaign, simulate
        from repro.sim import KernelHooks

        patch, span = self._patch, self.span
        patch(campaign, "scenario_workload",
              lambda f: span("workload.generate", f, size=len))
        patch(campaign, "run_scenario",
              lambda f: span("campaign.run_scenario", f))
        patch(campaign, "result_digest",
              lambda f: span("campaign.result_digest", f))
        patch(cli, "campaign_digest",
              lambda f: span("campaign.campaign_digest", f))
        for owner in (campaign, cli):
            patch(owner, "scenario_key", lambda f: span("cache.key", f))
        patch(cache.ResultStore, "get",
              lambda f: span("cache.get", f, size=lambda r: r is not None))
        patch(cache.ResultStore, "put", lambda f: span("cache.put", f))
        patch(simulate.ClusterSimulator, "run",
              lambda f: span("sim.run", f, size=lambda r: len(r.records)))
        patch(cli, "load", lambda f: span("runtime.load", f))
        patch(cli, "build", lambda f: span("runtime.build", f))
        for module, cls_name, family in _POLICY_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for attr in ("select", "select_batch"):
                if attr in vars(cls):
                    patch(cls, attr,
                          lambda f, fam=family: self.decision(fam, f))
        patch(mqtt.MqttBroker, "publish",
              lambda f: self.aggregate("mqtt.publish", f))

        def live_run(run):
            timed = span("live.run", run)

            def wrapper(cluster, until):
                if cluster.env.hooks is None:
                    cluster.env.attach_hooks(
                        KernelHooks(on_dispatch=self.count_event))
                return timed(cluster, until)

            return wrapper

        patch(LiveCluster, "run", live_run)

    def report(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "aggregates": {k: a.to_dict() for k, a in self.aggregates.items()},
            "decisions": self.decisions,
            "decide_s": self.decide_s,
            "decide_hist": self.decide_hist,
            "jobs_started": self.jobs_started,
            "noop_decisions": self.noop_decisions,
            "family_self_s": self.family_self_s,
            "events": self.events,
        }
