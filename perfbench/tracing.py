"""Spans around the calls into each layer, and their roll-up into metrics.

Only the traced run (``--trace 1``) installs these wrappers; the
end-to-end numbers come from runs that never import this module.  The
wrappers replace public functions and methods of the program with
thin recorders, then put the originals back.  A function that another
module imported by name is replaced there too, so every call site is
seen.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index
of the enclosing span (or -1) and ``run`` the sample it belongs to.
Spans stay in memory and are written out when the run ends.  A layer's
self time is the time inside its spans minus the part their child spans
cover, normalised with the calibration factor of the span's sample.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

#: (layer, module, attribute, modules that imported it by name).
TARGETS = (
    ("campaign.scheduler", "repro.campaign.scheduler", "run_campaign", ()),
    ("campaign.scheduler", "repro.campaign.fuzz", "run_fuzz_campaign", ()),
    ("campaign.runner", "repro.campaign.runner", "execute_run", ()),
    ("campaign.runner", "repro.campaign.runner", "run_intermittent_leg", ()),
    ("campaign.runner", "repro.campaign.runner", "run_continuous_leg",
     ("repro.campaign.scheduler",)),
    ("campaign.runner", "repro.campaign.runner", "replay_with_schedule", ()),
    ("campaign.runner", "repro.campaign.fuzz", "execute_fuzz_run", ()),
    ("campaign.forking", "repro.campaign.forking", "execute_chunk", ()),
    ("campaign.forking", "repro.campaign.forking", "ForkSession.execute", ()),
    ("campaign.forking", "repro.campaign.forking", "continuous_observation",
     ("repro.batch.engine",)),
    ("batch", "repro.batch.engine", "execute_batch_group", ()),
    ("snapshot", "repro.snapshot", "capture",
     ("repro.campaign.forking", "repro.batch.engine")),
    ("snapshot", "repro.snapshot", "restore",
     ("repro.campaign.forking", "repro.batch.engine")),
    ("power.supply", "repro.power.supply", "PowerSystem.charge_until_on", ()),
    ("campaign.shrinker", "repro.campaign.shrinker", "shrink_schedule",
     ("repro.campaign.scheduler", "repro.campaign.fuzz")),
    ("campaign.fuzz", "repro.campaign.fuzz", "nudge", ()),
    ("campaign.fuzz", "repro.campaign.fuzz", "splice", ()),
    ("campaign.fuzz", "repro.campaign.fuzz", "havoc", ()),
    ("campaign.fuzz", "repro.campaign.fuzz", "mutate_stimulus", ()),
    ("campaign.corpus", "repro.campaign.corpus", "Corpus.consider", ()),
    ("campaign.journal", "repro.campaign.journal", "JournalWriter.chunk_done", ()),
    ("campaign.report", "repro.campaign.report", "build_report",
     ("repro.campaign.scheduler", "repro.campaign.fuzz")),
    ("debug.server", "repro.debug.server", "handle_line", ()),
    ("debug.service", "repro.debug.service", "DebugService.dispatch", ()),
)

#: Runner entry points that each execute one leg from reset (a fuzz run
#: is one entry: its control leg is memoised per stimulus).
LEG_SPANS = {
    "campaign.runner.run_intermittent_leg",
    "campaign.runner.run_continuous_leg",
    "campaign.runner.replay_with_schedule",
    "campaign.runner.execute_fuzz_run",
}


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1, self.run])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf()

        return wrapper

    def _special(self, name: str, fn):
        """Wrappers that also count what only the call's arguments show."""
        if name == "debug.service.DebugService.dispatch":
            wrapped = {}

            def dispatch(service, method, params):
                inner = wrapped.get(method)
                if inner is None:
                    inner = wrapped[method] = self._wrap(
                        f"debug.service.{method}", fn
                    )
                return inner(service, method, params)

            return dispatch
        if name == "campaign.shrinker.shrink_schedule":
            inner = self._wrap(name, fn)

            def shrink(schedule, still_fails, *args, **kwargs):
                def probe(candidate):
                    self.counts["campaign.shrinker.probes"] += 1
                    return still_fails(candidate)

                return inner(schedule, probe, *args, **kwargs)

            return shrink
        if name == "campaign.forking.continuous_observation":
            from repro.campaign import forking

            inner = self._wrap(name, fn)

            def continuous(config, adapter, leg_seed):
                # A hit is a call whose key the memo already holds;
                # adapters with a prepare hook are never memoised.
                self.counts["continuous_calls"] += 1
                if not hasattr(adapter, "prepare") and (
                    forking._continuous_key(config) in forking._continuous_memo
                ):
                    self.counts["continuous_hits"] += 1
                return inner(config, adapter, leg_seed)

            return continuous
        return self._wrap(name, fn)

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for layer, module_name, attribute, importers in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            path = attribute.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            replacement = self._special(f"{layer}.{attribute}", original)
            self._patch(owner, path[-1], replacement)
            for importer_name in importers:
                importer = importlib.import_module(importer_name)
                if getattr(importer, path[-1], None) is original:
                    self._patch(importer, path[-1], replacement)

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list], factors: dict[int, float]) -> tuple[dict, dict, dict]:
    """Per span name: normalised self time, normalised total time, calls."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, parent, run) in enumerate(spans):
        scale = factors[run]
        self_s[name] += (end - start - child_time[index]) * scale
        total_s[name] += (end - start) * scale
        calls[name] += 1
    return self_s, total_s, calls


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    tracer: Tracer, factors: dict[int, float], counters: dict, overhead: float
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``counters`` are the deterministic counters summed over the traced
    samples; ``overhead`` is traced over untraced normalised wall time.
    A layer the workload never enters reads 0.
    """
    self_s, total_s, calls = self_times(tracer.spans, factors)

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    c = counters
    return {
        "mcu.cpu.blocks_translated": (c.get("blocks_translated", 0), "count"),
        "mcu.cpu.blocks_executed": (c.get("blocks_executed", 0), "count"),
        "mcu.cpu.block_deopt_ratio": (
            _ratio(c.get("blocks_deopts", 0), c.get("blocks_executed", 0)), "ratio"
        ),
        "mcu.cpu.traces_executed": (c.get("traces_executed", 0), "count"),
        "mcu.cpu.trace_exit_ratio": (
            _ratio(c.get("trace_exits", 0), c.get("traces_executed", 0)), "ratio"
        ),
        "mcu.device.ff_spans": (c.get("ff_spans", 0), "count"),
        "mcu.device.ff_spends": (c.get("ff_spends", 0), "count"),
        "batch.group_s": (layer_self("batch"), "s"),
        "batch.lanes_packed": (c.get("lanes_packed", 0), "count"),
        "batch.lanes_peeled": (c.get("lanes_peeled", 0), "count"),
        "batch.clone_ratio": (
            _ratio(
                c.get("lanes_packed", 0) - c.get("lanes_peeled", 0),
                c.get("lanes_packed", 0),
            ),
            "ratio",
        ),
        "snapshot.captures": (calls.get("snapshot.capture", 0), "count"),
        "snapshot.restores": (calls.get("snapshot.restore", 0), "count"),
        "snapshot.capture_s": (self_s.get("snapshot.capture", 0.0), "s"),
        "snapshot.restore_s": (self_s.get("snapshot.restore", 0.0), "s"),
        "campaign.forking.fork_s": (layer_self("campaign.forking"), "s"),
        "campaign.forking.continuous_hit_ratio": (
            _ratio(tracer.counts["continuous_hits"], tracer.counts["continuous_calls"]),
            "ratio",
        ),
        "campaign.runner.legs": (
            sum(calls.get(name, 0) for name in LEG_SPANS), "count"
        ),
        "campaign.runner.leg_s": (layer_self("campaign.runner"), "s"),
        "power.supply.charge_calls": (
            calls.get("power.supply.PowerSystem.charge_until_on", 0), "count"
        ),
        "power.supply.charge_s": (layer_self("power.supply"), "s"),
        "campaign.shrinker.probes": (
            tracer.counts["campaign.shrinker.probes"], "count"
        ),
        "campaign.shrinker.s": (layer_self("campaign.shrinker"), "s"),
        "campaign.fuzz.mutate_s": (layer_self("campaign.fuzz"), "s"),
        "campaign.corpus.consider_s": (layer_self("campaign.corpus"), "s"),
        "campaign.corpus.size": (c.get("corpus_size", 0), "count"),
        "mcu.coverage.blocks": (c.get("coverage_blocks", 0), "count"),
        "campaign.journal.append_s": (layer_self("campaign.journal"), "s"),
        "campaign.journal.bytes": (c.get("journal_bytes", 0), "bytes"),
        "campaign.scheduler.self_s": (layer_self("campaign.scheduler"), "s"),
        "campaign.report.build_s": (layer_self("campaign.report"), "s"),
        "debug.server.handle_s": (
            total_s.get("debug.server.handle_line", 0.0), "s"
        ),
        "debug.protocol.codec_s": (
            self_s.get("debug.server.handle_line", 0.0), "s"
        ),
        "debug.service.mem_read_s": (self_s.get("debug.service.mem.read", 0.0), "s"),
        "debug.service.run_s": (self_s.get("debug.service.run", 0.0), "s"),
        "debug.service.trace_poll_s": (
            self_s.get("debug.service.trace.poll", 0.0), "s"
        ),
        "core.monitor.events": (c.get("monitor_events", 0), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
