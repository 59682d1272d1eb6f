"""The benchmark's four workloads: their inputs, their timed unit, their checks.

Each workload turns the benchmark's ``--seed`` into a stream of sample
inputs (``spec(seed, index)``), runs one sample as the timed unit of
work (``run``), and checks the sample's output outside the timed window
(``check``, ``reference``).  The program under test sees only the
generated inputs: campaign configs and JSON-RPC request lines.

Why these four (see also the ``why`` lines in ``BENCHMARK.json``):

- ``wisp_campaign`` -- the realistic WISP campaign: ``linked_list`` in
  sample mode, all four fault modes, random distance/fading/duty,
  shrinking and journaling on.  A high-level Python app: it never
  enters ISA dispatch, so block, trace and lane changes must not move it.
- ``isa_opsweep`` -- an ``rfid_firmware`` op-index sweep in a pinned
  environment, the shape where the trace tier and the lane engine
  (leader/peel/clone) earn their keep.
- ``fuzz_rfid`` -- coverage-guided fuzzing with short legs: translation
  and trace formation dominate and no lanes form, so a tier change that
  taxes short legs shows here.
- ``debug_session`` -- scripted JSON-RPC debugger sessions sent through
  ``repro.debug.server.handle_line`` in-process by one closed-loop
  client; the only workload that exercises ``debug.*``, the tether /
  restore bracket and live trace recording.  The OS pipe is left out on
  purpose: on two shared cores it measures wake-ups, not the debugger.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The deterministic counters ``run_campaign(stats=...)`` reports.
STAT_KEYS = (
    "blocks_translated",
    "blocks_executed",
    "blocks_deopts",
    "traces_formed",
    "traces_executed",
    "trace_exits",
    "ff_spans",
    "ff_spends",
    "lanes_packed",
    "lanes_peeled",
    "batch_spans",
)


def derive(seed: int, *parts: object) -> int:
    """A 63-bit child seed of ``seed``, independent of the program's RNG."""
    label = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big") >> 1


def digest(artifact) -> str:
    """A stable digest of a sample's output (report text or transcript)."""
    return hashlib.sha256(json.dumps(artifact).encode()).hexdigest()


@dataclass
class Outcome:
    """One sample's checked result, produced outside the timed window."""

    units: int
    failed: int
    #: Raw wall seconds of each request whose latency the workload
    #: reports (``mem.read`` calls); empty when the sample itself is the
    #: request (a campaign).
    latencies: list[float] = field(default_factory=list)
    #: Deterministic counters (simulation statistics, sizes, counts).
    counters: dict[str, int] = field(default_factory=dict)
    #: What the reference check and the traced/untraced comparison use.
    artifact: object = None


class CampaignWorkload:
    """A campaign run under ``run_campaign`` with one config per sample."""

    unit = "run"

    def __init__(
        self,
        name: str,
        *,
        runs: int,
        warm_runs: int,
        trace_samples: int,
        journal: bool,
        config: dict,
    ) -> None:
        self.name = name
        self.runs = runs
        self.warm_runs = warm_runs
        self.trace_samples = trace_samples
        self.journal = journal
        self.config = config
        self.workdir: Path | None = None

    def load(self, workdir: Path) -> None:
        """Import the campaign engine and build the app adapter."""
        from repro.campaign.apps import get_adapter
        from repro.campaign.scheduler import run_campaign  # noqa: F401

        get_adapter(self.config["app"])
        self.workdir = workdir

    def spec(self, seed: int, index: int):
        from repro.campaign.config import CampaignConfig

        return CampaignConfig(
            runs=self.runs, seed=derive(seed, self.name, index), **self.config
        )

    def warm_up(self, seed: int) -> None:
        """Fill the decode caches and the continuous-leg memo.

        The memo is keyed by app, iterations and duration, not by seed,
        so one small campaign of the workload's shape serves every
        sample that follows.
        """
        from repro.campaign.config import CampaignConfig
        from repro.campaign.scheduler import run_campaign

        config = CampaignConfig(
            runs=self.warm_runs, seed=derive(seed, self.name, "warm-up"),
            **self.config,
        )
        run_campaign(config, journal_path=self._journal_path())

    def _journal_path(self) -> str | None:
        if not self.journal:
            return None
        return str(self.workdir / f"{self.name}.journal")

    def run(self, spec):
        """The timed unit: one whole campaign."""
        from repro.campaign.scheduler import run_campaign

        stats: dict = {}
        report = run_campaign(spec, journal_path=self._journal_path(), stats=stats)
        return report, stats

    def check(self, spec, result) -> Outcome:
        """Completeness and error-record check; counts failed runs."""
        from repro.campaign.errors import HOST_SIDE_KINDS
        from repro.campaign.report import render_json

        report, stats = result
        rows = report.get("runs", [])
        indices = sorted(row["index"] for row in rows)
        complete = "partial" not in report and indices == list(range(spec.runs))
        host_errors = {
            entry["index"]
            for entry in report.get("errors", [])
            if entry["error"]["kind"] in HOST_SIDE_KINDS
        }
        failed = spec.runs if not complete else len(host_errors)
        counters = {key: int(stats.get(key, 0)) for key in STAT_KEYS}
        coverage = report.get("coverage")
        if coverage is not None:
            counters["coverage_blocks"] = coverage["blocks"]
            counters["corpus_size"] = coverage["corpus"]
        journal = self._journal_path()
        if journal is not None:
            counters["journal_bytes"] = Path(journal).stat().st_size
        return Outcome(
            units=spec.runs,
            failed=failed,
            counters=counters,
            artifact=render_json(report),
        )

    def reference(self, spec, outcome: Outcome) -> int:
        """Re-run on the from-reset path; count runs whose rows differ.

        The report must be byte-identical to the ``snapshot=False,
        batch=False`` reference.  A difference outside the per-run rows
        fails every run of the sample.
        """
        from repro.campaign.report import render_json
        from repro.campaign.scheduler import run_campaign

        reference = run_campaign(spec, snapshot=False, batch=False)
        expected = render_json(reference)
        if expected == outcome.artifact:
            return 0
        got_rows = json.loads(outcome.artifact).get("runs", [])
        want_rows = reference["runs"]
        differing = sum(1 for a, b in zip(got_rows, want_rows) if a != b)
        differing += abs(len(got_rows) - len(want_rows))
        return min(spec.runs, differing or spec.runs)


class DebugSessionWorkload:
    """Scripted debugger sessions over in-process JSON-RPC lines."""

    name = "debug_session"
    unit = "session"
    #: ``mem.read`` requests per session; a run sends a hundred or more
    #: sessions, so the p90 has hundreds of samples above it.
    MEM_READS = 40
    WARM_MEM_READS = 8
    trace_samples = 12

    def __init__(self) -> None:
        self.service = None

    def load(self, workdir: Path) -> None:
        """Import the debug server and construct the service."""
        from repro.debug.service import DebugService

        self.service = DebugService()

    def spec(self, seed: int, index: int, mem_reads: int | None = None) -> list:
        """One session script: ``(method, params, expected_error_code)``.

        Every request but ``session.create`` gets the live session id
        added when it is sent.
        """
        from repro.mcu.memory import FRAM_BASE

        rng = random.Random(derive(seed, self.name, index))
        script: list = [
            (
                "session.create",
                {
                    "app": "fibonacci",
                    "seed": rng.randrange(1, 1 << 31),
                    "iterations": 198,
                    "distance_m": round(rng.uniform(1.4, 1.8), 3),
                },
                None,
            ),
            ("trace.enable", {"stream": "energy"}, None),
            ("energy.charge", {"volts": 2.4}, None),
            (
                "break.on_hit",
                {
                    "actions": [
                        {"op": "read_u16", "address": FRAM_BASE},
                        {"op": "charge", "volts": 2.3},
                    ]
                },
                None,
            ),
            ("break.add_energy", {"threshold_v": 2.0}, None),
            ("run", {"duration": 2.0}, None),
        ]
        for k in range(self.MEM_READS if mem_reads is None else mem_reads):
            script.append(
                (
                    "mem.read",
                    {
                        "address": FRAM_BASE + 2 * rng.randrange(0, 512),
                        "count": rng.choice((2, 4, 8, 16)),
                    },
                    None,
                )
            )
            if k % 4 == 3:
                script.append(("regs.read", {}, None))
        script.append(("mem.read", {"address": FRAM_BASE, "count": 0}, -32602))
        script.append(("debug.no_such_method", {}, -32601))
        script.append(("break.log", {}, None))
        script.append(("trace.poll", {"stream": "energy", "limit": 256}, None))
        script.append(("session.status", {}, None))
        script.append(("session.close", {}, None))
        return script

    def warm_up(self, seed: int) -> None:
        self.run(self.spec(seed, "warm-up", mem_reads=self.WARM_MEM_READS))

    def run(self, spec, service=None):
        """The timed unit: one session, request by request.

        ``trace.poll`` pages until nothing remains; the cursor comes
        from the previous page, as a real client would do it.
        """
        from repro.debug import server

        service = self.service if service is None else service
        perf = time.perf_counter
        transcript: list[str] = []
        latencies: list[float] = []
        session_id = None
        request_id = 0
        for method, params, expected in spec:
            params = dict(params)
            if session_id is not None:
                params["session"] = session_id
            while True:
                request_id += 1
                line = json.dumps(
                    {"jsonrpc": "2.0", "id": request_id, "method": method,
                     "params": params}
                )
                start = perf()
                reply = server.handle_line(service, line)
                elapsed = perf() - start
                transcript.append(reply)
                if method == "mem.read" and expected is None:
                    latencies.append(elapsed)
                if method == "session.create" and session_id is None:
                    session_id = json.loads(reply)["result"]["session"]
                if method != "trace.poll":
                    break
                page = json.loads(reply).get("result")
                if not page or page["remaining"] == 0:
                    break
                params["cursor"] = page["next_cursor"]
        return transcript, latencies, session_id

    def check(self, spec, result) -> Outcome:
        """Every reply is a result, except the scripted errors."""
        transcript, latencies, session_id = result
        replies = [json.loads(line) for line in transcript]
        ok = session_id is not None
        position = 0
        events = 0
        stops = 0
        tier: dict = {}
        for method, _params, expected in spec:
            # trace.poll may span several replies; consume them all.
            while position < len(replies):
                reply = replies[position]
                position += 1
                if expected is None:
                    ok = ok and "result" in reply
                else:
                    ok = ok and reply.get("error", {}).get("code") == expected
                result = reply.get("result") or {}
                if method == "trace.poll" and result.get("remaining", 0) > 0:
                    continue
                if method == "trace.poll":
                    events = result.get("next_cursor", 0)
                elif method == "break.log":
                    stops = len(result.get("stops", []))
                elif method == "session.status":
                    tier = result.get("tier", {})
                break
        ok = ok and position == len(replies)
        blocks = tier.get("blocks", {})
        traces = tier.get("traces", {})
        fast_forward = tier.get("fast_forward", {})
        counters = {
            "blocks_translated": blocks.get("translated", 0),
            "blocks_executed": blocks.get("executed", 0),
            "blocks_deopts": blocks.get("deopts", 0),
            "traces_formed": traces.get("formed", 0),
            "traces_executed": traces.get("executed", 0),
            "trace_exits": traces.get("exits", 0),
            "ff_spans": fast_forward.get("spans", 0),
            "ff_spends": fast_forward.get("spends", 0),
            "monitor_events": events,
            "break_stops": stops,
        }
        return Outcome(
            units=1,
            failed=0 if ok else 1,
            latencies=latencies,
            counters=counters,
            artifact=_anonymise(transcript, session_id),
        )

    def reference(self, spec, outcome: Outcome) -> int:
        """Replay the session on a fresh service; the transcript must match."""
        from repro.debug.service import DebugService

        service = DebugService()
        try:
            transcript, _, session_id = self.run(spec, service=service)
        finally:
            service.close_all()
        return 0 if _anonymise(transcript, session_id) == outcome.artifact else 1


def _anonymise(transcript: list[str], session_id: str | None) -> list[str]:
    """The transcript with the server-assigned session id masked.

    Ids count up per service, so the replay on a fresh service gets a
    different one; everything else must match byte for byte.
    """
    if session_id is None:
        return list(transcript)
    token = json.dumps(session_id)
    return [line.replace(token, '"<session>"') for line in transcript]


def make(name: str):
    """The workload called ``name``; ``KeyError`` for an unknown one."""
    factories = {
        "wisp_campaign": lambda: CampaignWorkload(
            "wisp_campaign",
            runs=100,
            warm_runs=16,
            trace_samples=16,
            journal=True,
            config=dict(app="linked_list", workers=1, shrink=True),
        ),
        "isa_opsweep": lambda: CampaignWorkload(
            "isa_opsweep",
            runs=32,
            warm_runs=4,
            trace_samples=8,
            journal=False,
            config=dict(
                app="rfid_firmware",
                workers=1,
                iterations=600,
                duration=1.0,
                shrink=False,
                modes=("op_index",),
                min_ops=2000,
                max_ops=60_000,
                distance_range=(1.6, 1.6),
                fading_range=(0.0, 0.0),
                duty_chance=0.0,
            ),
        ),
        "fuzz_rfid": lambda: CampaignWorkload(
            "fuzz_rfid",
            runs=64,
            warm_runs=16,
            trace_samples=8,
            journal=False,
            config=dict(
                app="rfid_firmware", workers=1, mode="fuzz", max_ops=120,
                shrink=True,
            ),
        ),
        "debug_session": DebugSessionWorkload,
    }
    return factories[name]()


NAMES = ("wisp_campaign", "isa_opsweep", "fuzz_rfid", "debug_session")
