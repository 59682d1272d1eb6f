"""Pinned report digests: a refactor safety net over every execution path.

Each case is a small :class:`CampaignConfig` whose report bytes are
pinned by sha256.  Together the cases cover every fault-placement mode
(op index, energy level, commit boundary, organic), the corruption
axis, two coverage-guided fuzz campaigns (one of which shrinks a
divergence), and a cycle-budget watchdog trip (``NONTERMINATING``).
Every case runs with snapshot execution off and on, and with the lane
engine off and on; all four must produce the one pinned digest,
because those switches are execution-only.

Scripted JSON-RPC debug sessions pin the debugger the same way, by a
digest over every wire response line: one with an energy breakpoint
(the board's pending-breakpoint service path), one shaped like the
benchmark's debug session (live energy trace, breakpoint actions,
forty tethered memory reads, a paged ``trace.poll``), one with RF
fading (hold windows that end inside save/restore control loops), one
of explicit ``energy.charge``/``energy.discharge`` calls, one of
``emulate`` before and after the executor flashes the program, and one
each for the ``fast`` and ``bench`` power presets.  A scripted Table 1
console session is pinned by a digest over its printed history.

A digest change means report bytes moved.  That is a behaviour change,
never a refactor: find the cause instead of re-pinning.  The module is
part of the ``blockcache`` differential, so it also runs with the block
cache off and with forced deoptimization.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import EDB, IntermittentExecutor, Simulator, TargetDevice
from repro import make_wisp_power_system
from repro.analog.charge_circuit import ChargeDischargeCircuit
from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.core.console import DebugConsole
from repro.debug.server import handle_line
from repro.debug.service import DebugService
from repro.mcu.memory import FRAM_BASE
from repro.power.harvester import RFHarvester

pytestmark = pytest.mark.blockcache

#: Fixed environment (no fading, one distance): same-environment runs
#: share prefixes, so the snapshot and lane paths really engage.
_PINNED_ENV = dict(distance_range=(1.6, 1.6), fading_range=(0.0, 0.0),
                   duty_chance=0.0)

CASES = {
    "op_index": (
        CampaignConfig(app="linked_list", runs=8, seed=11, iterations=120,
                       modes=("op_index",), shrink_limit=1, **_PINNED_ENV),
        "727396e9ea86c85b91bf7b5c6bed6d32a44b05f9c734fa341686d6e0f8a5d0b5",
    ),
    "energy_level": (
        CampaignConfig(app="linked_list", runs=6, seed=12, iterations=120,
                       modes=("energy_level",), shrink_limit=1),
        "71adb8e3209b37b34a45b03d457bdffabfccd5b4a1075a70951b4c7b8fd82fb1",
    ),
    "commit_boundary": (
        CampaignConfig(app="linked_list", runs=8, seed=13, iterations=120,
                       modes=("commit_boundary",), shrink_limit=1,
                       **_PINNED_ENV),
        "cfee45818620468da314d2f0c9892aaca23a99516f8b1ff42e79b4cd9a9af4dd",
    ),
    "organic": (
        CampaignConfig(app="linked_list", runs=4, seed=14, iterations=120,
                       modes=("organic",), distance_range=(2.0, 2.4),
                       shrink_limit=1),
        "c02b64029db9c55e45f61f2f9a41a0fd886e20d71f1d3cc875f7d2c02b89f5de",
    ),
    "corruption": (
        CampaignConfig(app="linked_list", runs=6, seed=15, iterations=120,
                       protect=True, corrupt_checkpoints=True,
                       shrink_limit=1),
        "2ccd1f1405c221bedce0a691468a8778c17d2a0d0781275c75c830efb59f2003",
    ),
    "fuzz_rfid": (
        CampaignConfig(app="rfid_firmware", runs=8, seed=16, mode="fuzz",
                       fuzz_rounds=2, max_ops=120, shrink_limit=1),
        "600a5ffc35c2a6fe490681b4a7a4b1975508cba7c33a7b3fddc80585f27c947e",
    ),
    # Same-stimulus genotypes share a control leg and a diverging
    # survivor shrinks: the fuzz chunk and shrink paths.
    "fuzz_fork_shrink": (
        CampaignConfig(app="rfid_firmware", runs=64, seed=3, mode="fuzz",
                       fuzz_rounds=8, max_ops=120, shrink_limit=1),
        "146ae2c4937365453ca88c0109022b4eedd86e5eb1e4a845516afb88b668da7b",
    ),
    "max_cycles": (
        CampaignConfig(app="linked_list", runs=6, seed=17, iterations=120,
                       modes=("op_index", "organic"), max_cycles=64_000,
                       shrink=False),
        "00e78820e5b09f5edf41834bee067cc6f2019fb524798ad596f9f485608fe168",
    ),
}

EXECUTION = [
    pytest.param(False, False, id="from_reset"),
    pytest.param(True, False, id="snapshot"),
    pytest.param(True, True, id="snapshot_batch"),
    pytest.param(False, True, id="batch_only"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digest(config: CampaignConfig, snapshot: bool, batch: bool) -> str:
    return _digest(
        render_json(run_campaign(config, snapshot=snapshot, batch=batch))
    )


@pytest.mark.parametrize("snapshot,batch", EXECUTION)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest_is_pinned(case, snapshot, batch):
    config, expected = CASES[case]
    assert _report_digest(config, snapshot, batch) == expected


def test_max_cycles_case_trips_the_watchdog():
    """The budget case must really exercise the NONTERMINATING path."""
    config, _ = CASES["max_cycles"]
    report = run_campaign(config)
    statuses = {run["status"] for run in report["runs"]}
    assert "nonterminating" in statuses


def test_fuzz_fork_shrink_case_forks_and_shrinks():
    """The fork/shrink fuzz case must really shrink a run.

    Its genotypes no longer fork (fuzz runs go from reset); the case
    keeps its name and digest as the pin on the fuzz shrink path.
    """
    config, _ = CASES["fuzz_fork_shrink"]
    report = run_campaign(config)
    shrunk = [row["shrunk"] for row in report["divergences"] if row.get("shrunk")]
    assert shrunk
    assert shrunk[0]["schedule"] == [101, 73]


#: The scripted debug session: an energy breakpoint whose hits read
#: FRAM and recharge, a run long enough to stop several times, then
#: inspection calls and a cycle-budget trip.
DEBUG_SCRIPT = [
    ("session.create", {"app": "linked_list", "seed": 4242,
                        "iterations": 400}),
    ("break.on_hit", {"actions": [
        {"op": "read_u16", "address": FRAM_BASE},
        {"op": "charge", "volts": 2.35},
    ]}),
    ("break.add_energy", {"threshold_v": 2.2}),
    ("run", {"duration": 0.25, "max_cycles": 100_000}),
    ("break.log", {}),
    ("mem.read", {"address": FRAM_BASE, "count": 16}),
    ("run", {"duration": 0.25}),
    ("break.log", {}),
    ("session.status", {}),
]

DEBUG_DIGEST = (
    "953a94cd5b716df9b284a2fa4c3f59a2cab023b3be85e2d3541d85ea11b604e1"
)


def _transcript(script) -> str:
    """Every wire response line of ``script``, run on a fresh service.

    ``trace.poll`` pages until nothing remains, taking the cursor from
    the previous page as a real client would.
    """
    service = DebugService()
    lines = []
    try:
        sid = None
        n = 0
        for method, params in script:
            if sid is not None:
                params = {"session": sid, **params}
            while True:
                request = {"jsonrpc": "2.0", "id": n, "method": method,
                           "params": params}
                n += 1
                response = handle_line(service, json.dumps(request) + "\n")
                lines.append(response)
                if sid is None:
                    sid = json.loads(response)["result"]["session"]
                page = json.loads(response).get("result")
                if method != "trace.poll" or not page or not page["remaining"]:
                    break
                params = {**params, "cursor": page["next_cursor"]}
    finally:
        service.close_all()
    return "".join(lines)


def _debug_transcript() -> str:
    return _transcript(DEBUG_SCRIPT)


def test_debug_session_digest_is_pinned():
    assert _digest(_debug_transcript()) == DEBUG_DIGEST


def test_debug_session_hits_energy_breakpoints():
    """The scripted session must really service pending breakpoints."""
    results = [
        json.loads(line)["result"] for line in _debug_transcript().splitlines()
    ]
    assert results[3]["status"] == "nonterminating"
    assert results[6]["status"] == "completed"
    for log in (results[4], results[7]):
        assert log["stops"]
        assert all(s["reason"] == "energy_breakpoint" for s in log["stops"])


def _mem_reads(count: int, seed: int) -> list:
    """``count`` fixed-pattern FRAM reads, a ``regs.read`` every fourth."""
    script = []
    for k in range(count):
        offset = (k * 2 * 197 + seed) % 1024 & ~1
        script.append(("mem.read", {"address": FRAM_BASE + offset,
                                    "count": (2, 4, 8, 16)[k % 4]}))
        if k % 4 == 3:
            script.append(("regs.read", {}))
    return script


#: The benchmark's debug-session shape: live energy trace, an energy
#: breakpoint whose hits read FRAM and recharge, a long run, forty
#: tethered memory reads (each a save/restore bracket), then the whole
#: event list paged out.
PERFBENCH_SCRIPT = [
    ("session.create", {"app": "fibonacci", "seed": 90210,
                        "iterations": 198, "distance_m": 1.6}),
    ("trace.enable", {"stream": "energy"}),
    ("energy.charge", {"volts": 2.4}),
    ("break.on_hit", {"actions": [
        {"op": "read_u16", "address": FRAM_BASE},
        {"op": "charge", "volts": 2.3},
    ]}),
    ("break.add_energy", {"threshold_v": 2.0}),
    ("run", {"duration": 2.0}),
    *_mem_reads(40, 7),
    ("break.log", {}),
    ("trace.poll", {"stream": "energy", "limit": 256}),
    ("session.status", {}),
    ("session.close", {}),
]

#: RF fading on: the harvester redraws every 10 ms, so hold windows
#: end in the middle of save/restore control loops.
FADING_SCRIPT = [
    ("session.create", {"app": "linked_list", "seed": 515,
                        "iterations": 400, "distance_m": 1.5,
                        "fading_sigma": 3.0}),
    ("trace.enable", {"stream": "energy"}),
    ("break.on_hit", {"actions": [
        {"op": "read_u16", "address": FRAM_BASE},
        {"op": "charge", "volts": 2.35},
    ]}),
    ("break.add_energy", {"threshold_v": 2.2}),
    ("run", {"duration": 0.3}),
    *_mem_reads(24, 3),
    ("break.log", {}),
    ("trace.poll", {"limit": 512}),
    ("session.status", {}),
]

#: Console-style energy manipulation through the wire, untraced; the
#: discharge to 1.2 V is below where the fine load settles against the
#: harvester and fails at its first tick.
ENERGY_SCRIPT = [
    ("session.create", {"app": "fibonacci", "seed": 31337,
                        "iterations": 64}),
    ("energy.charge", {"volts": 2.5}),
    ("regs.read", {}),
    ("energy.discharge", {"volts": 2.0}),
    ("energy.vcap", {}),
    ("run", {"duration": 0.05}),
    ("energy.charge", {"volts": 3.1}),
    ("regs.read", {}),
    ("energy.discharge", {"volts": 1.2}),
    ("energy.charge", {"volts": 2.41}),
    ("energy.discharge", {"volts": 2.39}),
    ("energy.vcap", {}),
    ("regs.read", {}),
    ("session.status", {}),
]

#: ``emulate`` on both sides of the executor's flash handoff: first on
#: an unflashed program (the emulator flashes it), then a ``run`` on
#: the same program statics, then ``emulate`` on the flashed program.
EMULATE_SCRIPT = [
    ("session.create", {"app": "fibonacci", "seed": 2718,
                        "iterations": 2000}),
    ("emulate", {"cycles": 3}),
    ("run", {"duration": 0.1}),
    ("emulate", {"cycles": 2, "turn_on_voltage": 2.5}),
    ("mem.read", {"address": FRAM_BASE, "count": 8}),
    ("session.status", {}),
]

#: The two non-default power presets, each with a run and a tethered
#: read: ``fast`` with distance and fading left unset, and ``bench``.
FAST_SCRIPT = [
    ("session.create", {"app": "fibonacci", "power": "fast", "seed": 606,
                        "iterations": 2000}),
    ("run", {"duration": 0.1}),
    ("mem.read", {"address": FRAM_BASE, "count": 8}),
    ("session.status", {}),
]

BENCH_SCRIPT = [
    ("session.create", {"app": "fibonacci", "power": "bench", "seed": 607,
                        "iterations": 2000}),
    ("run", {"duration": 0.1}),
    ("mem.read", {"address": FRAM_BASE, "count": 8}),
    ("session.status", {}),
]

TRANSCRIPTS = {
    "perfbench_shape": (
        PERFBENCH_SCRIPT,
        "fc4f1f0274446c7f0030b0a7e92111234650afa0473e3fe2c1c192fcf9b44feb",
    ),
    "fading": (
        FADING_SCRIPT,
        "ba61211333ca5241914af31b5e390e5845f6492d520c180d698faf6d870a03cd",
    ),
    "energy_manipulation": (
        ENERGY_SCRIPT,
        "ff6dc340cb02b54a163b9c461490573d3d1700c31cb2932062b26657e3576779",
    ),
    "emulate": (
        EMULATE_SCRIPT,
        "f9a3c1a2b5923d3a5f526374cd274272c25c38ac2b555811294245d77df297e8",
    ),
    "power_fast": (
        FAST_SCRIPT,
        "654b17c4d7f00bfe9e371ebfaa2e4d7d12ac873b147e0c61b7e39d9a265da43f",
    ),
    "power_bench": (
        BENCH_SCRIPT,
        "8e3681c5bbb2b752cda40d0de7bde9cbbffccaa22e93a2a53b3d02455cf4e7ec",
    ),
}


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_digest_is_pinned(name):
    script, expected = TRANSCRIPTS[name]
    assert _digest(_transcript(script)) == expected


def test_fading_transcript_redraws_inside_restores(monkeypatch):
    """The fading case must really end hold windows mid-restore."""
    depth = [0]
    redraws = []
    restore_to = ChargeDischargeCircuit.restore_to
    fade_db_at = RFHarvester._fade_db_at

    def restoring(circuit, v_target):
        depth[0] += 1
        try:
            return restore_to(circuit, v_target)
        finally:
            depth[0] -= 1

    def fading(source, t):
        if depth[0] and t >= source._fade_until:
            redraws.append(t)
        return fade_db_at(source, t)

    monkeypatch.setattr(ChargeDischargeCircuit, "restore_to", restoring)
    monkeypatch.setattr(RFHarvester, "_fade_db_at", fading)
    _transcript(FADING_SCRIPT)
    assert redraws


#: A Table 1 console session on a fixed-seed WISP running fibonacci:
#: live energy trace, an energy breakpoint the run stops at, tethered
#: memory access, energy manipulation, a watchpoint mask and an
#: emulation after the run.
CONSOLE_SCRIPT = [
    "trace energy",
    "break energy 2.0",
    "run 0.25",
    f"read 0x{FRAM_BASE:04X} 8",
    f"write 0x{FRAM_BASE + 0x100:04X} 0xBEEF",
    f"read 0x{FRAM_BASE + 0x100:04X} 2",
    "charge 2.4",
    "watch dis 1",
    "watch en 1",
    "emulate 3",
    "status",
]

CONSOLE_DIGEST = (
    "5ecebe3b57fe583897ec0901058fb68f8789adc644479ecf6232f0f602a871d6"
)


def _console_history() -> str:
    """Every line the console printed over ``CONSOLE_SCRIPT``."""
    sim = Simulator(seed=4243)
    device = TargetDevice(sim, make_wisp_power_system(sim))
    edb = EDB(sim, device)
    program = get_adapter("fibonacci").build(False, 2000)
    executor = IntermittentExecutor(sim, device, program, edb=edb.libedb())
    console = DebugConsole(edb, executor=executor)
    try:
        for line in CONSOLE_SCRIPT:
            console.execute(line)
    finally:
        edb.detach()
    return "\n".join(console.history)


def test_console_history_digest_is_pinned():
    assert _digest(_console_history()) == CONSOLE_DIGEST


def test_console_script_stops_and_emulates():
    """The console case must really stop at the breakpoint and emulate."""
    history = _console_history()
    assert "*** target stopped: energy_breakpoint" in history
    assert "emulated 2 cycle(s): final=completed" in history
    assert "error" not in history
