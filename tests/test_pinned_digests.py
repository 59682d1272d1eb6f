"""Pinned report digests: a refactor safety net over every execution path.

Each case is a small :class:`CampaignConfig` whose report bytes are
pinned by sha256.  Together the cases cover every fault-placement mode
(op index, energy level, commit boundary, organic), the corruption
axis, a coverage-guided fuzz campaign, and a cycle-budget watchdog trip
(``NONTERMINATING``).  Every case runs with snapshot forking off and
on, and with the lane engine off and on; all four must produce the one
pinned digest, because those switches are execution-only.

A scripted JSON-RPC debug session with an energy breakpoint pins the
debugger board's pending-breakpoint service path the same way: the
digest covers every wire response line.

A digest change means report bytes moved.  That is a behaviour change,
never a refactor: find the cause instead of re-pinning.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign.config import CampaignConfig
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.debug.server import handle_line
from repro.debug.service import DebugService
from repro.mcu.memory import FRAM_BASE

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


def _debug_transcript() -> str:
    service = DebugService()
    lines = []
    try:
        sid = None
        for n, (method, params) in enumerate(DEBUG_SCRIPT):
            if sid is not None:
                params = {"session": sid, **params}
            request = {"jsonrpc": "2.0", "id": n, "method": method,
                       "params": params}
            response = handle_line(service, json.dumps(request) + "\n")
            lines.append(response)
            if sid is None:
                sid = json.loads(response)["result"]["session"]
    finally:
        service.close_all()
    return "".join(lines)


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
