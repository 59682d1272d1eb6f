"""End-to-end tests for the JSON-RPC debug server (`repro.debug`).

Four layers, cheapest first:

- **service**: in-process `DebugService.dispatch` — session isolation,
  handle-keyed breakpoint registry, cursor-based trace polling;
- **wire**: `handle_line` — JSON-RPC envelope validation, error
  objects for malformed input, batches, notifications;
- **equivalence**: a scripted break→inspect→charge→resume loop over
  RPC against the identical `DebugConsole` scenario on a same-seed
  twin rig — transcripts, costed cycles, and the energy trajectory
  must match exactly;
- **subprocess** (`debug_smoke`): spawn ``python -m repro.debug.server
  --port 0``, drive two concurrent TCP sessions, clean shutdown.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import EDB, IntermittentExecutor, Simulator, TargetDevice
from repro import make_wisp_power_system
from repro.campaign.apps import get_adapter
from repro.core.console import DebugConsole
from repro.debug import errors
from repro.debug.client import DebugClient, DebugRpcError
from repro.debug.server import DebugTCPServer, handle_line
from repro.debug.service import DebugService, _jsonable
from repro.mcu.memory import FRAM_BASE


@pytest.fixture
def service() -> DebugService:
    svc = DebugService()
    yield svc
    svc.close_all()


def rpc(service: DebugService, method: str, **params):
    return service.dispatch(method, params)


def wire(service: DebugService, payload) -> dict | list | None:
    """One wire line through the full JSON-RPC path."""
    line = payload if isinstance(payload, str) else json.dumps(payload)
    response = handle_line(service, line + "\n")
    return json.loads(response) if response is not None else None


class TestSessionManagement:
    def test_create_list_close(self, service):
        a = rpc(service, "session.create", app="fibonacci", seed=1)
        b = rpc(service, "session.create", app="linked_list", seed=2)
        assert a["session"] != b["session"]
        listed = rpc(service, "session.list")["sessions"]
        assert [s["session"] for s in listed] == [a["session"], b["session"]]
        rpc(service, "session.close", session=a["session"])
        listed = rpc(service, "session.list")["sessions"]
        assert [s["session"] for s in listed] == [b["session"]]

    def test_unknown_session_is_typed_error(self, service):
        with pytest.raises(errors.SessionNotFound):
            rpc(service, "session.status", session="s999")

    def test_unknown_app_rejected(self, service):
        with pytest.raises(errors.InvalidParams):
            rpc(service, "session.create", app="bogus")

    def test_unknown_power_rejected(self, service):
        with pytest.raises(errors.InvalidParams):
            rpc(service, "session.create", app="fibonacci", power="nuclear")

    @pytest.mark.parametrize(
        "rate", [-5.0, 0.0, float("inf"), float("nan")],
        ids=["negative", "zero", "inf", "nan"],
    )
    def test_bad_sample_rate_rejected(self, service, rate):
        with pytest.raises(errors.InvalidParams, match="sample_rate"):
            rpc(service, "session.create", app="fibonacci", sample_rate=rate)
        assert service.sessions == {}

    def test_session_limit(self):
        svc = DebugService(max_sessions=1)
        rpc(svc, "session.create", app="fibonacci", seed=1)
        with pytest.raises(errors.SessionLimit):
            rpc(svc, "session.create", app="fibonacci", seed=2)
        svc.close_all()


class TestSessionIsolation:
    def test_breakpoints_do_not_bleed(self, service):
        a = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        b = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        rpc(service, "break.add_code", session=a, id=5)
        rpc(service, "break.add_energy", session=b, threshold_v=2.0)
        bps_a = rpc(service, "break.list", session=a)["breakpoints"]
        bps_b = rpc(service, "break.list", session=b)["breakpoints"]
        assert [bp["kind"] for bp in bps_a] == ["code"]
        assert [bp["kind"] for bp in bps_b] == ["energy"]
        # The underlying registries are distinct objects.
        sa, sb = service.sessions[a], service.sessions[b]
        assert sa.edb.breakpoints is not sb.edb.breakpoints
        assert sa.edb.monitor is not sb.edb.monitor
        assert sa.sim is not sb.sim

    def test_monitor_and_run_state_do_not_bleed(self, service):
        a = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        b = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        rpc(service, "trace.enable", session=a, stream="energy")
        rpc(service, "run", session=a, duration=0.02)
        status_a = rpc(service, "session.status", session=a)
        status_b = rpc(service, "session.status", session=b)
        assert status_a["cycles"] > 0
        assert status_b["cycles"] == 0
        assert status_b["time"] == 0.0
        poll_b = rpc(service, "trace.poll", session=b)
        assert poll_b["events"] == []

    def test_same_seed_sessions_replay_identically(self, service):
        a = rpc(service, "session.create", app="fibonacci", seed=77)["session"]
        b = rpc(service, "session.create", app="fibonacci", seed=77)["session"]
        result_a = rpc(service, "run", session=a, duration=0.03)
        result_b = rpc(service, "run", session=b, duration=0.03)
        assert result_a == result_b

    def test_close_detaches_board(self, service):
        a = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        session = service.sessions[a]
        rpc(service, "session.close", session=a)
        assert session.edb.board.device is None


class TestBreakpointHandles:
    def test_duplicate_registrations_remove_exact_handle(self, service):
        """The wrong-instance removal bug, pinned at the RPC layer."""
        sid = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        h1 = rpc(service, "break.add_code", session=sid, id=7)["handle"]
        h2 = rpc(service, "break.add_code", session=sid, id=7)["handle"]
        assert h1 != h2
        session = service.sessions[sid]
        first = session.handles[h1]
        removed = rpc(service, "break.remove", session=sid, handle=h2)
        assert removed["removed"] is True
        remaining = rpc(service, "break.list", session=sid)["breakpoints"]
        assert [bp["handle"] for bp in remaining] == [h1]
        # The instance left in the manager is exactly handle h1's.
        assert session.edb.breakpoints.breakpoints == [first]
        assert session.edb.breakpoints.breakpoints[0] is first

    def test_set_enabled_by_handle(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        h1 = rpc(service, "break.add_code", session=sid, id=3)["handle"]
        h2 = rpc(service, "break.add_code", session=sid, id=3)["handle"]
        rpc(service, "break.set_enabled", session=sid, handle=h2, enabled=False)
        bps = {
            bp["handle"]: bp["enabled"]
            for bp in rpc(service, "break.list", session=sid)["breakpoints"]
        }
        assert bps == {h1: True, h2: False}

    def test_unknown_handle_is_typed_error(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        with pytest.raises(errors.UnknownHandle):
            rpc(service, "break.remove", session=sid, handle=42)

    def test_combined_and_energy_handles(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        rpc(service, "break.add_combined", session=sid, id=2, threshold_v=2.0)
        rpc(service, "break.add_energy", session=sid, threshold_v=1.9)
        kinds = [
            bp["kind"]
            for bp in rpc(service, "break.list", session=sid)["breakpoints"]
        ]
        assert kinds == ["combined", "energy"]

    def test_watch_pc_roundtrip(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=1)["session"]
        session = service.sessions[sid]
        rpc(service, "watch.pc", session=sid, pc=0x4400)
        assert 0x4400 in session.edb._watched_pcs
        rpc(service, "unwatch.pc", session=sid, pc=0x4400)
        assert session.edb._watched_pcs == set()


class TestTraceCursor:
    def test_incremental_polls_see_every_event_once(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=5)["session"]
        rpc(service, "trace.enable", session=sid, stream="energy")
        rpc(service, "run", session=sid, duration=0.03)
        full = rpc(service, "trace.poll", session=sid, cursor=0, limit=100000)
        assert full["remaining"] == 0
        assert len(full["events"]) > 20
        # Re-read in awkward chunk sizes; concatenation must be exact.
        chunks = []
        cursor = 0
        for limit in (1, 7, 3, 13, 100000):
            while True:
                page = rpc(
                    service, "trace.poll", session=sid, cursor=cursor, limit=limit
                )
                chunks.extend(page["events"])
                cursor = page["next_cursor"]
                if page["remaining"] == 0:
                    break
            if len(chunks) == len(full["events"]):
                break
        assert chunks == full["events"]

    def test_poll_across_runs_never_drops(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=5)["session"]
        rpc(service, "trace.enable", session=sid, stream="energy")
        seen = []
        cursor = 0
        for _ in range(3):
            rpc(service, "run", session=sid, duration=0.01)
            while True:
                page = rpc(
                    service, "trace.poll", session=sid, cursor=cursor, limit=17
                )
                seen.extend(page["events"])
                cursor = page["next_cursor"]
                if page["remaining"] == 0:
                    break
        monitor = service.sessions[sid].edb.monitor
        assert len(seen) == len(monitor.events)
        times = [e["time"] for e in seen]
        assert times == sorted(times)

    def test_stream_filter_keeps_global_cursor(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=5)["session"]
        rpc(service, "trace.enable", session=sid, stream="energy")
        rpc(service, "trace.enable", session=sid, stream="watchpoints")
        rpc(service, "run", session=sid, duration=0.02)
        page = rpc(
            service,
            "trace.poll",
            session=sid,
            cursor=0,
            limit=100000,
            stream="energy",
        )
        assert all(e["stream"] == "energy" for e in page["events"])
        # The cursor still advanced over the whole unified list.
        monitor = service.sessions[sid].edb.monitor
        assert page["next_cursor"] == len(monitor.events)

    def test_bad_cursor_rejected(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=5)["session"]
        with pytest.raises(errors.InvalidParams):
            rpc(service, "trace.poll", session=sid, cursor=-1)
        with pytest.raises(errors.InvalidParams):
            rpc(service, "trace.poll", session=sid, limit=0)


class TestWireProtocol:
    def test_parse_error_object(self, service):
        response = wire(service, "this is not json")
        assert response["error"]["code"] == errors.PARSE_ERROR
        assert response["id"] is None

    def test_invalid_envelope(self, service):
        response = wire(service, {"id": 3, "method": "debug.ping"})
        assert response["error"]["code"] == errors.INVALID_REQUEST
        assert response["id"] == 3

    def test_non_string_method(self, service):
        response = wire(service, {"jsonrpc": "2.0", "id": 1, "method": 9})
        assert response["error"]["code"] == errors.INVALID_REQUEST

    def test_positional_params_rejected(self, service):
        response = wire(
            service,
            {"jsonrpc": "2.0", "id": 1, "method": "debug.ping", "params": [1]},
        )
        assert response["error"]["code"] == errors.INVALID_REQUEST

    def test_method_not_found(self, service):
        response = wire(service, {"jsonrpc": "2.0", "id": 2, "method": "nope"})
        assert response["error"]["code"] == errors.METHOD_NOT_FOUND

    def test_invalid_params_surface_code(self, service):
        response = wire(
            service,
            {
                "jsonrpc": "2.0",
                "id": 4,
                "method": "session.create",
                "params": {"app": "bogus"},
            },
        )
        assert response["error"]["code"] == errors.INVALID_PARAMS

    def test_session_not_found_surfaces_code(self, service):
        response = wire(
            service,
            {
                "jsonrpc": "2.0",
                "id": 5,
                "method": "run",
                "params": {"session": "sX", "duration": 0.1},
            },
        )
        assert response["error"]["code"] == errors.SESSION_NOT_FOUND

    def test_server_survives_malformed_then_serves(self, service):
        assert wire(service, "garbage")["error"]["code"] == errors.PARSE_ERROR
        response = wire(
            service, {"jsonrpc": "2.0", "id": 6, "method": "debug.ping"}
        )
        assert response["result"]["pong"] is True

    def test_notification_produces_no_response(self, service):
        assert wire(service, {"jsonrpc": "2.0", "method": "debug.ping"}) is None

    def test_batch_request(self, service):
        responses = wire(
            service,
            [
                {"jsonrpc": "2.0", "id": 1, "method": "debug.ping"},
                {"jsonrpc": "2.0", "id": 2, "method": "nope"},
                {"jsonrpc": "2.0", "method": "debug.ping"},  # notification
            ],
        )
        assert isinstance(responses, list) and len(responses) == 2
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["result"]["pong"] is True
        assert by_id[2]["error"]["code"] == errors.METHOD_NOT_FOUND

    def test_empty_batch_is_invalid(self, service):
        response = wire(service, [])
        assert response["error"]["code"] == errors.INVALID_REQUEST

    def test_methods_listing(self, service):
        methods = wire(
            service, {"jsonrpc": "2.0", "id": 1, "method": "debug.methods"}
        )["result"]["methods"]
        for required in (
            "session.create",
            "break.add_code",
            "trace.poll",
            "run",
            "debug.divergence_context",
        ):
            assert required in methods


class TestEnergyVolts:
    """Energy targets are validated before anything touches the target."""

    def _code(self, service, method, **params):
        response = wire(
            service,
            {"jsonrpc": "2.0", "id": 1, "method": method, "params": params},
        )
        return response.get("error", {}).get("code")

    def test_charge_needs_a_positive_target(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=2)["session"]
        for volts in (0, 0.0, -0.1, 5.51):
            assert self._code(
                service, "energy.charge", session=sid, volts=volts
            ) == errors.INVALID_PARAMS
        assert self._code(service, "energy.charge", session=sid, volts=2.2) is None

    def test_discharge_accepts_zero(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=2)["session"]
        for volts in (-0.01, 5.51):
            assert self._code(
                service, "energy.discharge", session=sid, volts=volts
            ) == errors.INVALID_PARAMS
        # In range: validation passes (the loop may then time out against
        # the harvester, which is a target error, not bad params).
        for volts in (0, 5.5):
            assert self._code(
                service, "energy.discharge", session=sid, volts=volts
            ) != errors.INVALID_PARAMS

    def test_break_action_volts_are_checked_at_registration(self, service):
        sid = rpc(service, "session.create", app="linked_list", seed=4242,
                  iterations=400)["session"]
        assert self._code(
            service, "break.on_hit", session=sid,
            actions=[{"op": "discharge", "volts": 0.0}],
        ) is None
        kept = [{"op": "vcap"}, {"op": "charge", "volts": 2.35}]
        rpc(service, "break.on_hit", session=sid, actions=kept)
        for action in (
            {"op": "discharge", "volts": -1.0},
            {"op": "charge", "volts": 0.0},
            {"op": "charge", "volts": 6.0},
            {"op": "discharge", "volts": 5.6},
        ):
            assert self._code(
                service, "break.on_hit", session=sid,
                actions=[{"op": "vcap"}, action],
            ) == errors.INVALID_PARAMS
        # A rejected list leaves the registered one in place, and the
        # run that used to abort on a negative target now completes.
        rpc(service, "break.add_energy", session=sid, threshold_v=2.2)
        rpc(service, "run", session=sid, duration=0.25, max_cycles=100_000)
        stops = rpc(service, "break.log", session=sid)["stops"]
        assert stops
        assert all(
            [r["op"] for r in stop["results"]] == ["vcap", "charge"]
            for stop in stops
        )


def _jsonable_reference(value):
    """``_jsonable`` before its exact-type fast path."""
    if isinstance(value, (bytes, bytearray)):
        return {"hex": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(k): _jsonable_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_reference(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def test_jsonable_folds_exactly_as_before():
    import collections
    import enum

    class Level(enum.IntEnum):
        LOW = 1

    class Volts(float):
        pass

    class Name(str):
        pass

    class Table(dict):
        pass

    Pair = collections.namedtuple("Pair", "a b")
    values = [
        1.5, float("nan"), -0.0, 7, True, False, None, "s", b"\x00\xff",
        bytearray(b"ab"), (1, 2.0, b"x"), [1, [2, (3,)]],
        {"vcap": 2.4, "vreg": 2.0}, {1: {2: b"\x01"}, (3, 4): [None]},
        Level.LOW, Volts(2.5), Name("n"), Table(a=Volts(1.0)),
        collections.OrderedDict(b=1), Pair(1, b"z"), object, 3 + 4j,
        {"nested": [{"deep": (Level.LOW, Name("x"), bytearray(b"q"))}]},
    ]
    for value in values:
        new = _jsonable(value)
        old = _jsonable_reference(value)
        assert json.dumps(new) == json.dumps(old)
        assert repr(new) == repr(old)
        assert type(new) is type(old)


class TestConsoleEquivalence:
    """The RPC break→inspect→charge→resume flow vs the console path.

    Same seed, same app build, same scripted per-stop actions — the
    target must not be able to tell who is driving the debugger: the
    session transcripts, costed protocol cycles, and the full energy
    trajectory must agree exactly.
    """

    SEED = 4242
    DURATION = 0.25
    THRESHOLD = 2.0
    CHARGE_TO = 2.35

    def _console_rig(self):
        sim = Simulator(seed=self.SEED)
        power = make_wisp_power_system(sim)
        device = TargetDevice(sim, power)
        edb = EDB(sim, device)
        program = get_adapter("fibonacci").build(False, 16)
        executor = IntermittentExecutor(sim, device, program, edb=edb.libedb())
        console = DebugConsole(edb, executor=executor)
        transcripts: list[list[str]] = []

        def on_break(event, session) -> None:
            session.read_u16(FRAM_BASE)
            session.charge(self.CHARGE_TO)
            transcripts.append(list(session.transcript))

        edb.on_break(on_break)  # replaces the console's announcer
        console.execute(f"break energy {self.THRESHOLD}")
        console.execute(f"run {self.DURATION}")
        return device, edb, transcripts

    def _rpc_rig(self, service):
        sid = rpc(
            service, "session.create", app="fibonacci", seed=self.SEED
        )["session"]
        rpc(
            service,
            "break.on_hit",
            session=sid,
            actions=[
                {"op": "read_u16", "address": FRAM_BASE},
                {"op": "charge", "volts": self.CHARGE_TO},
            ],
        )
        rpc(service, "break.add_energy", session=sid, threshold_v=self.THRESHOLD)
        result = rpc(service, "run", session=sid, duration=self.DURATION)
        return service.sessions[sid], result

    def test_transcripts_cycles_and_energy_match(self, service):
        device_c, edb_c, transcripts_c = self._console_rig()
        session_r, result_r = self._rpc_rig(service)
        device_r = session_r.device

        # The loop actually exercised breakpoints on both sides.
        assert transcripts_c, "console rig never hit the energy breakpoint"
        stops = rpc(service, "break.log", session=session_r.id)["stops"]
        assert len(stops) == len(transcripts_c)

        # Interactive-session transcripts are line-for-line identical.
        transcripts_r = [stop["transcript"] for stop in stops]
        assert transcripts_r == transcripts_c

        # Target-side observables: costed cycles, clock, reboots.
        assert device_r.cycles_executed == device_c.cycles_executed
        assert device_r.reboot_count == device_c.reboot_count
        assert session_r.sim.now == edb_c.sim.now

        # Energy trajectory: final Vcap and the full sampled series.
        assert device_r.power.vcap == device_c.power.vcap
        series_c = edb_c.monitor.energy_series()
        series_r = session_r.edb.monitor.energy_series()
        assert series_r == series_c

    def test_mem_access_costs_match_console(self, service):
        """RPC mem.read uses the console's exact tether bracket."""
        sim = Simulator(seed=9)
        power = make_wisp_power_system(sim)
        device_c = TargetDevice(sim, power)
        edb_c = EDB(sim, device_c)
        edb_c.libedb()
        power.charge_until_on()
        console = DebugConsole(edb_c)
        console.execute(f"read 0x{FRAM_BASE:04X} 8")

        sid = rpc(service, "session.create", app="fibonacci", seed=9)["session"]
        session_r = service.sessions[sid]
        session_r.device.power.charge_until_on()
        rpc(service, "mem.read", session=sid, address=FRAM_BASE, count=8)

        assert session_r.device.cycles_executed == device_c.cycles_executed
        assert not session_r.device.power.is_tethered

    def _bare_rig(self, seed: int, iterations: int = 16):
        sim = Simulator(seed=seed)
        power = make_wisp_power_system(sim)
        device = TargetDevice(sim, power)
        edb = EDB(sim, device)
        program = get_adapter("fibonacci").build(False, iterations)
        executor = IntermittentExecutor(sim, device, program, edb=edb.libedb())
        return device, edb, DebugConsole(edb, executor=executor)

    def _assert_same_target(self, device_c, edb_c, session_r):
        assert session_r.device.cycles_executed == device_c.cycles_executed
        assert session_r.sim.now == edb_c.sim.now
        assert session_r.device.power.vcap == device_c.power.vcap

    def test_emulate_matches_rpc(self, service):
        """Console ``emulate 3`` and RPC ``emulate`` run the same code."""
        device_c, edb_c, console = self._bare_rig(self.SEED, 2000)
        assert "emulated 3 cycle(s)" in console.execute("emulate 3")

        sid = rpc(service, "session.create", app="fibonacci",
                  seed=self.SEED, iterations=2000)["session"]
        result = rpc(service, "emulate", session=sid, cycles=3)
        assert len(result["cycles"]) == 3

        self._assert_same_target(device_c, edb_c, service.sessions[sid])

    def test_write_then_read_matches_rpc(self, service):
        """Console ``write``/``read`` and RPC ``mem.write``/``mem.read``."""
        address = FRAM_BASE + 0x100
        device_c, edb_c, console = self._bare_rig(9)
        device_c.power.charge_until_on()
        console.execute(f"write 0x{address:04X} 0xBEEF")
        assert "ef be" in console.execute(f"read 0x{address:04X} 2")

        sid = rpc(service, "session.create", app="fibonacci", seed=9)["session"]
        session_r = service.sessions[sid]
        session_r.device.power.charge_until_on()
        rpc(service, "mem.write", session=sid, address=address, value=0xBEEF)
        read = rpc(service, "mem.read", session=sid, address=address, count=2)
        assert read["hex"] == "efbe"

        self._assert_same_target(device_c, edb_c, session_r)


class TestInputRule:
    """Out-of-range host requests answer InvalidParams and touch nothing."""

    @pytest.mark.parametrize(
        "method,params",
        [
            ("mem.write", {"address": FRAM_BASE, "value": 0x12345}),
            ("mem.write", {"address": FRAM_BASE, "value": -1}),
            ("mem.write", {"address": 0x10000, "value": 1}),
            ("mem.write", {"address": FRAM_BASE, "data": ""}),
            ("mem.write", {"address": FRAM_BASE, "data": "00" * 254}),
            ("mem.write", {"address": FRAM_BASE, "data": "zz"}),
            ("mem.read", {"address": -5}),
            ("mem.read", {"address": 0x10000}),
            ("mem.read", {"address": FRAM_BASE, "count": 0}),
            ("mem.read", {"address": FRAM_BASE, "count": 256}),
            ("mem.read", {"address": FRAM_BASE, "count": 100000}),
        ],
        ids=[
            "value-wide", "value-negative", "address-wide", "data-empty",
            "data-long", "data-not-hex", "address-negative", "read-wide",
            "count-zero", "count-256", "count-100000",
        ],
    )
    def test_memory_arguments_out_of_range(self, service, method, params):
        sid = rpc(service, "session.create", app="fibonacci", seed=3)["session"]
        device = service.sessions[sid].device
        response = wire(
            service,
            {"jsonrpc": "2.0", "id": 1, "method": method,
             "params": {"session": sid, **params}},
        )
        assert response["error"]["code"] == errors.INVALID_PARAMS
        assert device.cycles_executed == 0
        assert not device.power.is_tethered

    def test_rejected_emulate_touches_nothing(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=3)["session"]
        before = rpc(service, "session.status", session=sid)
        response = wire(
            service,
            {"jsonrpc": "2.0", "id": 1, "method": "emulate",
             "params": {"session": sid, "cycles": 3, "turn_on_voltage": 1.0}},
        )
        assert response["error"]["code"] == errors.INVALID_PARAMS
        assert "comparator threshold" in response["error"]["message"]
        after = rpc(service, "session.status", session=sid)
        for key in ("cycles", "time", "vcap", "state"):
            assert after[key] == before[key]
        assert not service.sessions[sid].executor.flashed

    def test_break_thresholds_follow_the_console(self, service):
        sid = rpc(service, "session.create", app="fibonacci", seed=3)["session"]
        for threshold in (9.0, -0.5):
            with pytest.raises(errors.InvalidParams):
                rpc(service, "break.add_energy", session=sid,
                    threshold_v=threshold)
            with pytest.raises(errors.InvalidParams):
                rpc(service, "break.add_combined", session=sid, id=1,
                    threshold_v=threshold)
        assert rpc(service, "break.list", session=sid)["breakpoints"] == []
        rpc(service, "break.add_energy", session=sid, threshold_v=0.0)
        rpc(service, "break.add_combined", session=sid, id=1, threshold_v=5.5)


class TestTCPTransport:
    @pytest.fixture
    def tcp_server(self, service):
        server = DebugTCPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[1]
        server.shutdown()
        server.server_close()

    def test_two_clients_two_isolated_sessions(self, service, tcp_server):
        with DebugClient.connect_tcp("127.0.0.1", tcp_server) as c1, \
                DebugClient.connect_tcp("127.0.0.1", tcp_server) as c2:
            s1 = c1.create_session(app="fibonacci", seed=1)
            s2 = c2.create_session(app="linked_list", seed=2)
            s1.break_code(5)
            assert s2.breakpoints() == []
            assert len(s1.breakpoints()) == 1
            s1.trace("energy")
            r1 = s1.run(0.02)
            r2 = s2.run(0.02)
            assert r1["status"] and r2["status"]
            # Cross-connection visibility: one shared service.
            assert len(c2.list_sessions()) == 2
            # s2 traced nothing; s1 did.
            assert s2.poll_trace()["events"] == []
            assert s1.poll_trace()["next_cursor"] > 0
            s1.close()
            s2.close()

    def test_malformed_line_keeps_connection_alive(self, service, tcp_server):
        client = DebugClient.connect_tcp("127.0.0.1", tcp_server)
        try:
            client._send_line("not json at all\n")
            error_line = json.loads(client._recv_line())
            assert error_line["error"]["code"] == errors.PARSE_ERROR
            assert client.ping()["pong"] is True
        finally:
            client.close()

    def test_rpc_error_raises_typed_client_error(self, service, tcp_server):
        with DebugClient.connect_tcp("127.0.0.1", tcp_server) as client:
            with pytest.raises(DebugRpcError) as excinfo:
                client.call("session.status", session="sX")
            assert excinfo.value.code == errors.SESSION_NOT_FOUND


def _server_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.debug_smoke
class TestServerSmoke:
    def test_tcp_server_subprocess_end_to_end(self):
        """Spawn the real entry point; two sessions; trace; clean exit."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.debug.server", "--port", "0"],
            stderr=subprocess.PIPE,
            env=_server_env(),
            text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "listening on" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            with DebugClient.connect_tcp("127.0.0.1", port) as client:
                assert client.ping()["pong"] is True
                a = client.create_session(app="fibonacci", seed=1)
                b = client.create_session(app="counter", seed=2)
                a.trace("energy")
                result = a.run(0.05)
                assert result["status"] in ("completed", "timeout")
                page = a.poll_trace(limit=100000)
                assert page["events"], "no energy samples over RPC"
                assert all(e["stream"] == "energy" for e in page["events"])
                assert b.status()["cycles"] == 0  # untouched sibling
                a.close()
                b.close()
                assert client.list_sessions() == []
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_stdio_server_subprocess(self):
        with DebugClient.spawn_stdio(env=_server_env()) as client:
            session = client.create_session(app="fibonacci", seed=3)
            session.trace("energy")
            session.charge(2.4)
            result = session.run(0.05)
            assert result["status"] in ("completed", "timeout")
            assert session.poll_trace()["events"]
            session.close()
