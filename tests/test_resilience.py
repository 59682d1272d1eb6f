"""Chaos suite: the host-fault resilience layer end to end.

Every test here injects a *host* fault — torn or bit-flipped journal
files, a disk that fills mid-campaign, snapshots that rot in memory,
corrupted / truncated / dropped / stalled debug-server wire traffic —
and asserts the recovery contract:

- a campaign that survived injected host faults produces a report
  **byte-identical** to a fault-free run (including the pinned golden
  report in ``tests/data/campaign_golden.json``);
- corrupted journal lines are quarantined and their runs re-executed,
  never surfaced as raw ``JSONDecodeError``;
- a corrupted snapshot is refused at restore time and the affected
  runs silently fall back to the honest from-reset path;
- no wire input kills the debug server or leaks a session, and
  transport failures surface to the client as typed errors
  (``SessionLost``), never hangs.

All injected faults are seed-derived (``repro.resilience.plan``), so a
chaos failure reproduces from its seed like any other campaign bug.
The ``chaos_smoke`` marker names the fixed-seed subset CI runs as its
own step.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import Simulator
from repro.campaign import (
    CampaignConfig,
    CampaignWarning,
    run_campaign,
    scan_journal,
)
from repro.batch import engine
from repro.campaign import forking, runner, scheduler
from repro.campaign.report import render_json
from repro.debug import errors
from repro.debug.client import DebugClient, DebugRpcError
from repro.debug.errors import SessionLost
from repro.debug.server import (
    MAX_BATCH_ITEMS,
    DebugTCPServer,
    handle_line,
    serve_stdio,
)
from repro.debug.service import DebugService
from repro.resilience import (
    ChaosJournalWriter,
    ChaosTransport,
    HostFaultPlan,
    RpcFaultPlan,
    chaos_capture,
    chaos_client,
    corrupt_journal,
    corrupt_snapshot,
    plan_host_faults,
    tear_file,
    tear_journal,
)
from repro.sim.rng import derive_seed
import repro.snapshot as snapshots
from repro.snapshot import SnapshotIntegrityError, capture, restore
from repro.testing import make_fast_target

pytestmark = pytest.mark.chaos

#: The pinned campaign report (and the config that renders it) —
#: same pair ``tests/test_hotpath.py`` gates on; the chaos golden test
#: must reproduce the identical bytes *through* injected host faults.
GOLDEN_PATH = Path(__file__).parent / "data" / "campaign_golden.json"
GOLDEN_CONFIG = CampaignConfig(
    app="linked_list",
    runs=16,
    seed=20260806,
    iterations=16,
    duration=0.6,
    workers=1,
    shrink=True,
    shrink_limit=2,
)

#: Cheap campaign every byte-identity test diffs against (same shape as
#: the supervision suite's resume config).
CHAOS_CONFIG = CampaignConfig(
    app="linked_list", runs=8, seed=99, iterations=8, duration=0.4,
    shrink=False, workers=1, chunk=2,
)

#: :data:`CHAOS_CONFIG` in a pinned environment: each chunk's op-index
#: runs form one lane group, whose leader captures nodes and whose
#: peels restore them, and from-reset legs run on warm devices.
ROT_CONFIG = dataclasses.replace(
    CHAOS_CONFIG, chunk=4, modes=("op_index",), distance_range=(1.6, 1.6),
    fading_range=(0.0, 0.0), duty_chance=0.0,
)


@pytest.fixture(scope="module")
def chaos_baseline() -> str:
    """The fault-free report bytes for :data:`CHAOS_CONFIG`."""
    return render_json(run_campaign(CHAOS_CONFIG))


@pytest.fixture(scope="module")
def journaled_campaign(tmp_path_factory, chaos_baseline) -> Path:
    """A complete, healthy journal of :data:`CHAOS_CONFIG` (copy before
    damaging)."""
    path = tmp_path_factory.mktemp("journal") / "campaign.jsonl"
    report = run_campaign(CHAOS_CONFIG, journal_path=str(path))
    assert render_json(report) == chaos_baseline
    return path


def damaged_copy(journal: Path, tmp_path: Path, name: str) -> Path:
    copy = tmp_path / name
    shutil.copy(journal, copy)
    return copy


# -- fault plans --------------------------------------------------------------
class TestHostFaultPlan:
    @pytest.mark.chaos_smoke
    def test_same_seed_same_plan(self):
        assert plan_host_faults(7) == plan_host_faults(7)
        assert plan_host_faults(7) != plan_host_faults(8)

    def test_axis_subset_does_not_shift_other_draws(self):
        full = plan_host_faults(42)
        only_tear = plan_host_faults(42, axes=("journal_tear",))
        assert only_tear.journal_tear_frac == full.journal_tear_frac
        assert only_tear.journal_fail_after is None
        assert only_tear.snapshot_period is None
        assert only_tear.rpc.drop_request is None

    def test_disabled_axes_are_inert(self):
        plan = plan_host_faults(3, axes=())
        assert plan.journal_tear_frac is None
        assert plan.journal_flip_frac is None
        assert plan.journal_fail_after is None
        assert plan.snapshot_period is None
        assert plan.rpc == RpcFaultPlan(
            corrupt_byte_frac=plan.rpc.corrupt_byte_frac,
            corrupt_bit=plan.rpc.corrupt_bit,
            truncate_frac=plan.rpc.truncate_frac,
            stall_s=plan.rpc.stall_s,
        )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown host-fault axes"):
            plan_host_faults(1, axes=("journal_tear", "meteor_strike"))

    def test_plan_is_json_ready(self):
        json.dumps(plan_host_faults(5).to_dict())


# -- journal damage -----------------------------------------------------------
class TestJournalChaos:
    @pytest.mark.chaos_smoke
    @pytest.mark.parametrize("frac", [0.15, 0.5, 0.9])
    def test_resume_after_tear_is_byte_identical(
        self, frac, tmp_path, journaled_campaign, chaos_baseline
    ):
        copy = damaged_copy(journaled_campaign, tmp_path, "torn.jsonl")
        tear_journal(copy, frac)
        resumed = run_campaign(CHAOS_CONFIG, resume_from=str(copy))
        assert render_json(resumed) == chaos_baseline

    @pytest.mark.parametrize("frac,bit", [(0.2, 0), (0.5, 3), (0.85, 7)])
    def test_resume_after_bitflip_is_byte_identical(
        self, frac, bit, tmp_path, journaled_campaign, chaos_baseline
    ):
        copy = damaged_copy(journaled_campaign, tmp_path, "flipped.jsonl")
        corrupt_journal(copy, frac, bit)
        resumed = run_campaign(CHAOS_CONFIG, resume_from=str(copy))
        assert render_json(resumed) == chaos_baseline

    def test_random_damage_property(
        self, tmp_path, journaled_campaign, chaos_baseline
    ):
        """Seeded property test: kill the journal at a random byte —
        truncating or corrupting — and resume; bytes must match."""
        rng = random.Random(derive_seed(1234, "journal-damage"))
        for round_no in range(4):
            copy = damaged_copy(
                journaled_campaign, tmp_path, f"damaged{round_no}.jsonl"
            )
            frac = rng.uniform(0.02, 0.98)
            if rng.random() < 0.5:
                tear_journal(copy, frac)
            else:
                corrupt_journal(copy, frac, rng.randint(0, 7))
            resumed = run_campaign(CHAOS_CONFIG, resume_from=str(copy))
            assert render_json(resumed) == chaos_baseline, (
                f"round {round_no}: frac={frac}"
            )

    def test_interior_corruption_quarantines_with_warning(
        self, tmp_path, journaled_campaign
    ):
        copy = damaged_copy(journaled_campaign, tmp_path, "interior.jsonl")
        corrupt_journal(copy, 0.3, 2)
        with pytest.warns(CampaignWarning, match="quarantined"):
            scan = scan_journal(copy, CHAOS_CONFIG)
        assert scan.quarantined or scan.truncated_tail
        # Never a raw JSONDecodeError, and the survivors stay valid.
        for record in scan.records.values():
            assert 0 <= record["index"] < CHAOS_CONFIG.runs

    def test_quarantine_names_the_lost_runs(
        self, tmp_path, journaled_campaign
    ):
        """A CRC-failed (but parseable) line reports which runs it took."""
        copy = damaged_copy(journaled_campaign, tmp_path, "crc.jsonl")
        lines = copy.read_text().splitlines(keepends=True)
        entry = json.loads(lines[2])
        entry["crc"] ^= 1  # payload intact, checksum wrong
        lines[2] = json.dumps(entry, sort_keys=True) + "\n"
        copy.write_text("".join(lines))
        with pytest.warns(CampaignWarning):
            scan = scan_journal(copy, CHAOS_CONFIG)
        assert scan.quarantined_indices == entry["data"]["indices"]
        assert all(
            i not in scan.records for i in entry["data"]["indices"]
        )

    def test_disk_full_campaign_finishes_in_memory(
        self, tmp_path, chaos_baseline
    ):
        """ENOSPC mid-campaign: warning, full in-memory report, and the
        torn journal still resumes to the same bytes."""
        path = tmp_path / "enospc.jsonl"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                scheduler,
                "JournalWriter",
                lambda p, c, fresh=True, fsync=False: ChaosJournalWriter(
                    p, c, fail_after=2, fresh=fresh, fsync=fsync
                ),
            )
            with pytest.warns(CampaignWarning, match="journaling disabled"):
                report = run_campaign(CHAOS_CONFIG, journal_path=str(path))
        assert render_json(report) == chaos_baseline
        # The file ends in torn debris; resume quarantines it and
        # re-executes every run the journal never recorded.
        resumed = run_campaign(CHAOS_CONFIG, resume_from=str(path))
        assert render_json(resumed) == chaos_baseline

    def test_fsync_mode_produces_identical_journals(
        self, tmp_path, journaled_campaign
    ):
        path = tmp_path / "fsynced.jsonl"
        run_campaign(CHAOS_CONFIG, journal_path=str(path), journal_fsync=True)
        assert path.read_bytes() == journaled_campaign.read_bytes()

    def test_tear_file_reports_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"0123456789")
        assert tear_file(path, 0.5) == 5
        assert path.read_bytes() == b"01234"


# -- snapshot rot -------------------------------------------------------------
class TestSnapshotChaos:
    def test_restore_refuses_a_rotted_snapshot(self):
        sim = Simulator(seed=5)
        target = make_fast_target(sim)
        pristine = capture(target)
        rotted = capture(target)
        where = corrupt_snapshot(rotted, random.Random(1))
        assert where["region"] in rotted.memory_pages
        with pytest.raises(SnapshotIntegrityError):
            restore(target, rotted)
        # The device was not touched: a fresh capture still matches the
        # pristine snapshot page for page.
        after = capture(target)
        assert after.memory_pages == pristine.memory_pages
        assert after.cpu_registers == pristine.cpu_registers

    def test_campaign_survives_snapshot_rot(self, monkeypatch):
        """Every snapshot rots — the lane leader's nodes and the warm
        pool's devices alike; restores refuse them, the campaign falls
        back to from-reset legs and cold builds, and the report does not
        move a byte."""
        baseline = render_json(
            run_campaign(ROT_CONFIG, snapshot=False, batch=False)
        )
        # Start cold, so the leader and the pool capture under the rot.
        monkeypatch.setattr(engine, "_leader_memo", {})
        monkeypatch.setattr(runner, "_device_pool", {})
        monkeypatch.setattr(runner, "_recent_keys", {})
        plan = HostFaultPlan(
            seed=99, axes=("snapshot_corrupt",), snapshot_period=1
        )
        rot = chaos_capture(plan)
        monkeypatch.setattr(forking, "capture", rot)
        monkeypatch.setattr(snapshots, "capture", rot)
        refused = []
        for owner in (forking, snapshots):
            def guarded(
                device, snap, *args, _restore=owner.restore,
                _name=owner.__name__,
            ):
                try:
                    return _restore(device, snap, *args)
                except SnapshotIntegrityError:
                    refused.append(_name)
                    raise

            monkeypatch.setattr(owner, "restore", guarded)
        sessions = []
        real_init = forking.ForkSession.__init__

        def counting_init(session, *args):
            sessions.append(args)
            real_init(session, *args)

        monkeypatch.setattr(forking.ForkSession, "__init__", counting_init)
        assert render_json(run_campaign(ROT_CONFIG)) == baseline
        assert sessions, "no lane group formed"
        # Both capture sites rotted a snapshot that a restore then met.
        assert set(refused) == {"repro.campaign.forking", "repro.snapshot"}

    def test_chaos_capture_passthrough_when_disabled(self):
        plan = HostFaultPlan(seed=1, axes=())
        sim = Simulator(seed=6)
        target = make_fast_target(sim)
        wrapped = chaos_capture(plan)
        for _ in range(4):  # no period -> never corrupts
            restore(target, wrapped(target))


# -- wire hardening -----------------------------------------------------------
@pytest.fixture
def service():
    svc = DebugService()
    yield svc
    svc.close_all()


@pytest.fixture
def tcp_port(service):
    server = DebugTCPServer(("127.0.0.1", 0), service, max_request_bytes=4096)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


PING = {"jsonrpc": "2.0", "id": 1, "method": "debug.ping"}


class TestWireHardening:
    @pytest.mark.chaos_smoke
    def test_oversized_tcp_line_is_bounded(self, service, tcp_port):
        client = DebugClient.connect_tcp("127.0.0.1", tcp_port)
        try:
            client._send_line('{"pad": "' + "x" * 10000 + '"}\n')
            response = json.loads(client._recv_line())
            assert response["error"]["code"] == errors.INVALID_REQUEST
            assert "exceeds" in response["error"]["message"]
            # The oversized line was drained: framing recovered.
            assert client.ping()["pong"] is True
        finally:
            client.close()

    def test_oversized_stdio_line_is_bounded(self):
        requests = '{"pad": "' + "x" * 2000 + '"}\n' + json.dumps(PING) + "\n"
        out = io.StringIO()
        serve_stdio(
            DebugService(),
            io.StringIO(requests),
            out,
            max_request_bytes=256,
        )
        first, second = out.getvalue().splitlines()
        assert json.loads(first)["error"]["code"] == errors.INVALID_REQUEST
        assert json.loads(second)["result"]["pong"] is True

    def test_oversized_batch_rejected(self, service):
        batch = [dict(PING, id=i) for i in range(MAX_BATCH_ITEMS + 1)]
        response = json.loads(handle_line(service, json.dumps(batch) + "\n"))
        assert response["error"]["code"] == errors.INVALID_REQUEST
        assert str(MAX_BATCH_ITEMS) in response["error"]["message"]

    def test_batch_at_the_limit_is_served(self, service):
        batch = [dict(PING, id=i) for i in range(MAX_BATCH_ITEMS)]
        responses = json.loads(handle_line(service, json.dumps(batch) + "\n"))
        assert len(responses) == MAX_BATCH_ITEMS


# -- session budgets ----------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class TestSessionReaping:
    def make(self, **kwargs) -> tuple[DebugService, FakeClock]:
        clock = FakeClock()
        return DebugService(clock=clock.now, **kwargs), clock

    def test_ttl_reaps_even_busy_sessions(self):
        svc, clock = self.make(session_ttl_s=10.0)
        sid = svc.dispatch("session.create", {"app": "fibonacci"})["session"]
        clock.advance(9.0)
        svc.dispatch("session.status", {"session": sid})  # busy, still dies
        clock.advance(2.0)
        svc.dispatch("debug.ping", {})
        assert svc.sessions == {}
        with pytest.raises(errors.SessionNotFound, match="expired"):
            svc.dispatch("session.status", {"session": sid})
        svc.close_all()

    def test_idle_budget_resets_on_use(self):
        svc, clock = self.make(session_idle_s=10.0)
        sid = svc.dispatch("session.create", {"app": "fibonacci"})["session"]
        clock.advance(8.0)
        svc.dispatch("session.status", {"session": sid})  # refreshes
        clock.advance(9.0)
        assert svc.dispatch("session.status", {"session": sid})["session"] == sid
        clock.advance(11.0)
        svc.dispatch("debug.ping", {})
        assert sid in svc.expired
        svc.close_all()

    def test_no_budgets_means_no_reaping(self):
        svc, clock = self.make()
        sid = svc.dispatch("session.create", {"app": "fibonacci"})["session"]
        clock.advance(1e9)
        svc.dispatch("debug.ping", {})
        assert sid in svc.sessions
        svc.close_all()

    def test_expired_memory_is_bounded(self):
        svc, clock = self.make(session_ttl_s=1.0)
        from repro.debug.service import EXPIRED_MEMORY

        for _ in range(EXPIRED_MEMORY + 5):
            svc.dispatch("session.create", {"app": "fibonacci"})
            clock.advance(2.0)
            svc.dispatch("debug.ping", {})
        assert len(svc.expired) == EXPIRED_MEMORY
        svc.close_all()


# -- transport chaos ----------------------------------------------------------
class TestTransportChaos:
    def test_corrupt_request_never_kills_the_server(self, service, tcp_port):
        plan = RpcFaultPlan(
            corrupt_request=2, corrupt_byte_frac=0.5, corrupt_bit=4
        )
        with DebugClient.connect_tcp("127.0.0.1", tcp_port) as client:
            wrapped = chaos_client(client, plan)
            assert wrapped.ping()["pong"] is True
            try:
                wrapped.ping()  # damaged on the wire
            except (DebugRpcError, ConnectionError):
                pass  # either outcome is legal; dying is not
        with DebugClient.connect_tcp("127.0.0.1", tcp_port) as fresh:
            assert fresh.ping()["pong"] is True
            assert fresh.list_sessions() == []  # nothing leaked

    def test_truncated_request_merges_then_framing_recovers(
        self, service, tcp_port
    ):
        plan = RpcFaultPlan(truncate_request=1, truncate_frac=0.4)
        client = DebugClient.connect_tcp("127.0.0.1", tcp_port)
        try:
            t = ChaosTransport(
                client._send_line, client._recv_line, client._close, plan
            )
            t.send(json.dumps(dict(PING, id=1)) + "\n")  # sent headless
            t.send(json.dumps(dict(PING, id=2)) + "\n")  # completes the line
            merged = json.loads(t.recv())
            assert merged["error"]["code"] == errors.PARSE_ERROR
            t.send(json.dumps(dict(PING, id=3)) + "\n")
            assert json.loads(t.recv())["id"] == 3
        finally:
            client.close()

    def test_dropped_connection_is_a_typed_terminal_error(
        self, service, tcp_port
    ):
        plan = RpcFaultPlan(drop_request=2)
        client = DebugClient.connect_tcp("127.0.0.1", tcp_port)
        wrapped = chaos_client(client, plan)
        session = wrapped.create_session(app="fibonacci", seed=1)
        with pytest.raises(SessionLost):
            wrapped.call("session.status", session=session.id)
        with pytest.raises(SessionLost):  # dead clients fail fast
            wrapped.ping()
        # The server is untouched; a reconnecting client sees the
        # orphaned session and can clean it up.
        with DebugClient.connect_tcp("127.0.0.1", tcp_port) as fresh:
            listed = fresh.list_sessions()
            assert [s["session"] for s in listed] == [session.id]
            fresh.call("session.close", session=session.id)

    def test_dropped_client_session_is_reaped_with_clean_error(self):
        """The satellite scenario: drop mid-conversation, the server
        reaps the abandoned session, the reconnecting client gets a
        clean 'expired' error instead of a wedge."""
        clock = FakeClock()
        svc = DebugService(session_idle_s=30.0, clock=clock.now)
        server = DebugTCPServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            client = DebugClient.connect_tcp("127.0.0.1", port)
            wrapped = chaos_client(client, RpcFaultPlan(drop_request=2))
            session = wrapped.create_session(app="fibonacci", seed=1)
            with pytest.raises(SessionLost):
                wrapped.call("session.status", session=session.id)
            clock.advance(31.0)
            with DebugClient.connect_tcp("127.0.0.1", port) as fresh:
                assert fresh.ping()["pong"] is True  # triggers the reap
                assert fresh.list_sessions() == []
                with pytest.raises(DebugRpcError) as info:
                    fresh.call("session.status", session=session.id)
                assert info.value.code == errors.SESSION_NOT_FOUND
                assert "expired" in info.value.message
        finally:
            server.shutdown()
            server.server_close()
            svc.close_all()

    def test_stalled_server_times_out_as_session_lost(self):
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            client = DebugClient.connect_tcp(
                "127.0.0.1", silent.getsockname()[1], timeout=0.3, retries=0
            )
            with pytest.raises(SessionLost):
                client.ping()
            with pytest.raises(SessionLost):
                client.ping()  # still dead, still fast
        finally:
            silent.close()

    def test_connect_retries_with_exponential_backoff(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        sleeps: list[float] = []
        with pytest.raises(OSError):
            DebugClient.connect_tcp(
                "127.0.0.1",
                dead_port,
                timeout=0.2,
                retries=3,
                backoff_s=0.01,
                sleep=sleeps.append,
            )
        assert sleeps == [0.01, 0.02, 0.04]

    def test_stall_axis_delays_without_breaking(self, service, tcp_port):
        plan = RpcFaultPlan(stall_request=1, stall_s=0.01)
        stalls: list[float] = []
        client = DebugClient.connect_tcp("127.0.0.1", tcp_port)
        try:
            t = ChaosTransport(
                client._send_line,
                client._recv_line,
                client._close,
                plan,
                sleep=stalls.append,
            )
            t.send(json.dumps(PING) + "\n")
            assert json.loads(t.recv())["result"]["pong"] is True
            assert stalls == [0.01]
        finally:
            client.close()


# -- graceful shutdown --------------------------------------------------------
def _server_env() -> dict[str, str]:
    import os

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.debug_smoke
class TestGracefulShutdown:
    def test_sigterm_drains_the_tcp_server(self):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.debug.server",
                "--port", "0", "--session-idle", "60",
            ],
            stderr=subprocess.PIPE,
            env=_server_env(),
            text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "listening on" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            with DebugClient.connect_tcp("127.0.0.1", port) as client:
                client.create_session(app="fibonacci", seed=1)
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_sigterm_drains_the_stdio_server(self):
        client = DebugClient.spawn_stdio(env=_server_env())
        try:
            assert client.ping()["pong"] is True
            client.process.send_signal(signal.SIGTERM)
            assert client.process.wait(timeout=15) == 0
        finally:
            client.close()


# -- the golden-bytes chaos smoke --------------------------------------------
@pytest.mark.chaos_smoke
class TestChaosGolden:
    def test_chaos_campaign_matches_golden_bytes(self, tmp_path, monkeypatch):
        """The acceptance gate: a campaign run under seed-derived host
        faults — snapshots rotting, the journal's disk filling up, the
        survivor then torn — still reproduces the pinned golden report
        byte for byte, both live and on resume."""
        golden = GOLDEN_PATH.read_text()
        # Every capture rots, so the first restore of one is refused.
        plan = dataclasses.replace(
            plan_host_faults(
                GOLDEN_CONFIG.seed,
                axes=("journal_tear", "journal_enospc", "snapshot_corrupt"),
            ),
            snapshot_period=1,
        )
        # Start cold, so the pool and the lane leader capture under the
        # rot; the warm pool is where the golden campaign captures.
        monkeypatch.setattr(engine, "_leader_memo", {})
        monkeypatch.setattr(forking, "_continuous_memo", {})
        monkeypatch.setattr(runner, "_device_pool", {})
        monkeypatch.setattr(runner, "_recent_keys", {})
        rot = chaos_capture(plan)
        monkeypatch.setattr(forking, "capture", rot)
        monkeypatch.setattr(snapshots, "capture", rot)
        refused = []
        real_restore = snapshots.restore

        def guarded(device, snap, *args):
            try:
                return real_restore(device, snap, *args)
            except SnapshotIntegrityError:
                refused.append(snap)
                raise

        monkeypatch.setattr(snapshots, "restore", guarded)
        path = tmp_path / "golden_chaos.jsonl"
        # The golden campaign journals 5 lines (header + 4 auto-sized
        # chunks); fold the plan's draw into that window so the
        # injected ENOSPC actually fires.
        fail_after = 1 + plan.journal_fail_after % 4
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                scheduler,
                "JournalWriter",
                lambda p, c, fresh=True, fsync=False: ChaosJournalWriter(
                    p, c, fail_after, fresh=fresh, fsync=fsync
                ),
            )
            with pytest.warns(CampaignWarning, match="journaling disabled"):
                report = run_campaign(GOLDEN_CONFIG, journal_path=str(path))
        assert render_json(report) == golden
        tear_journal(path, plan.journal_tear_frac)
        resumed = run_campaign(GOLDEN_CONFIG, resume_from=str(path))
        assert render_json(resumed) == golden
        assert refused, "no rotted snapshot reached a restore"
