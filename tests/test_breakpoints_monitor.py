"""Unit tests for breakpoint management and the passive monitor."""

import pytest

from repro.core.breakpoints import Breakpoint, BreakpointKind, BreakpointManager
from repro.core.monitor import PassiveMonitor, StreamEvent
from repro.sim import units
from repro.sim.kernel import Simulator


class TestBreakpointValidation:
    def test_code_needs_id(self):
        with pytest.raises(ValueError):
            Breakpoint(BreakpointKind.CODE)

    def test_energy_needs_threshold(self):
        with pytest.raises(ValueError):
            Breakpoint(BreakpointKind.ENERGY)

    def test_combined_needs_both(self):
        with pytest.raises(ValueError):
            Breakpoint(BreakpointKind.COMBINED, breakpoint_id=1)

    def test_describe_mentions_fields(self):
        bp = Breakpoint(
            BreakpointKind.COMBINED, breakpoint_id=2, energy_threshold=2.0
        )
        text = bp.describe()
        assert "id=2" in text
        assert "2.00V" in text


class TestBreakpointManager:
    def test_code_triggers_on_id(self):
        manager = BreakpointManager()
        manager.add_code(1)
        assert manager.check_code_point(1, vcap=2.4) is not None
        assert manager.check_code_point(2, vcap=2.4) is None

    def test_disabled_does_not_trigger(self):
        manager = BreakpointManager()
        manager.add_code(1)
        manager.set_enabled(1, False)
        assert manager.check_code_point(1, vcap=2.4) is None

    def test_reenable(self):
        manager = BreakpointManager()
        manager.add_code(1)
        manager.set_enabled(1, False)
        assert manager.set_enabled(1, True) == 1
        assert manager.check_code_point(1, vcap=2.4) is not None

    def test_energy_triggers_at_or_below(self):
        manager = BreakpointManager()
        manager.add_energy(2.0)
        assert manager.check_energy(2.1) is None
        assert manager.check_energy(2.0) is not None

    def test_combined_needs_both_conditions(self):
        manager = BreakpointManager()
        manager.add_combined(1, 2.0)
        assert manager.check_code_point(1, vcap=2.3) is None  # energy too high
        assert manager.check_code_point(1, vcap=1.9) is not None

    def test_one_shot_disables_after_hit(self):
        manager = BreakpointManager()
        manager.add_code(1, one_shot=True)
        assert manager.check_code_point(1, vcap=2.4) is not None
        assert manager.check_code_point(1, vcap=2.4) is None

    def test_hits_counted(self):
        manager = BreakpointManager()
        bp = manager.add_code(1)
        manager.check_code_point(1, vcap=2.4)
        manager.check_code_point(1, vcap=2.4)
        assert bp.hits == 2

    def test_remove(self):
        manager = BreakpointManager()
        bp = manager.add_energy(2.0)
        assert manager.remove(bp) is True
        assert manager.check_energy(1.5) is None

    def test_remove_absent_is_noop(self):
        manager = BreakpointManager()
        manager.add_code(1)
        stray = Breakpoint(BreakpointKind.CODE, breakpoint_id=1)
        assert manager.remove(stray) is False
        assert len(manager.breakpoints) == 1

    def test_remove_duplicate_registration_targets_exact_instance(self):
        """Removal matches by identity, not dataclass value-equality.

        Two identical registrations (same kind/id, zero hits) compare
        equal; removing the *second* instance must not silently delete
        the first.
        """
        manager = BreakpointManager()
        first = manager.add_code(7)
        second = manager.add_code(7)
        assert first == second and first is not second
        assert manager.remove(second) is True
        assert manager.breakpoints == [first]
        assert manager.breakpoints[0] is first
        # And removing it again is a no-op, not a hit on `first`.
        assert manager.remove(second) is False
        assert manager.breakpoints[0] is first

    def test_active_lists_enabled_only(self):
        manager = BreakpointManager()
        manager.add_code(1)
        manager.add_code(2)
        manager.set_enabled(2, False)
        assert len(manager.active()) == 1


class TestPassiveMonitor:
    def _monitor(self, sample_rate=1 * units.KHZ):
        sim = Simulator(seed=3)
        vcap = {"v": 2.4}
        monitor = PassiveMonitor(
            sim,
            read_vcap=lambda: vcap["v"],
            read_vreg=lambda: 2.0,
            sample_rate=sample_rate,
        )
        return sim, vcap, monitor

    def test_energy_stream_samples_periodically(self):
        sim, _, monitor = self._monitor()
        monitor.enable("energy")
        sim.advance(0.01)
        times, values = monitor.energy_series()
        assert 9 <= len(values) <= 10  # float accumulation at the boundary
        assert values[0] == pytest.approx(2.4)

    def test_disable_stops_sampling(self):
        sim, _, monitor = self._monitor()
        monitor.enable("energy")
        sim.advance(0.005)
        monitor.disable("energy")
        sim.advance(0.01)
        assert 4 <= len(monitor.energy_series()[0]) <= 5

    def test_unknown_stream_rejected(self):
        _, _, monitor = self._monitor()
        with pytest.raises(ValueError):
            monitor.enable("quantum")

    def test_watchpoints_record_energy_context(self):
        sim, vcap, monitor = self._monitor()
        monitor.enable("watchpoints")
        vcap["v"] = 2.2
        monitor.on_watchpoint(1)
        stats = monitor.watchpoint_stats(1)
        assert stats.hits == 1
        assert stats.energy_readings == [2.2]

    def test_disabled_watchpoint_ignored(self):
        _, _, monitor = self._monitor()
        monitor.disabled_watchpoints.add(4)
        monitor.on_watchpoint(4)
        assert monitor.watchpoint_stats(4).hits == 0

    def test_io_and_rfid_streams_gated_by_enable(self):
        _, _, monitor = self._monitor()
        monitor.on_io("uart", b"x")  # not enabled: dropped
        monitor.enable("iobus")
        monitor.on_io("uart", b"y")
        events = monitor.stream_events("iobus")
        assert len(events) == 1
        assert events[0].value["payload"] == b"y"

    def test_stream_events_are_immutable_values(self):
        event = StreamEvent(time=0.5, stream="watchpoints", value=3, vcap=2.2)
        assert repr(event) == (
            "StreamEvent(time=0.5, stream='watchpoints', value=3, vcap=2.2)"
        )
        assert event == StreamEvent(0.5, "watchpoints", 3, 2.2)
        assert event != StreamEvent(0.5, "watchpoints", 4, 2.2)
        assert len({event, StreamEvent(0.5, "watchpoints", 3, 2.2)}) == 1
        with pytest.raises(AttributeError):
            event.vcap = 0.0

    def test_listeners_see_live_events(self):
        _, _, monitor = self._monitor()
        seen = []
        monitor.listeners.append(seen.append)
        monitor.enable("rfid")
        monitor.on_rfid({"kind": "CMD_QUERY"})
        assert seen[0].stream == "rfid"

    def test_energy_between_pairs(self):
        sim, vcap, monitor = self._monitor()
        cap = 47 * units.UF
        # wp1 at 2.4, wp2 at 2.3 -> cost = E(2.4) - E(2.3)
        vcap["v"] = 2.4
        monitor.on_watchpoint(1)
        sim.advance(1e-3)
        vcap["v"] = 2.3
        monitor.on_watchpoint(2)
        costs = monitor.energy_between(1, 2, cap)
        expected = 0.5 * cap * (2.4**2 - 2.3**2)
        assert costs == [pytest.approx(expected)]

    def test_energy_between_drops_reboot_cut_pairs(self):
        sim, vcap, monitor = self._monitor()
        cap = 47 * units.UF
        vcap["v"] = 2.0
        monitor.on_watchpoint(1)
        sim.advance(1e-3)
        vcap["v"] = 2.4  # charged across the pair: a reboot intervened
        monitor.on_watchpoint(2)
        assert monitor.energy_between(1, 2, cap) == []

    def test_energy_between_same_id_full_iterations(self):
        sim, vcap, monitor = self._monitor()
        cap = 47 * units.UF
        for v in (2.4, 2.35, 2.30):
            vcap["v"] = v
            monitor.on_watchpoint(1)
            sim.advance(1e-3)
        costs = monitor.energy_between(1, 1, cap)
        assert len(costs) == 2
        assert all(c > 0 for c in costs)

    def test_energy_between_unknown_watchpoints(self):
        _, _, monitor = self._monitor()
        assert monitor.energy_between(8, 9, 47e-6) == []

    def test_clear_resets_everything(self):
        sim, _, monitor = self._monitor()
        monitor.enable("energy")
        monitor.on_watchpoint(1)
        sim.advance(0.002)
        monitor.clear()
        assert monitor.events == []
        assert monitor.watchpoint_stats(1).hits == 0

    def test_clear_resets_disabled_watchpoints(self):
        """A reused monitor must not keep suppressing watchpoints a
        previous session disabled (console ``watch dis id``)."""
        _, _, monitor = self._monitor()
        monitor.disabled_watchpoints.add(3)
        monitor.on_watchpoint(3)
        assert monitor.watchpoint_stats(3).hits == 0
        monitor.clear()
        assert monitor.disabled_watchpoints == set()
        monitor.on_watchpoint(3)
        assert monitor.watchpoint_stats(3).hits == 1

    def test_clear_keeps_listeners(self):
        """Listeners are wiring, not session data — they survive clear()."""
        _, _, monitor = self._monitor()
        seen = []
        monitor.listeners.append(seen.append)
        monitor.clear()
        monitor.enable("rfid")
        monitor.on_rfid("msg")
        assert len(seen) == 1
