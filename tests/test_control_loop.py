"""Differential tests of EDB's charge/discharge control loop.

The loop in :mod:`repro.analog.charge_circuit` and the memoised
:meth:`PowerSystem.idle_step` it ticks with must replay the plain
per-tick body exactly: measure Vcap through the ADC, drive the
capacitor, ``sim.advance(period)``, ``power.step(period, 0.0)``.  That
body is kept here, in the test file, as the reference: two same-seed
rigs run the same random scenario, one through the circuit and one
through the reference, and every observable must be equal — Vcap, the
clock, the RNG streams, the monitor's events, the trace, the
environment epoch and the comparator.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analog.charge_circuit import ChargeDischargeCircuit
from repro.core.board import EDBBoard
from repro.mcu.device import TargetDevice
from repro.power.capacitor import StorageCapacitor
from repro.power.harvester import (
    ConstantCurrentSource,
    NullSource,
    RFHarvester,
    TetheredSupply,
    TraceDrivenSource,
)
from repro.power.supply import PowerSystem
from repro.power.wisp import make_wisp_power_system
from repro.sim.kernel import Simulator

# -- the reference per-tick body -------------------------------------------


def _ref_measure(adc, voltage: float) -> float:
    """``Adc.measure`` as ``to_volts(sample(v))`` with property lookups."""
    if adc.noise_sigma_v > 0.0 and adc._rng is not None:
        voltage += adc._rng.stream(adc._stream).gauss(0.0, adc.noise_sigma_v)
    lsb = adc.reference_voltage / (1 << adc.bits)
    code = round(voltage / lsb)
    adc.samples_taken += 1
    code = min(max(code, 0), (1 << adc.bits) - 1)
    return code * (adc.reference_voltage / (1 << adc.bits))


def _ref_tick(circuit) -> None:
    circuit.sim.advance(circuit.control_period)
    circuit.power.step(circuit.control_period, 0.0)


def _ref_charge_to(circuit, v_target, timeout=1.0, fine=False):
    if v_target <= 0.0:
        raise ValueError(f"target voltage must be positive (got {v_target})")
    power = circuit.power
    current = circuit.charge_current * (0.1 if fine else 1.0)
    deadline = circuit.sim.now + timeout
    capacitance = power.capacitor.capacitance
    while (measured := _ref_measure(circuit.adc, power.vcap)) < v_target:
        if circuit.sim.now >= deadline:
            raise TimeoutError(
                f"charge_to({v_target:.3f}) stuck at {power.vcap:.3f} V"
            )
        gap = v_target - measured + 1e-3
        pulse = min(circuit.control_period, capacitance * gap / current)
        power.capacitor.apply_current(current, pulse)
        _ref_tick(circuit)
    circuit._filter_dump()
    circuit.charge_operations += 1
    circuit.sim.trace.record("edb.charge", power.vcap, target=v_target)
    return power.vcap


def _ref_discharge_to(circuit, v_target, timeout=1.0):
    if v_target < 0.0:
        raise ValueError(f"target voltage must be non-negative (got {v_target})")
    power = circuit.power
    deadline = circuit.sim.now + timeout
    # The fine load's settling level when it keeps the target out of
    # reach: the first tick then fails.
    settled = circuit._out_of_reach(v_target, deadline)
    while (measured := _ref_measure(circuit.adc, power.vcap)) > v_target:
        if settled is not None:
            raise TimeoutError(
                f"discharge_to({v_target:.3f}) cannot get below "
                f"{settled:.3f} V: the fine load settles there "
                f"against the harvester"
            )
        if circuit.sim.now >= deadline:
            raise TimeoutError(
                f"discharge_to({v_target:.3f}) stuck at {power.vcap:.3f} V"
            )
        capacitance = power.capacitor.capacitance
        gap = measured - v_target
        coarse_current = power.vcap / circuit.discharge_resistance
        coarse_step = coarse_current * circuit.control_period / capacitance
        if gap > coarse_step + circuit.coarse_band:
            current = coarse_current
        else:
            current = power.vcap / circuit.fine_discharge_resistance
        power.capacitor.apply_current(-current, circuit.control_period)
        _ref_tick(circuit)
    circuit.discharge_operations += 1
    circuit.sim.trace.record("edb.discharge", power.vcap, target=v_target)
    return power.vcap


def _ref_restore_to(circuit, v_target):
    power = circuit.power
    if power.vcap > v_target:
        _ref_discharge_to(circuit, v_target)
    if power.vcap < v_target:
        _ref_charge_to(circuit, v_target, fine=True)
    return power.vcap


def _run(circuit, op, v_target, timeout, reference):
    """One control operation; returns its value or the exception text.

    ``restore`` ignores ``timeout``: ``restore_to`` has none of its own.
    """
    try:
        if op == "restore":
            if reference:
                return _ref_restore_to(circuit, v_target)
            return circuit.restore_to(v_target)
        if op == "discharge":
            if reference:
                return _ref_discharge_to(circuit, v_target, timeout)
            return circuit.discharge_to(v_target, timeout)
        fine = op == "fine"
        if reference:
            return _ref_charge_to(circuit, v_target, timeout, fine)
        return circuit.charge_to(v_target, timeout, fine)
    except (TimeoutError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


# -- rigs -------------------------------------------------------------------


def _rig(s: dict):
    sim = Simulator(seed=s["seed"])
    power = make_wisp_power_system(
        sim, distance_m=s["distance"], fading_sigma=s["fading"]
    )
    power.capacitor.leakage_resistance = s["cap_leak"]
    device = TargetDevice(sim, power)
    board = EDBBoard(sim)
    board.interference_enabled = s["leakage"]
    board.attach(device)
    if s["energy"]:
        board.monitor.enable("energy")
    power.capacitor.voltage = s["v0"]
    power.reset_comparator()
    return sim, power, board


def _perturb(kind: str, power: PowerSystem, value: float) -> None:
    """An environment change from inside a scheduled event."""
    source = power.source
    if kind == "distance":  # MovementProfile: set directly, no epoch bump
        source.distance_m = value
    elif kind == "field":  # ReaderDutyCycle: toggled directly
        source.enabled = not source.enabled
    elif kind == "inject":
        power.inject_current(value * 1e-4)
    elif kind == "retune":
        source.tx_power_dbm = 26.0 + value
        power.invalidate_env()
    elif kind == "tether":
        power.tether(TetheredSupply(voltage=2.0 + value))
    elif kind == "untether":
        power.untether()


def _observe(sim, power, board) -> dict:
    trace = sim.trace
    return {
        "vcap": power.capacitor._voltage,
        "now": sim.now,
        "streams": {
            name: stream.getstate()
            for name, stream in sorted(sim.rng._streams.items())
        },
        "events": [
            (e.time, e.stream, e.value, e.vcap) for e in board.monitor.events
        ],
        "trace": [
            (e.time, e.channel, e.value, e.meta)
            for channel in trace.channels()
            for e in trace.events(channel)
        ],
        "epoch": power._env_epoch,
        "state": (power.state, power.reboots, power.turn_ons, power.is_tethered),
        "injected": power.injected_current,
        "adc_samples": board.adc.samples_taken,
        "ops": (
            board.circuit.charge_operations,
            board.circuit.discharge_operations,
        ),
    }


@st.composite
def _scenarios(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("charge", "fine", "discharge", "restore")),
                st.floats(0.0, 3.4),
                st.floats(0.002, 0.06),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return {
        "seed": draw(st.integers(0, 2**31)),
        "distance": draw(st.floats(0.6, 3.0)),
        "fading": draw(st.sampled_from((0.0, 0.0, 2.0, 6.0))),
        "cap_leak": draw(st.sampled_from((None, 2e5, 5e6))),
        "leakage": draw(st.booleans()),
        "energy": draw(st.booleans()),
        "v0": draw(st.floats(0.0, 3.3)),
        "ops": ops,
        "event": draw(
            st.sampled_from(
                ("none", "distance", "field", "inject", "retune", "tether",
                 "untether")
            )
        ),
        "event_at": draw(st.floats(0.0, 0.02)),
        "event_value": draw(st.floats(0.5, 2.5)),
        "reseed": draw(st.booleans()),
    }


def _play(s: dict, reference: bool) -> list:
    sim, power, board = _rig(s)
    circuit = board.circuit
    if s["event"] != "none":
        sim.call_after(
            s["event_at"],
            lambda: _perturb(s["event"], power, s["event_value"]),
        )
    out = []
    for n, (op, v_target, timeout) in enumerate(s["ops"]):
        out.append(_run(circuit, op, v_target, timeout, reference))
        if s["reseed"] and n == 0:
            # Warm legs reseed the hub in place: a loop that held on to
            # a stream object would keep drawing from the old one.
            sim.rng.reseed(s["seed"] + 1)
        out.append(_observe(sim, power, board))
    return out


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(s=_scenarios())
def test_control_loop_matches_reference_body(s):
    assert _play(s, reference=False) == _play(s, reference=True)


def test_restore_to_matches_reference_with_fading():
    """A fixed restore sequence whose hold windows end mid-loop."""
    s = {
        "seed": 7, "distance": 1.5, "fading": 6.0, "cap_leak": 5e6,
        "leakage": True, "energy": True, "v0": 2.5,
        "ops": [("restore", 2.0, 1.0), ("restore", 2.3, 1.0),
                ("discharge", 1.9, 1.0), ("restore", 2.45, 1.0)] * 3,
        "event": "distance", "event_at": 0.004, "event_value": 2.0,
        "reseed": True,
    }
    ref = _play(s, reference=True)
    assert _play(s, reference=False) == ref
    assert "rf-fading" in ref[-1]["streams"] and ref[-1]["now"] > 0.05


# -- idle_step against step(dt, 0.0) ------------------------------------------

_SOURCES = {
    "rf": lambda sim: RFHarvester(distance_m=1.4),
    "rf_fading": lambda sim: RFHarvester(distance_m=1.2, fading_sigma=4.0,
                                         rng=sim.rng),
    "rf_duty": lambda sim: RFHarvester(distance_m=1.0, duty_period=3e-3,
                                       duty_fraction=0.6),
    "constant": lambda sim: ConstantCurrentSource(2e-4),
    "null": lambda sim: NullSource(),
    "trace": lambda sim: TraceDrivenSource(
        [0.0, 1e-3, 2.5e-3, 7e-3], [3.0, 0.0, 2.8, 3.1], [900.0, 1e6, 400.0, 2e3]
    ),
}


@settings(max_examples=150, deadline=None)
@given(
    source=st.sampled_from(sorted(_SOURCES)),
    seed=st.integers(0, 2**31),
    v0=st.floats(0.0, 3.3),
    leak=st.sampled_from((None, 1e5)),
    dt=st.sampled_from((1e-4, 5e-5, 0.0)),
    actions=st.lists(
        st.sampled_from(("step", "step", "step", "step", "inject", "tether",
                         "untether", "distance", "field", "drain", "reset")),
        min_size=1,
        max_size=120,
    ),
)
def test_idle_step_replays_step(source, seed, v0, leak, dt, actions):
    def build():
        sim = Simulator(seed=seed)
        power = PowerSystem(
            sim,
            _SOURCES[source](sim),
            StorageCapacitor(47e-6, voltage=v0, max_voltage=3.3,
                             leakage_resistance=leak),
        )
        return sim, power

    rigs = [build(), build()]
    pick = random.Random(seed)
    for action in actions:
        value = pick.uniform(0.0, 1.0)
        for memoised, (sim, power) in zip((True, False), rigs):
            if action == "step":
                sim.advance(dt)
                if memoised:
                    power.idle_step(dt)
                else:
                    power.step(dt, 0.0)
            elif action == "inject":
                power.inject_current((value - 0.5) * 1e-4)
            elif action == "tether":
                power.tether(TetheredSupply(voltage=2.0 + value))
            elif action == "untether":
                power.untether()
            elif action == "distance" and hasattr(power.source, "distance_m"):
                power.source.distance_m = 0.8 + value
            elif action == "field" and hasattr(power.source, "enabled"):
                power.source.enabled = not power.source.enabled
            elif action == "drain":
                power.capacitor.voltage = value * 0.01
            elif action == "reset":
                power.reset_comparator()
        (sim_a, a), (sim_b, b) = rigs
        assert a.capacitor._voltage == b.capacitor._voltage or (
            math.isnan(a.capacitor._voltage) and math.isnan(b.capacitor._voltage)
        )
        assert (a.state, a.reboots, a.turn_ons, a._env_epoch) == (
            b.state, b.reboots, b.turn_ons, b._env_epoch
        )
        assert sim_a.now == sim_b.now
        assert {k: s.getstate() for k, s in sim_a.rng._streams.items()} == {
            k: s.getstate() for k, s in sim_b.rng._streams.items()
        }
        assert [
            (e.time, e.channel, e.value) for e in sim_a.trace.events("power.brownout")
        ] == [
            (e.time, e.channel, e.value) for e in sim_b.trace.events("power.brownout")
        ]


def test_circuit_rejects_unusable_configuration():
    sim = Simulator(seed=1)
    power = make_wisp_power_system(sim)
    board = EDBBoard(sim)
    board.attach(TargetDevice(sim, power))
    for kwargs in ({"control_period": 0.0}, {"control_period": math.inf},
                   {"charge_current": 0.0}, {"charge_current": -1e-3}):
        with pytest.raises(ValueError):
            ChargeDischargeCircuit(sim, power, board.adc, **kwargs)
