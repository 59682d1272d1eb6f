"""Transport-independent debug sessions and JSON-RPC method dispatch.

One :class:`DebugService` owns any number of isolated debug sessions.
Each session is a complete, freshly-seeded simulation — kernel, power
system, target device, EDB board, executor — so two sessions can never
share breakpoint registries, monitor state, or RNG streams.  A single
service-wide lock serialises method execution (the simulator is not
thread-safe; sessions are cheap enough that serialisation is not a
bottleneck for a debugging workload).

Breakpoints are keyed by **server-assigned integer handles**, mapped to
the live :class:`~repro.core.breakpoints.Breakpoint` instances by
identity.  This is what makes ``break.remove`` exact in the presence of
duplicate registrations — together with the identity-based
``BreakpointManager.remove``, removing handle 7 removes exactly the
registration handle 7 names.

The service only validates and encodes JSON over the code the Table 1
console runs: arguments obey the input rule on
:class:`~repro.core.debugger.EDB` (a ``ValueError`` answers
:class:`~repro.debug.errors.InvalidParams`), and memory and register
access goes through ``EDB.host_access`` (tether, target-side protocol
exchange, restore), so every RPC access costs the target exactly what
the console's ``read``/``write`` commands cost.
"""

from __future__ import annotations

import collections
import math
import threading
import time
from typing import Any, Callable

from repro.campaign.apps import ADAPTERS, get_adapter
from repro.core.board import BreakEvent
from repro.core.breakpoints import Breakpoint
from repro.core.debugger import DEFAULT_MAX_CYCLES, EDB
from repro.core.emulation import emulate
from repro.core.session import InteractiveSession
from repro.debug.errors import (
    InvalidParams,
    MethodNotFound,
    RpcError,
    SessionLimit,
    SessionNotFound,
    TargetError,
    UnknownHandle,
)
from repro.campaign.watchdog import RunWatchdog
from repro.mcu.device import TargetDevice
from repro.power.wisp import WispPowerConstants, make_wisp_power_system
from repro.runtime.executor import IntermittentExecutor
from repro.sim import units
from repro.sim.kernel import Simulator
from repro.testing import make_bench_target, make_fast_target

#: Power-system presets for ``session.create``.
POWER_SYSTEMS = ("wisp", "fast", "bench")

#: Safety net: a long-lived server must not leak simulators.
DEFAULT_MAX_SESSIONS = 32

#: How many reaped session ids are remembered so that a client
#: reconnecting after its session expired gets a *specific* error
#: ("expired", with the reason) instead of a bare "no such session".
#: Bounded so an eternal server cannot leak memory one id at a time.
EXPIRED_MEMORY = 64


def _jsonable(value: Any) -> Any:
    """Fold simulator values into JSON-representable ones."""
    # Exact-type fast path for what trace events carry (floats and
    # plain dicts of them); subclasses take the general chain below.
    kind = type(value)
    if kind is float or kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is dict:
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bytes, bytearray)):
        return {"hex": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _param(params: dict, name: str, kind, default=..., convert=None):
    """One validated keyword parameter (``...`` marks it required)."""
    if name not in params:
        if default is ...:
            raise InvalidParams(f"missing required param {name!r}")
        return default
    value = params[name]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise InvalidParams(f"param {name!r} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise InvalidParams(
            f"param {name!r} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return convert(value) if convert else value


class _BreakAction:
    """One scripted step executed inside a breakpoint's session."""

    #: Each op and the params it needs.
    OPS = {
        "read": ("address",),
        "read_u16": ("address",),
        "write_u16": ("address", "value"),
        "vcap": (),
        "charge": ("volts",),
        "discharge": ("volts",),
        "registers": (),
    }

    def __init__(self, spec: dict) -> None:
        if not isinstance(spec, dict):
            raise InvalidParams("each action must be an object")
        self.op = _param(spec, "op", str)
        if self.op not in self.OPS:
            raise InvalidParams(
                f"unknown action op {self.op!r}; have {list(self.OPS)}"
            )
        self.address = _param(spec, "address", int, None, EDB.check_word)
        self.count = _param(spec, "count", int, 2, EDB.check_read_count)
        self.value = _param(spec, "value", int, None, EDB.check_word)
        rule = EDB.check_charge_volts if self.op == "charge" else EDB.check_volts
        self.volts = _param(spec, "volts", float, None, rule)
        for name in self.OPS[self.op]:
            if getattr(self, name) is None:
                raise InvalidParams(f"action {self.op!r} needs {name!r}")

    def apply(self, session: InteractiveSession) -> Any:
        if self.op == "read":
            return {"hex": session.read_bytes(self.address, self.count).hex()}
        if self.op == "read_u16":
            return session.read_u16(self.address)
        if self.op == "write_u16":
            session.write_u16(self.address, self.value)
            return self.value
        if self.op == "vcap":
            return session.vcap()
        if self.op == "charge":
            return session.charge(self.volts)
        if self.op == "discharge":
            return session.discharge(self.volts)
        if self.op == "registers":
            return session.registers()
        raise AssertionError(self.op)


class DebugSession:
    """One isolated simulated target with EDB attached.

    Everything a session touches hangs off its own freshly-seeded
    :class:`Simulator`; nothing is shared with sibling sessions.
    """

    def __init__(
        self,
        session_id: str,
        *,
        app: str,
        power: str,
        seed: int,
        protect: bool,
        iterations: int,
        distance_m: float | None,
        fading_sigma: float,
        sample_rate: float | None,
    ) -> None:
        if power not in POWER_SYSTEMS:
            raise InvalidParams(
                f"unknown power system {power!r}; have {list(POWER_SYSTEMS)}"
            )
        if sample_rate is None:
            sample_rate = 4 * units.KHZ
        elif not (math.isfinite(sample_rate) and sample_rate > 0):
            raise ValueError(
                f"sample_rate must be positive and finite (got {sample_rate})"
            )
        self.id = session_id
        self.app = app
        self.power_name = power
        self.seed = seed
        self.sim = Simulator(seed=seed)
        if power == "bench":
            self.device = make_bench_target(self.sim)
        elif power == "fast":
            if distance_m is None:
                distance_m = WispPowerConstants().reader_distance_m
            self.device = make_fast_target(self.sim, distance_m, fading_sigma)
        else:
            self.device = TargetDevice(
                self.sim,
                make_wisp_power_system(
                    self.sim, distance_m=distance_m, fading_sigma=fading_sigma
                ),
            )
        self.edb = EDB(
            self.sim,
            self.device,
            sample_rate=sample_rate,
        )
        self.adapter = get_adapter(app)
        self.program = self.adapter.build(protect, iterations)
        self.executor = IntermittentExecutor(
            self.sim, self.device, self.program, edb=self.edb.libedb()
        )
        # Server-assigned breakpoint handles -> live instances.
        self.handles: dict[int, Breakpoint] = {}
        self._next_handle = 1
        # Scripted on-break actions and their per-stop transcripts.
        self.break_actions: list[_BreakAction] = []
        self.break_log: list[dict] = []
        # Stamped by the owning service's clock (budget bookkeeping).
        self.created_at = 0.0
        self.last_used = 0.0
        self.edb.on_break(self._on_break)

    # -- breakpoint handle registry ---------------------------------------
    def register(self, bp: Breakpoint) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self.handles[handle] = bp
        return handle

    def lookup(self, handle: int) -> Breakpoint:
        try:
            return self.handles[handle]
        except KeyError:
            raise UnknownHandle(
                f"no breakpoint handle {handle} in session {self.id!r}"
            ) from None

    # -- live break servicing ----------------------------------------------
    def _on_break(self, event: BreakEvent, session: InteractiveSession) -> None:
        record: dict[str, Any] = {
            "reason": event.reason,
            "time": event.time,
            "vcap": event.vcap,
            "results": [],
        }
        if session is not None:
            for action in self.break_actions:
                record["results"].append(
                    {"op": action.op, "value": _jsonable(action.apply(session))}
                )
            record["transcript"] = list(session.transcript)
        self.break_log.append(record)

    def describe(self) -> dict:
        power = self.device.power
        cpu = self.device.cpu
        return {
            "session": self.id,
            "app": self.app,
            "power": self.power_name,
            "seed": self.seed,
            "time": self.sim.now,
            "vcap": power.vcap,
            "state": power.state.value,
            "tethered": power.is_tethered,
            "reboots": self.device.reboot_count,
            "cycles": self.device.cycles_executed,
            "breakpoints": len(self.handles),
            # How much of the session's work block translation served
            # so far (the rest single-stepped).
            "tier": {
                "blocks": {
                    "translated": cpu.blocks_translated,
                    "executed": cpu.blocks_executed,
                    "deopts": cpu.blocks_deopts,
                },
            },
        }

    def close(self) -> None:
        self.edb.detach()


class DebugService:
    """Session registry + JSON-RPC method table.

    Transport-independent: :meth:`dispatch` takes a method name and a
    params dict, returns a JSON-safe result, and signals failures by
    raising :class:`~repro.debug.errors.RpcError` subclasses.  The
    stdio/TCP server and in-process tests both sit on top of this.
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        *,
        session_ttl_s: float | None = None,
        session_idle_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_sessions = max_sessions
        #: Wall-clock budgets; ``None`` disables the corresponding reap.
        #: ``session_ttl_s`` bounds a session's total lifetime,
        #: ``session_idle_s`` the gap between uses.  The clock is
        #: injectable so the reaper is testable without sleeping.
        self.session_ttl_s = session_ttl_s
        self.session_idle_s = session_idle_s
        self.clock = clock
        self.sessions: dict[str, DebugSession] = {}
        #: Recently reaped ids -> reason, for clean "expired" errors.
        self.expired: collections.OrderedDict[str, str] = (
            collections.OrderedDict()
        )
        self._next_session = 1
        self._lock = threading.RLock()
        self._methods: dict[str, Callable[[dict], Any]] = {
            "debug.ping": self._ping,
            "debug.methods": self._methods_list,
            "session.create": self._session_create,
            "session.list": self._session_list,
            "session.close": self._session_close,
            "session.status": self._session_status,
            "break.add_code": self._break_add_code,
            "break.add_energy": self._break_add_energy,
            "break.add_combined": self._break_add_combined,
            "break.set_enabled": self._break_set_enabled,
            "break.remove": self._break_remove,
            "break.list": self._break_list,
            "break.on_hit": self._break_on_hit,
            "break.log": self._break_log,
            "watch.pc": self._watch_pc,
            "unwatch.pc": self._unwatch_pc,
            "watch.set_enabled": self._watch_set_enabled,
            "energy.charge": self._energy_charge,
            "energy.discharge": self._energy_discharge,
            "energy.vcap": self._energy_vcap,
            "mem.read": self._mem_read,
            "mem.write": self._mem_write,
            "regs.read": self._regs_read,
            "trace.enable": self._trace_enable,
            "trace.disable": self._trace_disable,
            "trace.poll": self._trace_poll,
            "run": self._run,
            "emulate": self._emulate,
            "debug.divergence_context": self._divergence_context,
        }

    # -- dispatch -----------------------------------------------------------
    def dispatch(self, method: str, params: dict) -> Any:
        """Execute one method; raises :class:`RpcError` on any failure."""
        handler = self._methods.get(method)
        if handler is None:
            raise MethodNotFound(f"unknown method {method!r}")
        with self._lock:
            self._reap()
            try:
                return handler(params)
            except RpcError:
                raise
            except ValueError as exc:  # a bad value, the input rule's included
                raise InvalidParams(str(exc)) from None
            except Exception as exc:  # noqa: BLE001 - server must survive
                raise TargetError.wrap(exc) from exc

    def _reap(self) -> None:
        """Close sessions over their wall/idle budget (lock held).

        Reaping happens on dispatch rather than on a timer thread: a
        server nobody talks to holds its sessions (harmless — they are
        inert simulators), and the moment anyone talks to it the
        budgets are enforced before the request runs.
        """
        if self.session_ttl_s is None and self.session_idle_s is None:
            return
        now = self.clock()
        for sid in list(self.sessions):
            session = self.sessions[sid]
            reason = None
            if (
                self.session_ttl_s is not None
                and now - session.created_at > self.session_ttl_s
            ):
                reason = f"exceeded its {self.session_ttl_s:g}s lifetime"
            elif (
                self.session_idle_s is not None
                and now - session.last_used > self.session_idle_s
            ):
                reason = f"idle longer than {self.session_idle_s:g}s"
            if reason is not None:
                session.close()
                del self.sessions[sid]
                self.expired[sid] = reason
                while len(self.expired) > EXPIRED_MEMORY:
                    self.expired.popitem(last=False)

    def close_all(self) -> None:
        """Tear down every open session (server shutdown)."""
        with self._lock:
            for session in self.sessions.values():
                session.close()
            self.sessions.clear()

    def _get(self, params: dict) -> DebugSession:
        session_id = _param(params, "session", str)
        try:
            session = self.sessions[session_id]
        except KeyError:
            reason = self.expired.get(session_id)
            if reason is not None:
                raise SessionNotFound(
                    f"session {session_id!r} expired ({reason}); "
                    f"create a new one"
                ) from None
            raise SessionNotFound(f"no session {session_id!r}") from None
        session.last_used = self.clock()
        return session

    # -- misc ----------------------------------------------------------------
    def _ping(self, params: dict) -> dict:
        from repro import __version__

        return {"pong": True, "version": __version__}

    def _methods_list(self, params: dict) -> dict:
        return {"methods": sorted(self._methods)}

    # -- session management -------------------------------------------------
    def _session_create(self, params: dict) -> dict:
        if len(self.sessions) >= self.max_sessions:
            raise SessionLimit(
                f"session limit of {self.max_sessions} reached; close one first"
            )
        app = _param(params, "app", str, "fibonacci")
        if app not in ADAPTERS:
            raise InvalidParams(
                f"unknown app {app!r}; available: {sorted(ADAPTERS)}"
            )
        session_id = f"s{self._next_session}"
        self._next_session += 1
        session = DebugSession(
            session_id,
            app=app,
            power=_param(params, "power", str, "wisp"),
            seed=_param(params, "seed", int, 1),
            protect=_param(params, "protect", bool, False),
            iterations=_param(params, "iterations", int, 16),
            distance_m=_param(params, "distance_m", float, None),
            fading_sigma=_param(params, "fading_sigma", float, 0.0),
            sample_rate=_param(params, "sample_rate", float, None),
        )
        # Budget bookkeeping is the service's (it owns the clock).
        session.created_at = session.last_used = self.clock()
        self.sessions[session_id] = session
        return session.describe()

    def _session_list(self, params: dict) -> dict:
        return {
            "sessions": [
                self.sessions[sid].describe() for sid in sorted(self.sessions)
            ]
        }

    def _session_close(self, params: dict) -> dict:
        session = self._get(params)
        session.close()
        del self.sessions[session.id]
        return {"closed": session.id}

    def _session_status(self, params: dict) -> dict:
        return self._get(params).describe()

    # -- breakpoints ----------------------------------------------------------
    def _break_add_code(self, params: dict) -> dict:
        session = self._get(params)
        bp = session.edb.break_at(
            _param(params, "id", int), one_shot=_param(params, "one_shot", bool, False)
        )
        return {"handle": session.register(bp), "breakpoint": bp.describe()}

    def _break_add_energy(self, params: dict) -> dict:
        session = self._get(params)
        bp = session.edb.break_on_energy(
            _param(params, "threshold_v", float, convert=EDB.check_volts),
            one_shot=_param(params, "one_shot", bool, False),
        )
        return {"handle": session.register(bp), "breakpoint": bp.describe()}

    def _break_add_combined(self, params: dict) -> dict:
        session = self._get(params)
        bp = session.edb.break_combined(
            _param(params, "id", int),
            _param(params, "threshold_v", float, convert=EDB.check_volts),
            one_shot=_param(params, "one_shot", bool, False),
        )
        return {"handle": session.register(bp), "breakpoint": bp.describe()}

    def _break_set_enabled(self, params: dict) -> dict:
        session = self._get(params)
        bp = session.lookup(_param(params, "handle", int))
        bp.enabled = _param(params, "enabled", bool)
        return {"handle": params["handle"], "breakpoint": bp.describe()}

    def _break_remove(self, params: dict) -> dict:
        session = self._get(params)
        handle = _param(params, "handle", int)
        bp = session.lookup(handle)
        removed = session.edb.breakpoints.remove(bp)
        del session.handles[handle]
        return {"handle": handle, "removed": removed}

    def _break_list(self, params: dict) -> dict:
        session = self._get(params)
        return {
            "breakpoints": [
                {
                    "handle": handle,
                    "kind": bp.kind.value,
                    "id": bp.breakpoint_id,
                    "threshold_v": bp.energy_threshold,
                    "enabled": bp.enabled,
                    "one_shot": bp.one_shot,
                    "hits": bp.hits,
                }
                for handle, bp in sorted(session.handles.items())
            ]
        }

    def _break_on_hit(self, params: dict) -> dict:
        """Install the scripted per-stop action list (replaces any prior).

        Breakpoints are serviced synchronously *inside* ``run`` — the
        wire client cannot be consulted mid-run — so the inspect/charge
        steps a console user would type into a live session are sent up
        front and executed in the breakpoint's
        :class:`InteractiveSession`, exactly as a console ``on_break``
        handler would.  ``break.log`` returns the per-stop transcripts.
        """
        session = self._get(params)
        actions = params.get("actions", [])
        if not isinstance(actions, list):
            raise InvalidParams('"actions" must be a list of action objects')
        session.break_actions = [_BreakAction(spec) for spec in actions]
        return {"actions": len(session.break_actions)}

    def _break_log(self, params: dict) -> dict:
        session = self._get(params)
        cursor = _param(params, "cursor", int, 0)
        if cursor < 0:
            raise InvalidParams('"cursor" must be >= 0')
        stops = session.break_log[cursor:]
        return {
            "stops": _jsonable(stops),
            "next_cursor": cursor + len(stops),
        }

    # -- raw-PC watches -------------------------------------------------------
    def _watch_pc(self, params: dict) -> dict:
        session = self._get(params)
        pc = _param(params, "pc", int)
        session.edb.watch_pc(pc)
        return {"pc": pc & 0xFFFF, "watched": True}

    def _unwatch_pc(self, params: dict) -> dict:
        session = self._get(params)
        pc = _param(params, "pc", int)
        session.edb.unwatch_pc(pc)
        return {"pc": pc & 0xFFFF, "watched": False}

    def _watch_set_enabled(self, params: dict) -> dict:
        """Console ``watch en|dis <id>``: mask a watchpoint id."""
        session = self._get(params)
        wp_id = _param(params, "id", int)
        enabled = _param(params, "enabled", bool)
        session.edb.set_watchpoint_enabled(wp_id, enabled)
        return {"id": wp_id, "enabled": enabled}

    # -- energy manipulation ---------------------------------------------------
    def _energy_charge(self, params: dict) -> dict:
        session = self._get(params)
        volts = _param(params, "volts", float, convert=EDB.check_charge_volts)
        return {"vcap": session.edb.charge(volts)}

    def _energy_discharge(self, params: dict) -> dict:
        session = self._get(params)
        volts = _param(params, "volts", float, convert=EDB.check_volts)
        return {"vcap": session.edb.discharge(volts)}

    def _energy_vcap(self, params: dict) -> dict:
        session = self._get(params)
        power = session.device.power
        return {
            "vcap": power.vcap,
            "vreg": power.vreg,
            "state": power.state.value,
            "tethered": power.is_tethered,
        }

    # -- memory / registers (console-initiated sessions) ---------------------
    def _mem_read(self, params: dict) -> dict:
        session = self._get(params)
        address = _param(params, "address", int, convert=EDB.check_word)
        count = _param(params, "count", int, 2, EDB.check_read_count)
        data = session.edb.host_access(lambda s: s.read_bytes(address, count))
        return {"address": address, "hex": data.hex()}

    def _mem_write(self, params: dict) -> dict:
        session = self._get(params)
        address = _param(params, "address", int, convert=EDB.check_word)
        if "value" in params:
            value = _param(params, "value", int, convert=EDB.check_word)
            session.edb.host_access(lambda s: s.write_u16(address, value))
            return {"address": address, "written": 2}
        data = EDB.check_write_data(bytes.fromhex(_param(params, "data", str)))
        session.edb.host_access(lambda s: s.write_bytes(address, data))
        return {"address": address, "written": len(data)}

    def _regs_read(self, params: dict) -> dict:
        session = self._get(params)
        return {"registers": session.edb.host_access(lambda s: s.registers())}

    # -- passive tracing -------------------------------------------------------
    def _trace_enable(self, params: dict) -> dict:
        session = self._get(params)
        stream = _param(params, "stream", str)
        session.edb.trace(stream)
        return {"stream": stream, "enabled": True}

    def _trace_disable(self, params: dict) -> dict:
        session = self._get(params)
        stream = _param(params, "stream", str)
        session.edb.untrace(stream)
        return {"stream": stream, "enabled": False}

    def _trace_poll(self, params: dict) -> dict:
        """Cursor-based incremental read of the monitor's event list.

        The cursor indexes the session's unified event list (all
        streams), so repeated polls see every event exactly once, in
        order, regardless of the optional ``stream`` filter (filtering
        happens after the slice; the cursor still advances over the
        filtered-out events).
        """
        session = self._get(params)
        cursor = _param(params, "cursor", int, 0)
        limit = _param(params, "limit", int, 1024)
        stream = _param(params, "stream", str, None)
        if cursor < 0:
            raise InvalidParams('"cursor" must be >= 0')
        if limit < 1:
            raise InvalidParams('"limit" must be >= 1')
        events = session.edb.monitor.events
        window = events[cursor : cursor + limit]
        out = [
            {
                "time": e.time,
                "stream": e.stream,
                "value": _jsonable(e.value),
                "vcap": e.vcap,
            }
            for e in window
            if stream is None or e.stream == stream
        ]
        next_cursor = cursor + len(window)
        return {
            "events": out,
            "next_cursor": next_cursor,
            "remaining": max(0, len(events) - next_cursor),
        }

    # -- execution --------------------------------------------------------------
    def _run(self, params: dict) -> dict:
        session = self._get(params)
        duration = _param(params, "duration", float)
        if duration <= 0:
            raise InvalidParams('"duration" must be > 0')
        max_cycles = _param(params, "max_cycles", int, DEFAULT_MAX_CYCLES)
        max_wall_s = _param(params, "max_wall_s", float, 0.0)
        with RunWatchdog(session.device, max_cycles, max_wall_s):
            result = session.executor.run(
                duration=duration,
                stop_on_fault=_param(params, "stop_on_fault", bool, False),
            )
        # Every RunResult field, the status by value, and the final Vcap.
        return {
            **_jsonable(vars(result)),
            "status": result.status.value,
            "vcap": session.device.power.vcap,
        }

    def _emulate(self, params: dict) -> dict:
        session = self._get(params)
        cycles = _param(params, "cycles", int)
        turn_on = _param(params, "turn_on_voltage", float, 2.4, EDB.check_charge_volts)
        max_cycles = _param(params, "max_cycles", int, DEFAULT_MAX_CYCLES)
        result = emulate(session.edb, session.executor, cycles, turn_on, max_cycles)
        return {
            "cycles": [_jsonable(vars(c)) for c in result.cycles],
            "outcome": result.outcome,
            "brownouts": result.count("brownout"),
            "faults": result.count("fault"),
        }

    # -- fault root-cause -------------------------------------------------------
    def _divergence_context(self, params: dict) -> dict:
        session = self._get(params)
        tail = _param(params, "tail", int, 64)
        if tail < 1:
            raise InvalidParams('"tail" must be >= 1')
        return session.edb.divergence_context(tail=tail)
