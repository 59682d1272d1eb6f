"""Application adapters: what the campaign runs and what it observes.

An adapter binds one application to the campaign engine.  It knows how
to build a fresh program instance (naive or intermittence-protected),
which FRAM ranges hold the app's protected state (the bit-flip axis),
and — most importantly — how to *observe* the app's final state without
perturbing it.

Observables come in two kinds.  All of them go into the report, but
only the adapter's ``invariant_keys`` participate in the differential
oracle: those are the facts that hold for **every** correct execution
regardless of where reboots land (structural consistency of a list, a
bounded drift between paired counters).  Quantities that legitimately
vary with the reboot schedule — how far a run got, the parity of a
grow/shrink list's length — must stay out of ``invariant_keys``, or the
oracle would flag correct intermittent executions as divergent.
"""

from __future__ import annotations

from repro.apps.fibonacci import FibonacciApp
from repro.apps.linked_list import LinkedListApp
from repro.apps.rfid_isa import RfidIsaFirmware
from repro.mcu.hlapi import DeviceAPI, ProgramComplete
from repro.runtime.nonvolatile import LIST_HEADER, NODE, NVLinkedList
from repro.runtime.tasks import Task, TaskProgram


class LinkedListAdapter:
    """The paper's Figure 3/6 linked-list test program.

    The naive build carries the append-window bug; the protected build
    swaps in the repair-on-boot safe list.  The oracle invariant is
    structural consistency alone — the list legitimately alternates
    between empty and one element, so its length is schedule-dependent.
    """

    name = "linked_list"
    invariant_keys = ("consistent",)

    def build(self, protect: bool, iterations: int):
        return LinkedListApp(use_safe_list=protect, max_iterations=iterations)

    def _list(self, api: DeviceAPI) -> NVLinkedList:
        return NVLinkedList(api, "ll", capacity=4)

    def observe(self, program, api: DeviceAPI) -> dict:
        audit = self._list(api).host_audit()
        return {
            "consistent": bool(audit["consistent"]),
            "length": int(audit["length"]),
            "chain": int(audit["chain"]),
        }

    def state_ranges(self, program, api: DeviceAPI) -> list[tuple[int, int]]:
        return [
            (api.nv_var("list.ll.header", LIST_HEADER.size), LIST_HEADER.size),
            (api.nv_var("list.ll.pool", NODE.size * 4), NODE.size * 4),
        ]


class FibonacciAdapter:
    """The §5.3.2 Fibonacci list generator (release build).

    Intermittence failures show up as a broken chain (an append cut in
    the vulnerable window orphans a node) or as values violating the
    recurrence (a stale tail seeds the next value from the wrong pair).
    Both are schedule-invariant; the reached length is not.
    """

    name = "fibonacci"
    invariant_keys = ("consistent", "recurrence_ok")

    def build(self, protect: bool, iterations: int):
        return FibonacciApp(
            debug_build=False,
            capacity=iterations + 2,
            use_safe_list=protect,
        )

    def _list(self, api: DeviceAPI, program) -> NVLinkedList:
        return NVLinkedList(api, "fib", capacity=program.capacity)

    def observe(self, program, api: DeviceAPI) -> dict:
        nv_list = self._list(api, program)
        audit = nv_list.host_audit()
        memory = api.device.memory
        value_off = NODE.offset("value")
        values = [memory.read_u16(a + value_off) for a in nv_list.host_walk()]
        recurrence_ok = all(
            values[i] == (values[i - 1] + values[i - 2]) & 0xFFFF
            for i in range(2, len(values))
        )
        return {
            "consistent": bool(audit["consistent"]),
            "recurrence_ok": recurrence_ok,
            "length": int(audit["length"]),
        }

    def state_ranges(self, program, api: DeviceAPI) -> list[tuple[int, int]]:
        pool_bytes = NODE.size * program.capacity
        return [
            (api.nv_var("list.fib.header", LIST_HEADER.size), LIST_HEADER.size),
            (api.nv_var("list.fib.pool", pool_bytes), pool_bytes),
        ]


class _NaiveCounter:
    """A paired-counter app with a classic lost-update bug.

    Two FRAM counters must advance in lock-step, but the naive code
    increments them in separate stores with work in between — and ``b``
    is incremented from *its own* old value, so a reboot inside the
    window loses ``b``'s update permanently: every window hit leaves
    ``a`` one further ahead, forever.  A single hit (``a == b + 1``) is
    also a legal transient of the very last iteration, so the oracle
    invariant is ``a - b <= 1``; a drift of two or more means at least
    two lost updates, which no correct execution can produce.
    """

    name = "naive-counter"

    def __init__(self, target: int) -> None:
        self.target = target

    def flash(self, api: DeviceAPI) -> None:
        memory = api.device.memory
        memory.write_u16(api.nv_var("cnt.a"), 0)
        memory.write_u16(api.nv_var("cnt.b"), 0)

    def main(self, api: DeviceAPI) -> None:
        a_addr = api.nv_var("cnt.a")
        b_addr = api.nv_var("cnt.b")
        while True:
            a = api.load_u16(a_addr)
            api.branch()
            if a >= self.target:
                raise ProgramComplete(a)
            api.store_u16(a_addr, a + 1)
            # --- the window: a reboot here loses b's update for good ---
            api.compute(300)
            api.compute(300)
            api.compute(300)
            b = api.load_u16(b_addr)
            api.store_u16(b_addr, b + 1)
            api.compute(100)


def _make_task_counter(target: int) -> TaskProgram:
    """The protected counter: one task updates both halves atomically."""

    def body(api: DeviceAPI, rt) -> None:
        a = rt.get("a")
        api.compute(900)
        b = rt.get("b")
        rt.set("a", a + 1)
        rt.set("b", b + 1)
        api.compute(100)

    def stop(api: DeviceAPI, rt) -> None:
        if rt.read_committed("a") >= target:
            raise ProgramComplete(rt.read_committed("a"))

    return TaskProgram(
        tasks=[Task("increment", body)],
        variables=["a", "b"],
        initial={"a": 0, "b": 0},
        stop=stop,
        name="counter",
    )


class CounterAdapter:
    """Paired NV counters: naive two-store update vs a DINO-style task.

    The protected build routes both writes through the task runtime's
    two-phase commit, so the committed masters are always equal.
    """

    name = "counter"
    invariant_keys = ("drift_ok",)

    def build(self, protect: bool, iterations: int):
        if protect:
            return _make_task_counter(iterations)
        return _NaiveCounter(iterations)

    def observe(self, program, api: DeviceAPI) -> dict:
        memory = api.device.memory
        if isinstance(program, TaskProgram):
            a = memory.read_u16(api.nv_var("tasks.counter.master.a"))
            b = memory.read_u16(api.nv_var("tasks.counter.master.b"))
        else:
            a = memory.read_u16(api.nv_var("cnt.a"))
            b = memory.read_u16(api.nv_var("cnt.b"))
        drift = a - b
        return {"drift_ok": 0 <= drift <= 1, "a": a, "b": b}

    def state_ranges(self, program, api: DeviceAPI) -> list[tuple[int, int]]:
        if isinstance(program, TaskProgram):
            names = ("tasks.counter.master.a", "tasks.counter.master.b")
        else:
            names = ("cnt.a", "cnt.b")
        return [(api.nv_var(n), 2) for n in names]


class _ChaosProgram:
    """A guest that misbehaves on purpose, keyed by its run index.

    Roles cycle with ``index % 5``:

    - 0, 1 — behave: complete a tiny op-counter workload normally;
    - 2 — **kill the worker**: ``os._exit`` mid-run, the way a segfault
      or the OOM killer would take the process out (no unwinding, no
      pickled exception — the pool just breaks);
    - 3 — **hang burning cycles**: an infinite compute loop that never
      completes; the cycle-budget watchdog (or, much later, the
      duration deadline) is the only way out;
    - 4 — **guest fault**: raise an exception the run loop does not
      model.

    Everything is a pure function of the run index, so a chaos
    campaign's report is byte-identical across repetitions — including
    its error records.
    """

    BEHAVE, COMPLETE, KILL_WORKER, HANG, RAISE = range(5)

    def __init__(self, index: int, iterations: int) -> None:
        self.role = index % 5
        self.iterations = iterations

    def flash(self, api: DeviceAPI) -> None:
        api.device.memory.write_u16(api.nv_var("chaos.done"), 0)

    def main(self, api: DeviceAPI) -> None:
        if self.role == self.KILL_WORKER:
            import os

            os._exit(86)  # no atexit, no unwinding: the worker is gone
        if self.role == self.HANG:
            while True:  # burns simulated cycles forever
                api.compute(50)
        if self.role == self.RAISE:
            raise RuntimeError("chaos guest fault (deliberate)")
        addr = api.nv_var("chaos.done")
        while True:
            done = api.load_u16(addr)
            api.branch()
            if done >= self.iterations:
                raise ProgramComplete(done)
            api.compute(50)
            api.store_u16(addr, done + 1)


class ChaosAdapter:
    """Adversarial engine-testing app: crashes, hangs, and faults.

    Exists to exercise the *campaign engine's* supervision — watchdogs,
    worker crash isolation, retry/quarantine — not to find
    intermittence bugs.  Uses the optional ``prepare(config, index)``
    adapter hook to learn which run it is building for.

    Never run a chaos campaign with ``workers=1`` (or degraded-serial)
    expectations of surviving role 2: an in-process ``os._exit`` takes
    the host with it, which is exactly why the scheduler quarantines
    suspect chunks instead of retrying them inline.
    """

    name = "chaos"
    invariant_keys = ()

    def __init__(self) -> None:
        self._index = 0

    def prepare(self, config, index: int) -> None:
        self._index = index

    def build(self, protect: bool, iterations: int) -> _ChaosProgram:
        return _ChaosProgram(self._index, iterations)

    def observe(self, program, api: DeviceAPI) -> dict:
        return {
            "role": program.role,
            "done": int(api.device.memory.read_u16(api.nv_var("chaos.done"))),
        }

    def state_ranges(self, program, api: DeviceAPI) -> list[tuple[int, int]]:
        return [(api.nv_var("chaos.done"), 2)]


class RfidFirmwareAdapter:
    """The ISA-level RFID dispatch core — the fuzzer's flagship target.

    Runs on the instruction core (so translated-block coverage is
    real), takes *input*: a byte string of demodulated reader frames
    fed through an ``IN`` port.  The default stimulus is all zeros,
    which exercises only the checksum handler — reaching the buggy
    paired-counter handler (and the rest of the dispatch tree) requires
    stimulus bytes only the fuzzer's mutators produce.  The invariant
    mirrors :class:`CounterAdapter`: a drift of two or more between the
    paired counters means at least two lost updates, which no correct
    execution (naive or protected, any schedule) can produce — except
    that the naive build *can*, when two reboots land in its window.
    """

    name = "rfid_firmware"
    invariant_keys = ("drift_ok",)
    #: The app consumes stimulus bytes: fuzz havoc must never starve it.
    requires_stimulus = True

    def default_stimulus(self, iterations: int) -> bytes:
        """The unfuzzed input: all-zero frames (checksum handler only)."""
        return bytes(max(8, int(iterations)))

    def build(self, protect: bool, iterations: int) -> RfidIsaFirmware:
        return self.build_fuzz(
            protect, iterations, self.default_stimulus(iterations)
        )

    def build_fuzz(
        self, protect: bool, iterations: int, stimulus: bytes
    ) -> RfidIsaFirmware:
        return RfidIsaFirmware(protect, iterations, stimulus)

    def observe(self, program, api: DeviceAPI) -> dict:
        memory = api.device.memory
        symbols = program.symbols
        a = memory.read_u16(symbols["cnt_a"])
        b = memory.read_u16(symbols["cnt_b"])
        drift = a - b
        return {
            "drift_ok": 0 <= drift <= 1,
            "a": a,
            "b": b,
            "crc": memory.read_u16(symbols["crc"]),
            "commands": memory.read_u16(symbols["prog"]),
        }

    def state_ranges(self, program, api: DeviceAPI) -> list[tuple[int, int]]:
        symbols = program.symbols
        return [(symbols["cnt_a"], 2), (symbols["cnt_b"], 2)]


ADAPTERS = {
    LinkedListAdapter.name: LinkedListAdapter,
    FibonacciAdapter.name: FibonacciAdapter,
    CounterAdapter.name: CounterAdapter,
    ChaosAdapter.name: ChaosAdapter,
    RfidFirmwareAdapter.name: RfidFirmwareAdapter,
}


#: One instance per stateless adapter class, shared by the process.
_SHARED: dict[type, object] = {}


def get_adapter(name: str):
    """The adapter registered under ``name``.

    Stateless adapters are shared: the per-process control-leg and
    lane-leader memos key on the adapter object, so every chunk of a
    campaign must hand them the same one.  Adapters with a ``prepare``
    hook carry per-run state and are instantiated on every call.
    """
    try:
        cls = ADAPTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown app {name!r}; available: {sorted(ADAPTERS)}"
        ) from None
    if hasattr(cls, "prepare"):
        return cls()
    if cls not in _SHARED:
        _SHARED[cls] = cls()
    return _SHARED[cls]
