"""Per-run watchdogs: simulated-cycle and wall-clock budgets.

A campaign run can stop making progress in two distinct ways and the
watchdog covers both:

- **Cycle budget** (`max_cycles`): the guest keeps executing — burning
  simulated cycles — but never completes and never browns out hard
  enough for the duration deadline to matter on wall-clock terms.  The
  watchdog's device watch raises :class:`~repro.sim.kernel.BudgetExceeded`
  after the first work unit that reaches the cycle deadline.  Cycle
  counting is part of the simulation, so a cycle-budget trip is
  **deterministic**: the same seed trips at the same instruction every
  time, and reports stay byte-identical.
- **Wall budget** (`max_wall_s`): the leg is burning *host* time.  Two
  layers: the same watch polls the monotonic clock every few hundred
  work units (catches guests that execute slowly), and
  :func:`repro.testing.time_limit` arms a SIGALRM alarm around the
  whole run (catches host-side livelocks that never execute guest work
  at all).  Wall trips are inherently non-deterministic; campaigns
  that need byte-identical reports use the cycle budget and keep the
  wall budget as a backstop sized far above normal runtimes.

Both trips surface as the conservative ``NONTERMINATING`` verdict (or
a ``budget_exceeded`` error record if the alarm fires outside a leg),
never as a hang.
"""

from __future__ import annotations

import time

from repro.mcu.device import NEVER, TargetDevice
from repro.sim.kernel import BudgetExceeded

#: Work units between monotonic-clock polls (a poll is ~100 ns; at any
#: realistic op rate this bounds overshoot to well under 100 ms of host
#: time per leg).
_WALL_POLL_EVERY = 512


class RunWatchdog:
    """Budget enforcement for one execution leg.

    Installs a single device watch; uninstall with :meth:`remove` (or
    use as a context manager).  A zero/falsy budget arms no deadline.
    """

    def __init__(
        self,
        device: TargetDevice,
        max_cycles: int = 0,
        max_wall_s: float = 0.0,
    ) -> None:
        self.device = device
        self.max_cycles = int(max_cycles)
        self.max_wall_s = float(max_wall_s)
        self._cycle_limit = NEVER
        if self.max_cycles > 0:
            self._cycle_limit = device.cycles_executed + self.max_cycles
        self._watch = device.watch(self._fire)
        self.rearm_wall()

    def _fire(self) -> None:
        device = self.device
        if device.cycles_executed >= self._cycle_limit:
            raise BudgetExceeded(
                f"simulated-cycle budget of {self.max_cycles} cycles "
                f"exhausted",
                budget="cycles",
            )
        if device.work_units >= self._watch.units:
            self._arm_poll()
            if time.monotonic() - self._wall_start >= self.max_wall_s:
                raise BudgetExceeded(
                    f"wall-clock budget of {self.max_wall_s:g} s "
                    f"exhausted",
                    budget="wall",
                )

    def _arm_poll(self) -> None:
        poll = self.device.work_units + _WALL_POLL_EVERY
        self._watch.arm(
            units=poll if self.max_wall_s > 0.0 else NEVER,
            cycles=self._cycle_limit,
        )

    def rearm_wall(self) -> None:
        """Restart the wall-clock budget from now.

        Snapshot/fork sessions keep one watchdog alive across many
        logical runs; each run gets a fresh wall budget (host-side
        state).  The cycle budget is deliberately *not* re-anchored:
        ``cycles_executed`` is restored by the device snapshot, so the
        original anchor already measures exactly the cycles a
        from-reset run would have burned.
        """
        self._wall_start = time.monotonic()
        self._arm_poll()

    def remove(self) -> None:
        """Uninstall the watch (idempotent)."""
        self._watch.remove()

    def __enter__(self) -> "RunWatchdog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
