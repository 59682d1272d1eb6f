"""Runtime support for intermittent software.

- :mod:`repro.runtime.nonvolatile` — C-struct-like views over FRAM,
  including the doubly-linked list whose ``append``/``remove`` are the
  verbatim (buggy) sequences of the paper's Figure 3, plus an
  intermittence-safe variant for comparison.
- :mod:`repro.runtime.checkpoint` — Mementos-style volatile-context
  checkpointing for the ISA core (register file + stack into FRAM with
  double buffering).
- :mod:`repro.runtime.executor` — the one intermittent execution loop:
  charge to turn-on, reboot, run until brown-out, repeat.  High-level
  apps and assembled ISA programs (:class:`repro.apps.isa_app.IsaApp`)
  both run under its :class:`IntermittentExecutor`.
- :mod:`repro.runtime.tasks` — a DINO-style task-based execution model
  with task-atomic, versioned non-volatile data (the class of emerging
  models §6.2 positions EDB alongside).
"""

from repro.runtime.executor import IntermittentExecutor, RunResult, RunStatus
from repro.runtime.nonvolatile import (
    NVCounter,
    NVLinkedList,
    SafeNVLinkedList,
    StructLayout,
    StructView,
)
from repro.runtime.tasks import Task, TaskProgram, TaskRuntime

__all__ = [
    "IntermittentExecutor",
    "NVCounter",
    "NVLinkedList",
    "RunResult",
    "RunStatus",
    "SafeNVLinkedList",
    "StructLayout",
    "StructView",
    "Task",
    "TaskProgram",
    "TaskRuntime",
]
