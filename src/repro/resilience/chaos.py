"""Deterministic fault plans for the parallel executor backends.

The parallel drivers are data-race-free *by construction* — each task
writes disjoint array regions — so no amount of scheduling chaos may
change the numerics, and a task failure must surface as a typed error,
never as a silently wrong vector. Those two claims are only worth
stating if every failure path is actually reachable in tests. A
:class:`ChaosPlan` makes them reachable on demand: for each
``(batch, tid)`` coordinate it derives — purely from its seed — one of

* **nothing** (the task runs untouched),
* a **delay** (the task starts late, perturbing completion order),
* a **raise** (a :class:`~repro.resilience.errors.ChaosInjectedError`
  fires *instead of* the task body, so the task's output region stays
  unwritten — the worst case for a driver that would return early), or
* a **reordered submission** (batch-wide: tasks are handed to the pool
  in a shuffled order).

Determinism contract: the same ``(plan seed, batch, tid)`` triple
always produces the same fault, independent of process, platform and
hash randomization (only integer arithmetic feeds the PRNG). A failing
chaos run is therefore replayable from three integers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .errors import ChaosInjectedError

__all__ = ["FaultSpec", "ChaosPlan", "NO_FAULT", "IO_FAULT_KINDS"]

#: Mixing constants: distinct odd multipliers keep the per-coordinate
#: streams, the per-batch shuffle stream and the io-fault stream
#: independent.
_TASK_MIX = (1_000_003, 8_191)
_ORDER_MIX = 514_229
_IO_MIX = 28_657

#: Disk-fault kinds the out-of-core layer injects (see
#: :meth:`ChaosPlan.io_fault_for`): a failed ``read()`` (OSError), a
#: torn/truncated write discovered on the next read, and a flipped
#: byte that only the CRC32C check can catch.
IO_FAULT_KINDS = ("read_error", "torn_write", "checksum_flip")


@dataclass(frozen=True)
class FaultSpec:
    """One task's injected fault: ``action`` in {"none", "delay",
    "raise"}; ``delay_s`` applies to both "delay" (then run) and
    "raise" (delay, then fire)."""

    action: str = "none"
    delay_s: float = 0.0


NO_FAULT = FaultSpec()


class ChaosPlan:
    """Derives deterministic per-task faults from a seed.

    Parameters
    ----------
    seed : int
        Root of every derived fault; two plans with the same seed and
        knobs inject identical faults forever.
    p_raise, p_delay : float
        Per-task probabilities of an injected exception / delay
        (``p_raise + p_delay <= 1``; the remainder runs untouched).
    max_delay_ms : float
        Injected delays are uniform in ``(0, max_delay_ms]``.
    reorder : bool
        Shuffle the submission order of every batch.
    faults : mapping ``(batch, tid) -> FaultSpec``, optional
        Explicit overrides — tests use this to aim a single fault at an
        exact task; coordinates not present fall back to the seeded
        draw.
    p_io : float
        Per-``(index, attempt)`` probability of an injected disk fault
        in the out-of-core layer (see :meth:`io_fault_for`); the kind
        is drawn uniformly from :data:`IO_FAULT_KINDS`.
    io_faults : mapping ``(index, attempt) -> str``, optional
        Explicit io-fault overrides (a kind from
        :data:`IO_FAULT_KINDS`, or ``"none"``); tests use this to aim,
        e.g., a torn write at one exact checkpoint generation.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        p_raise: float = 0.0,
        p_delay: float = 0.25,
        max_delay_ms: float = 0.5,
        reorder: bool = True,
        faults: Optional[Mapping[tuple[int, int], FaultSpec]] = None,
        p_io: float = 0.0,
        io_faults: Optional[Mapping[tuple[int, int], str]] = None,
    ):
        if not (0.0 <= p_raise <= 1.0 and 0.0 <= p_delay <= 1.0):
            raise ValueError("fault probabilities must lie in [0, 1]")
        if p_raise + p_delay > 1.0:
            raise ValueError(
                f"p_raise + p_delay = {p_raise + p_delay} exceeds 1"
            )
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        if not 0.0 <= p_io <= 1.0:
            raise ValueError(f"p_io must lie in [0, 1], got {p_io}")
        if io_faults:
            bad = {
                k for k in io_faults.values()
                if k not in IO_FAULT_KINDS and k != "none"
            }
            if bad:
                raise ValueError(
                    f"unknown io fault kind(s) {sorted(bad)}; expected "
                    f"one of {IO_FAULT_KINDS} or 'none'"
                )
        self.seed = int(seed)
        self.p_raise = float(p_raise)
        self.p_delay = float(p_delay)
        self.max_delay_ms = float(max_delay_ms)
        self.reorder = bool(reorder)
        self.faults = dict(faults) if faults else {}
        self.p_io = float(p_io)
        self.io_faults = dict(io_faults) if io_faults else {}

    @property
    def exception_free(self) -> bool:
        """True when this plan can only delay/reorder — the regime in
        which results must stay bit-identical to the serial backend."""
        return self.p_raise == 0.0 and not any(
            f.action == "raise" for f in self.faults.values()
        )

    # -- deterministic derivation ---------------------------------------
    def _rng(self, batch: int, tid: int) -> random.Random:
        # Integer-only mixing: stable across processes (str/bytes hash
        # randomization never enters).
        return random.Random(
            self.seed * _TASK_MIX[0] + batch * _TASK_MIX[1] + tid
        )

    def fault_for(self, batch: int, tid: int) -> FaultSpec:
        """The fault injected at ``(batch, tid)`` — pure function of
        the plan."""
        explicit = self.faults.get((batch, tid))
        if explicit is not None:
            return explicit
        rng = self._rng(batch, tid)
        u = rng.random()
        if u < self.p_raise:
            return FaultSpec("raise", rng.uniform(0.0, self.max_delay_ms) / 1e3)
        if u < self.p_raise + self.p_delay:
            return FaultSpec("delay", rng.uniform(0.0, self.max_delay_ms) / 1e3)
        return NO_FAULT

    def io_fault_for(self, index: int, attempt: int) -> str:
        """Disk fault injected at the ``attempt``-th access of stored
        object ``index`` (a shard number or checkpoint generation) —
        ``"none"`` or a kind from :data:`IO_FAULT_KINDS`, a pure
        function of the plan.

        Faults are keyed by *attempt* so transient failures exist by
        construction: a read that fails at attempt 0 may succeed at
        attempt 1, which is exactly what the bounded-retry containment
        must handle. A failing run replays from the three integers,
        same as the task faults.
        """
        explicit = self.io_faults.get((index, attempt))
        if explicit is not None:
            return explicit
        if self.p_io <= 0.0:
            return "none"
        rng = random.Random(
            self.seed * _TASK_MIX[0] + index * _IO_MIX + attempt
        )
        if rng.random() < self.p_io:
            return IO_FAULT_KINDS[rng.randrange(len(IO_FAULT_KINDS))]
        return "none"

    def submission_order(self, batch: int, n_tasks: int) -> list[int]:
        """Task submission permutation for one batch (identity when
        ``reorder`` is off)."""
        order = list(range(n_tasks))
        if self.reorder and n_tasks > 1:
            random.Random(self.seed * _TASK_MIX[0] + batch * _ORDER_MIX).shuffle(
                order
            )
        return order

    def wrap(
        self, batch: int, tid: int, task: Callable[[], None]
    ) -> Callable[[], None]:
        """The task with its ``(batch, tid)`` fault applied (the task
        itself when the draw is "none")."""
        fault = self.fault_for(batch, tid)
        if fault.action == "none":
            return task

        def chaotic() -> None:
            if fault.delay_s > 0:
                time.sleep(fault.delay_s)
            if fault.action == "raise":
                raise ChaosInjectedError(batch, tid)
            task()

        return chaotic

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ChaosPlan seed={self.seed} p_raise={self.p_raise} "
            f"p_delay={self.p_delay} max_delay_ms={self.max_delay_ms} "
            f"reorder={self.reorder} p_io={self.p_io} "
            f"overrides={len(self.faults)}+{len(self.io_faults)}io>"
        )
