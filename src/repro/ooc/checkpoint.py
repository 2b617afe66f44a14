"""Durable, multi-generation solver checkpoints.

A :class:`CheckpointStore` persists flat ``{name: scalar | ndarray}``
state dicts (the shape :meth:`repro.solvers.cg.CGState.to_dict`
produces) with the atomicity protocol every durable artifact of the
out-of-core layer uses — serialize, write to a temp file, ``fsync``,
``os.replace``, fsync the directory — so a crash at any instant leaves
either the previous generation or the new one on disk, never a hybrid.

File format (``ckpt_<generation>.bin``)::

    8 B   magic b"RPROCKPT"
    8 B   <q> header length H
    H B   JSON header: schema, scalars, array names/dtypes/shapes
    ...   array bytes, in header order, C-contiguous
    4 B   <I> CRC32C of everything above

Recovery is a generation walk: :meth:`latest` tries generations newest
first, and a generation whose bytes fail the magic/length/CRC check
(torn write, bit rot, or an injected
:class:`~repro.resilience.chaos.ChaosPlan` ``io`` fault) is skipped
with an ``ooc.checkpoint_fallbacks`` count — the previous generation
answers instead. Only when *no* generation survives does resume
degrade to a fresh start (``latest() -> None``); the store never
returns bytes it could not verify. ``keep >= 2`` generations are
retained precisely so one torn newest write cannot erase all recovery
points.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..obs.tracer import active as _active_tracer, warn as _obs_warn
from ..resilience.chaos import ChaosPlan
from .checksum import crc32c
from .errors import CheckpointError
from .shards import _atomic_write

__all__ = ["CheckpointStore"]

MAGIC = b"RPROCKPT"
SCHEMA = "repro-ooc-checkpoint-v1"
_LEN = struct.Struct("<q")
_CRC = struct.Struct("<I")
_NAME = re.compile(r"^ckpt_(\d{8})\.bin$")


def _pack_state(state: dict) -> list:
    """The record's bytes as buffers to write in order: header, the
    arrays' own memory (no copy), then the CRC32C trailer, computed
    streaming over the parts before it."""
    scalars = {}
    arrays: list[tuple[str, np.ndarray]] = []
    for name, value in state.items():
        if isinstance(value, np.ndarray):
            arrays.append((name, np.ascontiguousarray(value)))
        else:
            scalars[name] = value
    header = {
        "schema": SCHEMA,
        "scalars": scalars,
        "arrays": [
            {"name": n, "dtype": str(a.dtype), "shape": list(a.shape)}
            for n, a in arrays
        ],
    }
    hb = json.dumps(header, sort_keys=True).encode()
    parts = [MAGIC + _LEN.pack(len(hb)) + hb]
    parts += [memoryview(a).cast("B") for _, a in arrays]
    crc = 0
    for part in parts:
        crc = crc32c(part, crc)
    parts.append(_CRC.pack(crc))
    return parts


def _unpack_state(payload: bytes, what: str) -> dict:
    if len(payload) < len(MAGIC) + _LEN.size + _CRC.size:
        raise CheckpointError(f"{what}: truncated ({len(payload)} bytes)")
    if payload[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{what}: bad magic")
    body, crc_bytes = payload[: -_CRC.size], payload[-_CRC.size:]
    crc = crc32c(body)
    (expected,) = _CRC.unpack(crc_bytes)
    if crc != expected:
        raise CheckpointError(
            f"{what}: CRC32C {crc:#010x} != recorded {expected:#010x}"
        )
    (hlen,) = _LEN.unpack_from(body, len(MAGIC))
    off = len(MAGIC) + _LEN.size
    try:
        header = json.loads(body[off: off + hlen])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{what}: unreadable header: {exc}")
    if header.get("schema") != SCHEMA:
        raise CheckpointError(
            f"{what}: schema {header.get('schema')!r} != {SCHEMA!r}"
        )
    off += hlen
    state = dict(header["scalars"])
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=off)
        off += dtype.itemsize * count
        # Copy: solvers mutate resumed vectors in place.
        state[spec["name"]] = arr.reshape(shape).copy()
    if off != len(body):
        raise CheckpointError(f"{what}: {len(body) - off} trailing bytes")
    return state


class CheckpointStore:
    """Numbered checkpoint generations in one directory.

    Parameters
    ----------
    directory : created if missing.
    keep : int
        Newest generations retained after each :meth:`save` (>= 1;
        default 2 so a torn newest write still leaves a fallback).
    chaos : optional ChaosPlan
        Injected ``io`` faults, keyed by ``(generation, attempt)``:
        ``torn_write``/``checksum_flip`` corrupt the bytes a save makes
        durable (attempt key 0); ``read_error`` fails one read attempt.
    max_retries : int
        Extra read attempts per generation before falling back to the
        previous one.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        keep: int = 2,
        chaos: Optional[ChaosPlan] = None,
        max_retries: int = 1,
    ):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.chaos = chaos
        self.max_retries = int(max_retries)

    def _path(self, generation: int) -> Path:
        return self.directory / f"ckpt_{generation:08d}.bin"

    def generations(self) -> list[int]:
        """Existing generation numbers, ascending."""
        gens = []
        for entry in self.directory.iterdir():
            m = _NAME.match(entry.name)
            if m:
                gens.append(int(m.group(1)))
        return sorted(gens)

    # -- write ----------------------------------------------------------
    def save(self, generation: int, state: dict) -> Path:
        """Persist one generation atomically, then prune to ``keep``."""
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        tracer = _active_tracer()
        with tracer.span("ooc.checkpoint_save", generation=generation):
            with tracer.span("ooc.checkpoint_pack"):
                parts = _pack_state(state)
            fault = (
                self.chaos.io_fault_for(generation, 0)
                if self.chaos is not None
                else "none"
            )
            if fault == "torn_write":
                payload = b"".join(parts)
                parts = [payload[: max(1, len(payload) // 2)]]
            elif fault == "checksum_flip":
                payload = bytearray(b"".join(parts))
                payload[len(payload) // 2] ^= 0x40
                parts = [payload]
            path = self._path(generation)
            with tracer.span("ooc.checkpoint_write"):
                _atomic_write(path, *parts)
            for old in self.generations()[: -self.keep]:
                try:
                    self._path(old).unlink()
                except OSError:  # pragma: no cover - benign race
                    pass
            if tracer.enabled:
                tracer.count("ooc.checkpoints_written")
                tracer.count(
                    "ooc.checkpoint_bytes", sum(len(p) for p in parts)
                )
        return path

    # -- read -----------------------------------------------------------
    def _load_once(self, generation: int, attempt: int) -> dict:
        fault = (
            self.chaos.io_fault_for(generation, attempt)
            if self.chaos is not None
            else "none"
        )
        if fault == "read_error":
            raise OSError(
                f"injected read error (checkpoint {generation})"
            )
        payload = self._path(generation).read_bytes()
        if fault == "torn_write":
            payload = payload[: len(payload) // 2]
        elif fault == "checksum_flip" and payload:
            mid = len(payload) // 2
            payload = (
                payload[:mid]
                + bytes([payload[mid] ^ 0x40])
                + payload[mid + 1:]
            )
        return _unpack_state(payload, f"checkpoint {generation}")

    def load(self, generation: int) -> dict:
        """One generation's verified state; :class:`CheckpointError`
        after bounded retries."""
        last: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            try:
                return self._load_once(generation, attempt)
            except (OSError, CheckpointError) as exc:
                last = exc
        if isinstance(last, CheckpointError):
            raise last
        raise CheckpointError(
            f"checkpoint {generation} unreadable: "
            f"{type(last).__name__}: {last}"
        )

    def latest(self) -> Optional[tuple[int, dict]]:
        """Newest verifiable ``(generation, state)``; unreadable
        generations fall back to older ones; ``None`` when nothing
        survives (resume then degrades to a fresh start)."""
        tracer = _active_tracer()
        for generation in reversed(self.generations()):
            try:
                return generation, self.load(generation)
            except CheckpointError:
                _obs_warn("ooc.checkpoint_fallback")
                if tracer.enabled:
                    tracer.count("ooc.checkpoint_fallbacks")
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CheckpointStore {self.directory} keep={self.keep} "
            f"generations={self.generations()}>"
        )
