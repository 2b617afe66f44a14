"""Durable row-range shards: streaming ingest and verified loads.

The out-of-core pipeline never materializes a full coordinate list.
:func:`ingest_matrix_market` makes three bounded-memory passes over a
*symmetric* MatrixMarket file (via
:func:`repro.matrices.mmio.iter_coordinates`):

1. **count** — per-row stored-entry counts (O(N) ints), from which
   nnz-balanced row-range shard bounds are cut with the same
   :func:`~repro.parallel.partition.partition_nnz_balanced` the thread
   partitioner uses;
2. **spill** — each chunk's entries are routed to per-shard append-only
   spill files (raw ``(row, col, value)`` records, counted into the
   ``ooc.bytes_spilled`` tracer counter);
3. **finalize** — one shard at a time: sort, reject duplicate
   coordinates (the whole-file canonicality check of
   :func:`~repro.matrices.mmio.read_matrix_market`, reconstructed
   per shard — duplicates share a coordinate, hence a shard), split
   diagonal vs strictly-lower, and write the shard binary atomically
   (write-temp + fsync + rename) with its CRC32C recorded in the
   manifest.

Because shards are finalized in row order and canonical inside, the
:class:`~repro.serve.registry.StreamingCOOFingerprint` fed shard by
shard equals ``matrix_fingerprint`` of the in-memory canonical lower
triangle — the manifest's ``fingerprint`` ties the shard set to its
source matrix with the serving registry's content-addressing scheme.

Shard binary layout (all little-endian)::

    8 B   magic  b"RPROSHRD"
    32 B  header <4q>: row_start, row_end, nnz_lower, n_cols
    dvalues  float64[row_end - row_start]   dense diagonal slice
    rowptr   int64 [row_end - row_start + 1]  local CSR (rowptr[0]=0)
    colind   int32 [nnz_lower]              strictly-lower columns
    values   float64[nnz_lower]

:class:`ShardStore` is the read side: every load verifies length and
CRC32C against the manifest, retries transient faults (including the
injected ``io`` chaos kinds of
:class:`~repro.resilience.chaos.ChaosPlan`) with bounded backoff, and
falls back to re-ingesting the shard from the recorded source when the
bytes on disk are durably corrupt. Exhausting all of that raises a
typed :class:`~repro.ooc.errors.ShardIOError` — never silently wrong
bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from ..formats.validate import CanonicalityError
from ..matrices.mmio import iter_coordinates
from ..obs.tracer import active as _active_tracer, warn as _obs_warn
from ..parallel.partition import partition_nnz_balanced
from ..resilience.chaos import ChaosPlan
from ..serve.registry import StreamingCOOFingerprint
from .checksum import crc32c
from .errors import ManifestError, ShardChecksumError, ShardIOError

__all__ = [
    "ShardInfo",
    "ShardData",
    "ShardStore",
    "ingest_matrix_market",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
]

MAGIC = b"RPROSHRD"
MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro-ooc-manifest-v1"
_HDR = struct.Struct("<4q")
_SPILL_DTYPE = np.dtype([("r", "<i8"), ("c", "<i8"), ("v", "<f8")])

#: Default stored entries per shard when the caller gives no target.
DEFAULT_SHARD_NNZ = 1 << 18


@dataclass(frozen=True)
class ShardInfo:
    """One manifest entry: where a shard lives and what its bytes
    must hash to."""

    index: int
    file: str
    row_start: int
    row_end: int
    nnz: int  # strictly-lower stored entries
    n_bytes: int
    crc32c: int


@dataclass
class ShardData:
    """One shard's verified arrays (local CSR of the strictly-lower
    triangle plus the dense diagonal slice)."""

    row_start: int
    row_end: int
    dvalues: np.ndarray
    rowptr: np.ndarray
    colind: np.ndarray
    values: np.ndarray
    n_bytes: int


def _atomic_write(path: Path, *parts) -> None:
    """Write-temp + fsync + rename of the concatenated buffers
    ``parts``: a reader never observes a partial file under ``path`` —
    it sees the old bytes or the new bytes."""
    tmp = path.parent / (path.name + ".tmp")
    with open(tmp, "wb") as fh:
        for part in parts:
            fh.write(part)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:  # directory fsync: make the rename itself durable (POSIX)
        dfd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def _build_payload(
    row_start: int,
    row_end: int,
    n_cols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> bytes:
    """Serialize one shard from its canonical (sorted, duplicate-free)
    stored entries, which must all satisfy ``row_start <= r < row_end``
    and ``c <= r``."""
    n_local = row_end - row_start
    diag = rows == cols
    dvalues = np.zeros(n_local, dtype=np.float64)
    dvalues[rows[diag] - row_start] = vals[diag]
    lr = rows[~diag] - row_start
    lc = cols[~diag]
    lv = vals[~diag]
    counts = np.bincount(lr, minlength=n_local)
    rowptr = np.zeros(n_local + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    return b"".join(
        (
            MAGIC,
            _HDR.pack(row_start, row_end, int(lv.size), n_cols),
            dvalues.tobytes(),
            rowptr.tobytes(),
            lc.astype(np.int32).tobytes(),
            lv.astype(np.float64).tobytes(),
        )
    )


def _parse_payload(payload: bytes, info: ShardInfo) -> ShardData:
    """Deserialize verified shard bytes (CRC already checked)."""
    if payload[: len(MAGIC)] != MAGIC:
        raise ShardChecksumError(info.index, "bad magic")
    row_start, row_end, nnz, _n_cols = _HDR.unpack_from(payload, len(MAGIC))
    if (row_start, row_end, nnz) != (info.row_start, info.row_end, info.nnz):
        raise ShardChecksumError(
            info.index,
            f"header ({row_start}, {row_end}, {nnz}) does not match the "
            f"manifest ({info.row_start}, {info.row_end}, {info.nnz})",
        )
    n_local = row_end - row_start
    off = len(MAGIC) + _HDR.size

    def take(dtype: np.dtype, count: int) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=off)
        off += dtype.itemsize * count
        return arr

    dvalues = take(np.dtype("<f8"), n_local)
    rowptr = take(np.dtype("<i8"), n_local + 1)
    colind = take(np.dtype("<i4"), nnz)
    values = take(np.dtype("<f8"), nnz)
    if off != len(payload):
        raise ShardChecksumError(
            info.index, f"{len(payload) - off} trailing bytes"
        )
    return ShardData(
        row_start, row_end, dvalues, rowptr, colind, values, len(payload)
    )


def _canonicalize_shard(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major sort + duplicate rejection for one shard's entries."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size > 1:
        same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
        if np.any(same):
            i = int(np.flatnonzero(same)[0])
            raise CanonicalityError(
                f"duplicate coordinate ({int(rows[i]) + 1}, "
                f"{int(cols[i]) + 1}) in MatrixMarket file after "
                "lower-triangle canonicalization"
            )
    return rows, cols, vals


def ingest_matrix_market(
    source: Union[str, Path],
    out_dir: Union[str, Path],
    *,
    shard_nnz: Optional[int] = None,
    n_shards: Optional[int] = None,
    chunk_nnz: int = 65536,
) -> "ShardStore":
    """Shard a symmetric MatrixMarket file to ``out_dir`` in bounded
    memory; returns the opened :class:`ShardStore`.

    ``shard_nnz`` targets stored entries per shard (ignored when an
    explicit ``n_shards`` is given). Peak memory is
    O(``chunk_nnz`` + N + largest shard), never O(nnz).
    """
    source = Path(source)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tracer = _active_tracer()
    with tracer.span("ooc.ingest"):
        header, chunks = iter_coordinates(source, chunk_nnz)
        if not header.symmetric:
            chunks.close()
            raise ManifestError(
                "out-of-core ingest requires the 'symmetric' MatrixMarket "
                "qualifier: row-range shards store the canonical lower "
                "triangle, which a general file does not declare"
            )
        n = header.n_rows

        # Pass 1 — per-row stored-entry counts.
        row_counts = np.zeros(n, dtype=np.int64)
        for rows, _cols, _vals in chunks:
            row_counts += np.bincount(rows, minlength=n)
        total = int(row_counts.sum())

        if n_shards is None:
            target = shard_nnz if shard_nnz is not None else DEFAULT_SHARD_NNZ
            if target < 1:
                raise ValueError(f"shard_nnz must be >= 1, got {target}")
            n_shards = max(1, math.ceil(total / target))
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        n_shards = min(n_shards, max(1, n))
        # Weight = stored entries + 1 diagonal slot per row, matching
        # what the shard file actually stores.
        ranges = partition_nnz_balanced(row_counts + 1, n_shards)
        row_starts = np.asarray([s for s, _ in ranges], dtype=np.int64)

        # Pass 2 — spill entries to per-shard append files.
        spill_paths = [
            out / f"shard_{i:04d}.spill" for i in range(n_shards)
        ]
        handles = [open(p, "wb") for p in spill_paths]
        spilled = 0
        try:
            _header2, chunks2 = iter_coordinates(source, chunk_nnz)
            for rows, cols, vals in chunks2:
                which = np.searchsorted(row_starts, rows, side="right") - 1
                for s in np.unique(which):
                    mask = which == s
                    block = np.empty(int(mask.sum()), dtype=_SPILL_DTYPE)
                    block["r"] = rows[mask]
                    block["c"] = cols[mask]
                    block["v"] = vals[mask]
                    handles[s].write(block.tobytes())
                    spilled += block.nbytes
        finally:
            for fh in handles:
                fh.close()
        if tracer.enabled:
            tracer.count("ooc.bytes_spilled", spilled)

        # Pass 3 — finalize one shard at a time.
        fp = StreamingCOOFingerprint((header.n_rows, header.n_cols))
        entries = []
        for i, (s, e) in enumerate(ranges):
            raw = np.fromfile(spill_paths[i], dtype=_SPILL_DTYPE)
            rows, cols, vals = _canonicalize_shard(
                raw["r"], raw["c"], raw["v"]
            )
            fp.update(rows, cols, vals)
            payload = _build_payload(s, e, header.n_cols, rows, cols, vals)
            name = f"shard_{i:04d}.bin"
            _atomic_write(out / name, payload)
            spill_paths[i].unlink()
            entries.append(
                {
                    "file": name,
                    "row_start": int(s),
                    "row_end": int(e),
                    "nnz": int(np.count_nonzero(rows != cols)),
                    "n_bytes": len(payload),
                    "crc32c": crc32c(payload),
                }
            )
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "fingerprint": fp.hexdigest(),
            "n_rows": header.n_rows,
            "n_cols": header.n_cols,
            "nnz_stored": total,
            "source": {
                "path": str(source),
                "format": "matrix-market",
                "chunk_nnz": int(chunk_nnz),
            },
            "shards": entries,
        }
        _atomic_write(
            out / MANIFEST_NAME,
            json.dumps(manifest, indent=1).encode(),
        )
        if tracer.enabled:
            tracer.count("ooc.shards_written", n_shards)
    return ShardStore(out)


class ShardStore:
    """Verified, fault-contained read access to one ingested shard set.

    Parameters
    ----------
    directory : the shard directory (must hold a valid manifest).
    chaos : optional :class:`~repro.resilience.chaos.ChaosPlan`
        whose ``io`` faults are injected into every read attempt,
        keyed by ``(shard index, attempt)``.
    max_retries : int
        Additional read attempts after the first failure (bounded
        retry); each failure counts ``ooc.retries``.
    retry_backoff_s : float
        Base sleep before retry ``k`` (exponential: ``base * 2**k``);
        0 disables sleeping (tests).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        chaos: Optional[ChaosPlan] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.0,
    ):
        self.directory = Path(directory)
        self.chaos = chaos
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        path = self.directory / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text())
        except FileNotFoundError:
            raise ManifestError(f"no shard manifest at {path}") from None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ManifestError(f"unreadable shard manifest {path}: {exc}")
        if not isinstance(manifest, dict) or (
            manifest.get("schema") != MANIFEST_SCHEMA
        ):
            raise ManifestError(
                f"manifest {path} has schema "
                f"{manifest.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
            )
        try:
            self.n_rows = int(manifest["n_rows"])
            self.n_cols = int(manifest["n_cols"])
            self.nnz_stored = int(manifest["nnz_stored"])
            self.fingerprint = str(manifest["fingerprint"])
            self.source = dict(manifest["source"])
            self.shards = [
                ShardInfo(
                    index=i,
                    file=str(entry["file"]),
                    row_start=int(entry["row_start"]),
                    row_end=int(entry["row_end"]),
                    nnz=int(entry["nnz"]),
                    n_bytes=int(entry["n_bytes"]),
                    crc32c=int(entry["crc32c"]),
                )
                for i, entry in enumerate(manifest["shards"])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest {path}: {exc!r}")
        prev = 0
        for info in self.shards:
            if info.row_start != prev or info.row_end < info.row_start:
                raise ManifestError(
                    f"manifest shards do not tile the row range: shard "
                    f"{info.index} covers [{info.row_start}, "
                    f"{info.row_end}) after row {prev}"
                )
            prev = info.row_end
        if prev != self.n_rows:
            raise ManifestError(
                f"manifest shards cover rows [0, {prev}) of {self.n_rows}"
            )
        self.manifest = manifest

    # -- accounting -----------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def total_payload_bytes(self) -> int:
        """Sum of every shard file's size — the matrix bytes a fully
        in-core load would keep resident."""
        return sum(info.n_bytes for info in self.shards)

    # -- verified reads -------------------------------------------------
    def _read_once(self, info: ShardInfo, attempt: int) -> ShardData:
        fault = (
            self.chaos.io_fault_for(info.index, attempt)
            if self.chaos is not None
            else "none"
        )
        if fault == "read_error":
            raise OSError(f"injected read error (shard {info.index})")
        payload = (self.directory / info.file).read_bytes()
        if fault == "torn_write":
            payload = payload[: len(payload) // 2]
        elif fault == "checksum_flip" and payload:
            mid = len(payload) // 2
            payload = (
                payload[:mid]
                + bytes([payload[mid] ^ 0x40])
                + payload[mid + 1:]
            )
        if len(payload) != info.n_bytes:
            raise ShardChecksumError(
                info.index,
                f"file is {len(payload)} bytes, manifest says "
                f"{info.n_bytes} (torn write?)",
            )
        crc = crc32c(payload)
        if crc != info.crc32c:
            raise ShardChecksumError(
                info.index,
                f"CRC32C {crc:#010x} != manifest {info.crc32c:#010x}",
            )
        return _parse_payload(payload, info)

    def load(self, index: int) -> ShardData:
        """Load one shard, verified; transient faults are retried with
        backoff, durable corruption triggers a re-ingest from source,
        and exhausting both raises :class:`ShardIOError`."""
        info = self.shards[index]
        tracer = _active_tracer()
        last: Optional[BaseException] = None
        attempts = 0
        with tracer.span("ooc.shard_load", shard=index):
            for attempt in range(self.max_retries + 1):
                attempts += 1
                try:
                    return self._read_once(info, attempt)
                except (OSError, ShardChecksumError) as exc:
                    last = exc
                    _obs_warn("ooc.shard_read_fault")
                    if tracer.enabled:
                        tracer.count("ooc.retries")
                    if self.retry_backoff_s > 0 and (
                        attempt < self.max_retries
                    ):
                        time.sleep(self.retry_backoff_s * (2 ** attempt))
            # Retries exhausted. If the bytes on disk are durably bad
            # (not an injected transient), rebuild them from source.
            try:
                self.reingest(index)
                attempts += 1
                return self._read_once(info, self.max_retries + 1)
            except (OSError, ShardChecksumError, ManifestError) as exc:
                last = exc
        raise ShardIOError(index, attempts, last)

    def reingest(self, index: int) -> None:
        """Rebuild one shard's file from the recorded source matrix.

        The rebuilt bytes must reproduce the manifest CRC exactly —
        ingest is deterministic — so a source file that drifted since
        ingest is detected as :class:`ManifestError` instead of
        silently replacing the shard with a different matrix.
        """
        info = self.shards[index]
        source = Path(self.source["path"])
        tracer = _active_tracer()
        with tracer.span("ooc.reingest", shard=index):
            header, chunks = iter_coordinates(
                source, int(self.source.get("chunk_nnz", 65536))
            )
            if (header.n_rows, header.n_cols) != self.shape or (
                not header.symmetric
            ):
                chunks.close()
                raise ManifestError(
                    f"source {source} no longer matches the manifest "
                    f"(shape/qualifier changed)"
                )
            parts_r, parts_c, parts_v = [], [], []
            for rows, cols, vals in chunks:
                mask = (rows >= info.row_start) & (rows < info.row_end)
                if np.any(mask):
                    parts_r.append(rows[mask])
                    parts_c.append(cols[mask])
                    parts_v.append(vals[mask])
            rows = np.concatenate(parts_r) if parts_r else np.zeros(0, np.int64)
            cols = np.concatenate(parts_c) if parts_c else np.zeros(0, np.int64)
            vals = np.concatenate(parts_v) if parts_v else np.zeros(0)
            rows, cols, vals = _canonicalize_shard(rows, cols, vals)
            payload = _build_payload(
                info.row_start, info.row_end, self.n_cols, rows, cols, vals
            )
            if len(payload) != info.n_bytes or crc32c(payload) != info.crc32c:
                raise ManifestError(
                    f"re-ingested shard {index} from {source} does not "
                    "reproduce the manifest checksum; the source matrix "
                    "changed since ingest"
                )
            _atomic_write(self.directory / info.file, payload)
            _obs_warn("ooc.shard_reingested")
            if tracer.enabled:
                tracer.count("ooc.reingests")

    def iter_shards(self) -> Iterator[ShardData]:
        """Verified shards in row order (each loaded on demand)."""
        for index in range(self.n_shards):
            yield self.load(index)

    def diagonal(self) -> np.ndarray:
        """Assembled dense main diagonal (O(shard) transient memory) —
        what the Jacobi preconditioner of an out-of-core PCG needs."""
        d = np.zeros(self.n_rows, dtype=np.float64)
        for data in self.iter_shards():
            d[data.row_start: data.row_end] = data.dvalues
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardStore {self.directory} n={self.n_rows} "
            f"shards={self.n_shards} fp={self.fingerprint}>"
        )
