"""Out-of-core sharded SpMV/CG: ingest, budget, chaos, checkpoints.

Covers the durability tentpole end to end: streaming ingest writes
checksummed shards whose fingerprint ties to the in-memory matrix; the
sharded operator matches the in-core drivers bit-for-bit under a
memory budget; injected disk faults are absorbed (retry, re-ingest) or
escalate typed; checkpointed CG survives corruption of its newest
generation and a SIGKILL mid-solve, resuming bit-identically.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.cli import main
from repro.formats import COOMatrix, SSSMatrix
from repro.matrices.mmio import iter_coordinates, read_matrix_market
from repro.obs import reset_warning_counts, warning_counts
from repro.obs.tracer import Tracer, tracing
from repro.matrices.generators import grid_laplacian_2d
from repro.matrices.mmio import write_matrix_market
from repro.ooc import (
    CheckpointStore,
    ManifestError,
    MemoryBudgetError,
    ShardedOperator,
    ShardIOError,
    ShardStore,
    checkpointed_cg,
    crc32c,
    ingest_matrix_market,
    parse_memory_budget,
)
from repro.ooc.checkpoint import CheckpointStore as _CheckpointStore
from repro.ooc.errors import ShardChecksumError
from repro.parallel import (
    Executor,
    ParallelSymmetricSpMV,
    partition_rows_equal,
)
from repro.resilience import ChaosPlan, ExecutionError, FaultSpec
from repro.serve.registry import matrix_fingerprint
from repro.solvers.cg import (
    CGState,
    conjugate_gradient,
    jacobi_preconditioner,
)

from .conftest import random_symmetric_dense


def write_mm(path: Path, dense: np.ndarray) -> Path:
    """Lower-triangle symmetric MatrixMarket file for ``dense``."""
    n = dense.shape[0]
    coords = [
        (i, j, float(dense[i, j]))
        for i in range(n)
        for j in range(i + 1)
        if dense[i, j] != 0.0
    ]
    lines = [
        "%%MatrixMarket matrix coordinate real symmetric",
        f"{n} {n} {len(coords)}",
    ]
    lines.extend(f"{i + 1} {j + 1} {v!r}" for i, j, v in coords)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def dense64():
    return random_symmetric_dense(64, density=0.08, seed=11)


@pytest.fixture()
def mm64(tmp_path, dense64):
    return write_mm(tmp_path / "A.mtx", dense64)


@pytest.fixture()
def store64(tmp_path, mm64):
    return ingest_matrix_market(mm64, tmp_path / "shards", n_shards=4)


# ----------------------------------------------------------------------
# CRC32C
# ----------------------------------------------------------------------
class TestCRC32C:
    def test_known_vectors(self):
        # RFC 3720 appendix B.4 test vectors (Castagnoli).
        assert crc32c(b"") == 0
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(bytes(32)) == 0x8A9136AA
        assert crc32c(bytes([0xFF] * 32)) == 0x62A8AB43

    def test_streaming_composition(self):
        data = bytes(range(256)) * 7 + b"tail"
        whole = crc32c(data)
        for split in (0, 1, 8, 100, len(data)):
            assert crc32c(data[split:], crc32c(data[:split])) == whole

    @staticmethod
    def _walk(data: bytes, lengths, crc: int = 0) -> dict:
        """Bit-at-a-time CRC32C of ``data[:n]`` for every ``n`` in
        ``lengths``, continuing from ``crc``; one pass over the data."""
        out = {}
        reg = crc ^ 0xFFFFFFFF
        pos = 0
        for n in sorted(lengths):
            for byte in data[pos:n]:
                reg ^= byte
                for _ in range(8):
                    reg = (reg >> 1) ^ (0x82F63B78 if reg & 1 else 0)
            pos = n
            out[n] = reg ^ 0xFFFFFFFF
        return out

    def test_matches_bitwise_reference(self):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
        view = memoryview(data)
        # The native loop takes 8 bytes a step, then single bytes:
        # lengths 0-24 from every start offset 0-7 cross both, on
        # aligned and unaligned addresses.
        short = range(25)
        for off in range(8):
            for n, want in self._walk(data[off:], short).items():
                assert crc32c(view[off: off + n]) == want, (off, n)
        near = {(1 << 16) + d for d in range(-9, 10)}
        for n, want in self._walk(data, {*short, *near, 1 << 20}).items():
            assert crc32c(data[:n]) == want, n
        start = 0x1234ABCD
        for n, want in self._walk(data, {*short, *near}, start).items():
            assert crc32c(view[:n], start) == want, n

    def test_buffer_types_agree(self):
        rng = np.random.default_rng(14)
        values = rng.standard_normal(391)
        raw = values.tobytes()
        want = crc32c(raw)
        for buf in (raw, bytearray(raw), memoryview(raw), values,
                    memoryview(values), np.frombuffer(raw, np.uint8),
                    values.reshape(-1, 1)):
            assert crc32c(buf) == want
            assert crc32c(buf, 7) == crc32c(raw, 7)

    def test_keeps_no_reference(self):
        """The buffer dies with its last reference: a checksummed
        checkpoint or shard is not pinned until the next collection."""
        values = np.arange(4096.0)
        ref = weakref.ref(values)
        gc.disable()
        try:
            crc32c(values)
            del values
            assert ref() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Streaming MatrixMarket iteration
# ----------------------------------------------------------------------
class TestIterCoordinates:
    def test_chunks_concatenate_to_full_read(self, mm64):
        ref = read_matrix_market(mm64)
        header, chunks = iter_coordinates(mm64, chunk_nnz=17)
        assert header.symmetric
        assert (header.n_rows, header.n_cols) == ref.shape
        rows, cols, vals = [], [], []
        for r, c, v in chunks:
            assert r.size <= 17
            rows.append(r)
            cols.append(c)
            vals.append(v)
        got = COOMatrix(
            ref.shape, np.concatenate(rows), np.concatenate(cols),
            np.concatenate(vals),
        )
        # Chunks keep the lower triangle unmirrored; expanding by
        # symmetry must reproduce the eagerly-read matrix.
        dense = got.to_dense()
        dense = (
            np.tril(dense) + np.tril(dense, -1).T
        )
        assert np.array_equal(dense, ref.to_dense())

    def test_count_mismatch_detected(self, tmp_path):
        from repro.matrices.mmio import ParseError

        short = tmp_path / "short.mtx"
        short.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 1.0\n2 2 1.0\n"
        )
        _, chunks = iter_coordinates(short, chunk_nnz=8)
        with pytest.raises(ParseError, match="found 2"):
            list(chunks)
        extra = tmp_path / "extra.mtx"
        extra.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 1\n1 1 1.0\n2 2 1.0\n"
        )
        _, chunks = iter_coordinates(extra, chunk_nnz=8)
        with pytest.raises(ParseError, match="more than 1"):
            list(chunks)


# ----------------------------------------------------------------------
# Ingest + manifest
# ----------------------------------------------------------------------
class TestIngest:
    def test_round_trip_dense(self, store64, dense64):
        got = np.zeros_like(dense64)
        for data in store64.iter_shards():
            s = data.row_start
            for li in range(data.row_end - s):
                r = s + li
                got[r, r] = data.dvalues[li]
                for k in range(data.rowptr[li], data.rowptr[li + 1]):
                    c = int(data.colind[k])
                    got[r, c] = got[c, r] = data.values[k]
        assert np.array_equal(got, dense64)

    def test_fingerprint_ties_to_registry_scheme(
        self, store64, dense64
    ):
        coo = COOMatrix.from_dense(dense64)
        assert store64.fingerprint == matrix_fingerprint(
            coo.lower_triangle()
        )

    def test_fingerprint_invariant_to_chunking_and_sharding(
        self, tmp_path, mm64, store64
    ):
        other = ingest_matrix_market(
            mm64, tmp_path / "shards2", n_shards=7, chunk_nnz=13
        )
        assert other.fingerprint == store64.fingerprint

    def test_shards_tile_rows(self, store64):
        assert store64.shards[0].row_start == 0
        for a, b in zip(store64.shards, store64.shards[1:]):
            assert a.row_end == b.row_start
        assert store64.shards[-1].row_end == store64.n_rows

    def test_general_qualifier_rejected(self, tmp_path):
        bad = tmp_path / "general.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 1 1.0\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ManifestError, match="symmetric"):
                ingest_matrix_market(bad, tmp_path / "out")
            gc.collect()
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="no shard manifest"):
            ShardStore(tmp_path)

    def test_tampered_manifest_schema(self, tmp_path, store64):
        path = store64.directory / "manifest.json"
        doc = json.loads(path.read_text())
        doc["schema"] = "bogus-v9"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="schema"):
            ShardStore(store64.directory)


# ----------------------------------------------------------------------
# Fault containment on the read path
# ----------------------------------------------------------------------
class TestShardFaults:
    def test_transient_faults_absorbed(self, store64):
        plan = ChaosPlan(3, io_faults={
            (0, 0): "read_error",
            (1, 0): "torn_write",
            (2, 0): "checksum_flip",
        })
        chaotic = ShardStore(
            store64.directory, chaos=plan, max_retries=2
        )
        clean = [store64.load(i).values for i in range(3)]
        for i in range(3):
            assert np.array_equal(chaotic.load(i).values, clean[i])

    def test_durable_corruption_reingested(self, store64):
        info = store64.shards[1]
        path = store64.directory / info.file
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        data = store64.load(1)
        assert data.row_start == info.row_start
        # The file was rewritten with the manifest bytes.
        assert crc32c(path.read_bytes()) == info.crc32c

    def test_exhaustion_raises_typed(self, store64):
        plan = ChaosPlan(5, p_io=1.0)
        chaotic = ShardStore(
            store64.directory, chaos=plan, max_retries=1
        )
        with pytest.raises(ShardIOError) as err:
            chaotic.load(0)
        assert err.value.index == 0
        assert err.value.attempts == 3  # 2 reads + post-reingest read
        assert isinstance(err.value, RuntimeError)

    def test_source_drift_detected(self, tmp_path, store64, dense64):
        # Re-ingest must refuse a source that no longer matches.
        changed = dense64.copy()
        changed[0, 0] += 1.0
        write_mm(Path(store64.source["path"]), changed)
        with pytest.raises(ManifestError, match="changed since ingest"):
            store64.reingest(0)

    def test_errors_pickle(self):
        for exc in (
            ShardChecksumError(3, "boom"),
            ShardIOError(1, 4, OSError("x")),
        ):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert back.index == exc.index


# ----------------------------------------------------------------------
# ShardedOperator
# ----------------------------------------------------------------------
class TestShardedOperator:
    def test_matches_incore_driver(self, store64, dense64):
        coo = COOMatrix.from_dense(dense64)
        incore = ParallelSymmetricSpMV(
            SSSMatrix.from_coo(coo),
            partition_rows_equal(coo.n_rows, 2), "indexed",
        )
        op = ShardedOperator(store64, n_threads=2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(coo.n_cols)
        assert np.allclose(op(x), incore(x), rtol=1e-13, atol=1e-12)
        X = rng.standard_normal((coo.n_cols, 3))
        assert np.allclose(op(X), incore(X), rtol=1e-13, atol=1e-12)

    def test_repeat_apply_bit_identical_across_evictions(
        self, store64
    ):
        budget = max(i.n_bytes for i in store64.shards) + 1
        op = ShardedOperator(store64, memory_budget=budget)
        x = np.random.default_rng(1).standard_normal(store64.n_cols)
        assert np.array_equal(op(x), op(x))

    def test_budget_enforced_and_counted(self, store64):
        sizes = [i.n_bytes for i in store64.shards]
        budget = max(sizes) * 2
        tracer = Tracer()
        with tracing(tracer):
            op = ShardedOperator(store64, memory_budget=budget)
            op(np.ones(store64.n_cols))
            op(np.ones(store64.n_cols))
        assert op.peak_resident_bytes <= budget
        counters = tracer.counters()
        assert counters["ooc.shards_loaded"] > store64.n_shards
        assert counters["ooc.shard_evictions"] > 0
        assert counters["ooc.applies"] == 2

    def test_unbounded_caches_all_shards(self, store64):
        tracer = Tracer()
        with tracing(tracer):
            op = ShardedOperator(store64)
            op(np.ones(store64.n_cols))
            op(np.ones(store64.n_cols))
        counters = tracer.counters()
        assert counters["ooc.shards_loaded"] == store64.n_shards
        assert counters["ooc.shard_hits"] == store64.n_shards

    def test_impossible_budget_rejected(self, store64):
        largest = max(i.n_bytes for i in store64.shards)
        with pytest.raises(MemoryBudgetError, match="largest shard"):
            ShardedOperator(store64, memory_budget=largest - 1)
        with pytest.raises(ValueError):
            ShardedOperator(store64, memory_budget="0")

    def test_threads_backend_matches_serial(self, store64):
        x = np.random.default_rng(2).standard_normal(store64.n_cols)
        serial = ShardedOperator(store64, n_threads=3)(x)
        ex = Executor("threads", max_workers=3)
        try:
            threaded = ShardedOperator(
                store64, n_threads=3, executor=ex
            )(x)
        finally:
            ex.close()
        assert np.array_equal(serial, threaded)

    @pytest.fixture()
    def grid_store(self, tmp_path):
        mtx = tmp_path / "grid.mtx"
        write_matrix_market(mtx, grid_laplacian_2d(24, 24), symmetric=True)
        return ingest_matrix_market(mtx, tmp_path / "grid", n_shards=8)

    def test_eviction_follows_sweep(self, grid_store):
        total = grid_store.total_payload_bytes()
        largest = max(i.n_bytes for i in grid_store.shards)
        x = np.random.default_rng(3).standard_normal(grid_store.n_cols)
        want = ShardedOperator(grid_store, n_threads=2)(x)
        op = ShardedOperator(
            grid_store, memory_budget=max(largest, total // 2), n_threads=2
        )
        op(x)  # fills the cache
        tracer = Tracer()
        with tracing(tracer):
            for _ in range(10):
                assert np.array_equal(op(x), want)
        # LRU misses on every access of a cyclic sweep (8 per apply).
        assert tracer.counters()["ooc.shards_loaded"] / 10 <= 5.5
        assert op.peak_resident_bytes <= op.memory_budget

    def test_eviction_frees_payload_and_keeps_driver(self, grid_store):
        """Eviction frees the shard's payload arrays by reference
        counting; the shard's driver and bound operator stay open until
        ``close()``, which closes every kept driver, with no GC
        warning."""
        total = grid_store.total_payload_bytes()
        largest = max(i.n_bytes for i in grid_store.shards)
        x = np.random.default_rng(4).standard_normal(grid_store.n_cols)
        unbounded = ShardedOperator(grid_store, n_threads=2)
        want = unbounded(x)
        unbounded.close()
        op = ShardedOperator(
            grid_store, memory_budget=max(largest, total // 2), n_threads=2
        )
        loads = []  # (shard index, weakrefs to its ShardData arrays)
        load = grid_store.load

        def spy(index):
            data = load(index)
            arrays = (data.dvalues, data.rowptr, data.colind, data.values)
            loads.append((index, [weakref.ref(a) for a in arrays]))
            return data

        grid_store.load = spy
        reset_warning_counts()
        gc.disable()  # reference counting alone must free the payload
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(10):
                    assert np.array_equal(op(x), want)
                last = {index: n for n, (index, _) in enumerate(loads)}
                evicted = [
                    refs for n, (index, refs) in enumerate(loads)
                    if n != last[index] or index not in op._resident
                ]
                assert evicted
                for refs in evicted:
                    assert all(ref() is None for ref in refs)
                drivers = [entry.driver for entry in op._kept.values()]
                assert len(drivers) == grid_store.n_shards
                assert set(op._kept) - set(op._resident)
                ops = [bound for d in drivers for bound in d._ops.values()]
                assert len(ops) == len(drivers)
                assert not any(bound.closed for bound in ops)
                op.close()
                assert all(bound.closed for bound in ops)
                assert not any(d._ops for d in drivers)
                del drivers, ops
        finally:
            gc.enable()
            del grid_store.load
        assert not caught
        assert "bound_operator.unclosed_gc" not in warning_counts()

    def test_resources_stay_bounded(self, grid_store):
        """Over 200 half-budget applies the kept state and the thread
        count stay flat after the first sweep, the native address cache
        stays within what the first 20 applies reached (it holds the
        resident shards' arrays, whose number varies along the sweep),
        and the payload stays under the budget."""
        total = grid_store.total_payload_bytes()
        largest = max(i.n_bytes for i in grid_store.shards)
        budget = max(largest, total // 2)
        x = np.random.default_rng(5).standard_normal(grid_store.n_cols)
        ex = Executor("threads", max_workers=2)
        op = ShardedOperator(
            grid_store, memory_budget=budget, n_threads=2, executor=ex
        )
        try:
            op(x)
            gc.collect()
            kept, n_threads = op.kept_bytes, threading.active_count()
            assert kept > 0
            addresses = 0
            for _ in range(20):
                op(x)
                addresses = max(addresses, len(native._addresses))
            for _ in range(200):
                op(x)
                assert op.kept_bytes == kept
                assert threading.active_count() == n_threads
                assert len(native._addresses) <= addresses
            tracer = Tracer()
            with tracing(tracer):
                op(x)
            assert tracer.metrics.gauge_value("ooc.kept_bytes") == kept
        finally:
            op.close()
            ex.close()
        assert op.peak_resident_bytes <= budget

    def test_coloring_rejected(self, store64):
        with pytest.raises(ValueError, match="coloring.*pin payload"):
            ShardedOperator(store64, reduction="coloring")

    def test_failed_apply_recovers_kept_operator(self, grid_store):
        """A batch fault poisons one shard's kept bound operator; the
        apply raises, and the next apply, through the same operator
        after its shard was evicted and reloaded, is bit-identical to a
        clean operator's."""
        total = grid_store.total_payload_bytes()
        largest = max(i.n_bytes for i in grid_store.shards)
        x = np.random.default_rng(6).standard_normal(grid_store.n_cols)
        clean = ShardedOperator(grid_store, n_threads=2)
        want = clean(x).copy()
        clean.close()
        b = 3  # one batch per shard apply: shard 3 of the first sweep
        plan = ChaosPlan(
            0, p_raise=0.0, p_delay=0.0, reorder=False,
            faults={(b, 1): FaultSpec("raise")},
        )
        ex = Executor("threads", max_workers=2, plan=plan)
        op = ShardedOperator(
            grid_store, memory_budget=max(largest, total // 2),
            n_threads=2, executor=ex,
        )
        try:
            with pytest.raises(ExecutionError):
                op(x)
            poisoned = op._kept[b].driver.operator()
            assert poisoned.poisoned
            assert np.array_equal(op(x), want)
            assert op._kept[b].driver.operator() is poisoned
            assert not poisoned.poisoned
            assert np.array_equal(op(x), want)
        finally:
            op.close()
            ex.close()

    def test_resident_drivers_hold_window_arrays(self, grid_store):
        op = ShardedOperator(grid_store, n_threads=2)
        n = grid_store.n_rows
        op(np.ones(n))
        op(np.ones((n, 2)))
        for entry in op._resident.values():
            assert entry.end - entry.start < n
            driver = entry.driver
            arrays = []
            for obj in (driver, driver.matrix, driver.reduction):
                for value in vars(obj).values():
                    items = value if isinstance(value, list) else [value]
                    arrays += [a for a in items if isinstance(a, np.ndarray)]
            assert arrays
            for a in arrays:
                assert n not in a.shape and n + 1 not in a.shape

    def test_parse_memory_budget(self):
        assert parse_memory_budget("64K") == 64 * 1024
        assert parse_memory_budget("8m") == 8 << 20
        assert parse_memory_budget("123") == 123
        assert parse_memory_budget(None) is None
        with pytest.raises(ValueError):
            parse_memory_budget("eight")


# ----------------------------------------------------------------------
# Checkpoint durability
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def _state(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "solver": "cg", "iteration": seed, "rs": rng.random(),
            "res_norm": rng.random(), "best_residual": rng.random(),
            "iters_since_improvement": 0,
            "x": rng.standard_normal(10),
            "r": rng.standard_normal(10),
            "p": rng.standard_normal(10),
        }

    def test_round_trip(self, tmp_path):
        ck = CheckpointStore(tmp_path)
        state = self._state(3)
        ck.save(3, state)
        got = ck.load(3)
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[key], value)
            else:
                assert got[key] == value
        # Loaded arrays must be writable (solvers mutate them).
        got["x"][0] = 42.0

    def test_save_spans_and_record_layout(self, tmp_path):
        state = self._state(3)
        tracer = Tracer()
        with tracing(tracer):
            path = CheckpointStore(tmp_path).save(3, state)
        depth = {ev.name: ev.depth for _, ev in tracer.events()}
        for child in ("ooc.checkpoint_pack", "ooc.checkpoint_write"):
            assert depth[child] == depth["ooc.checkpoint_save"] + 1
        raw = path.read_bytes()
        assert crc32c(raw[:-4]).to_bytes(4, "little") == raw[-4:]
        for name in ("x", "r", "p"):
            assert state[name].tobytes() in raw
        assert tracer.metrics.counter_value("ooc.checkpoint_bytes") == len(raw)

    def test_prunes_to_keep(self, tmp_path):
        ck = CheckpointStore(tmp_path, keep=2)
        for gen in (1, 2, 3, 4):
            ck.save(gen, self._state(gen))
        assert ck.generations() == [3, 4]

    def test_corrupt_newest_falls_back(self, tmp_path):
        ck = CheckpointStore(tmp_path, keep=3)
        for gen in (5, 10):
            ck.save(gen, self._state(gen))
        path = ck._path(10)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        generation, state = ck.latest()
        assert generation == 5
        assert state["iteration"] == 5

    def test_truncated_newest_falls_back(self, tmp_path):
        ck = CheckpointStore(tmp_path, keep=3)
        ck.save(1, self._state(1))
        ck.save(2, self._state(2))
        path = ck._path(2)
        path.write_bytes(path.read_bytes()[:10])
        generation, _ = ck.latest()
        assert generation == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        ck = CheckpointStore(tmp_path)
        ck.save(1, self._state(1))
        ck._path(1).write_bytes(b"garbage")
        assert ck.latest() is None
        assert CheckpointStore(tmp_path / "empty").latest() is None

    def test_chaos_torn_save_recovers_previous(self, tmp_path):
        plan = ChaosPlan(1, io_faults={(2, 0): "torn_write"})
        ck = _CheckpointStore(tmp_path, chaos=plan, keep=3)
        ck.save(1, self._state(1))
        ck.save(2, self._state(2))  # made durable torn
        generation, _ = ck.latest()
        assert generation == 1


# ----------------------------------------------------------------------
# Resume bit-identity (solver level)
# ----------------------------------------------------------------------
class TestSolverResume:
    def _system(self, n=80, seed=4):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        return A, rng.normal(size=n)

    def test_cg_resume_bit_identical(self):
        A, b = self._system()
        spmv = lambda v: A @ v  # noqa: E731
        full = conjugate_gradient(spmv, b, tol=1e-10)
        states = []
        conjugate_gradient(
            spmv, b, tol=1e-10,
            checkpoint=lambda s: states.append(
                CGState.from_dict(s.to_dict())
            ),
            checkpoint_every=3,
        )
        for state in states[:-1]:
            res = conjugate_gradient(
                spmv, b, tol=1e-10, resume_from=state
            )
            assert np.array_equal(res.x, full.x)
            assert res.iterations == full.iterations
            assert res.converged

    def test_pcg_resume_bit_identical(self):
        A, b = self._system(seed=5)
        spmv = lambda v: A @ v  # noqa: E731
        pre = jacobi_preconditioner(np.diag(A))
        full = conjugate_gradient(
            spmv, b, precond=pre, tol=1e-10
        )
        states = []
        conjugate_gradient(
            spmv, b, precond=pre, tol=1e-10,
            checkpoint=lambda s: states.append(
                CGState.from_dict(s.to_dict())
            ),
            checkpoint_every=2,
        )
        res = conjugate_gradient(
            spmv, b, precond=pre, tol=1e-10, resume_from=states[0]
        )
        assert np.array_equal(res.x, full.x)
        assert res.iterations == full.iterations

    def test_cross_solver_state_rejected(self):
        A, b = self._system(seed=6)
        spmv = lambda v: A @ v  # noqa: E731
        states = []
        conjugate_gradient(
            spmv, b, tol=1e-8,
            checkpoint=lambda s: states.append(s.to_dict()),
            checkpoint_every=1,
        )
        state = CGState.from_dict(states[0])
        with pytest.raises(ValueError, match="cannot resume"):
            conjugate_gradient(
                spmv, b, precond=jacobi_preconditioner(np.diag(A)),
                resume_from=state,
            )

    def test_resumed_state_already_converged(self):
        A, b = self._system(seed=7)
        spmv = lambda v: A @ v  # noqa: E731
        states = []
        full = conjugate_gradient(
            spmv, b, tol=1e-6,
            checkpoint=lambda s: states.append(
                CGState.from_dict(s.to_dict())
            ),
            checkpoint_every=1,
        )
        # Resuming with a looser tolerance than the state's residual
        # ends immediately at the checkpointed iteration.
        res = conjugate_gradient(
            spmv, b, tol=1e-1, resume_from=states[-1]
        )
        assert res.converged
        assert res.iterations == states[-1].iteration
        assert full.converged


# ----------------------------------------------------------------------
# Checkpointed out-of-core CG, end to end
# ----------------------------------------------------------------------
class TestCheckpointedCG:
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_interrupt_and_resume_bit_identical(
        self, tmp_path, store64, backend
    ):
        executor = (
            Executor("threads", max_workers=2)
            if backend == "threads" else None
        )
        try:
            op = ShardedOperator(
                store64, n_threads=2, executor=executor
            )
            b = np.random.default_rng(9).standard_normal(
                store64.n_rows
            )
            full = checkpointed_cg(op, b, tol=1e-10)
            assert full.result.converged
            ck = CheckpointStore(tmp_path / backend)
            cut = max(2, full.result.iterations // 2)
            checkpointed_cg(
                op, b, tol=1e-10, max_iter=cut,
                store=ck, checkpoint_every=2,
            )
            resumed = checkpointed_cg(
                op, b, tol=1e-10, store=ck, checkpoint_every=2,
                resume=True,
            )
            assert resumed.resumed_from is not None
            assert np.array_equal(resumed.result.x, full.result.x)
            assert resumed.result.iterations == full.result.iterations
        finally:
            if executor is not None:
                executor.close()

    def test_corrupt_newest_generation_still_resumes(
        self, tmp_path, store64
    ):
        op = ShardedOperator(store64, n_threads=2)
        b = np.random.default_rng(9).standard_normal(store64.n_rows)
        full = checkpointed_cg(op, b, tol=1e-10)
        ck = CheckpointStore(tmp_path / "ck")
        checkpointed_cg(
            op, b, tol=1e-10,
            max_iter=max(3, full.result.iterations // 2),
            store=ck, checkpoint_every=1,
        )
        gens = ck.generations()
        newest = ck._path(gens[-1])
        newest.write_bytes(newest.read_bytes()[:7])
        resumed = checkpointed_cg(
            op, b, tol=1e-10, store=ck, checkpoint_every=1,
            resume=True,
        )
        assert resumed.resumed_from == gens[-2]
        assert np.array_equal(resumed.result.x, full.result.x)

    def test_empty_store_resume_is_fresh_start(
        self, tmp_path, store64
    ):
        op = ShardedOperator(store64, n_threads=2)
        b = np.random.default_rng(9).standard_normal(store64.n_rows)
        full = checkpointed_cg(op, b, tol=1e-10)
        fresh = checkpointed_cg(
            op, b, tol=1e-10,
            store=CheckpointStore(tmp_path / "empty"), resume=True,
        )
        assert fresh.resumed_from is None
        assert np.array_equal(fresh.result.x, full.result.x)

    def test_jacobi_path(self, tmp_path, store64):
        op = ShardedOperator(store64, n_threads=2)
        b = np.random.default_rng(10).standard_normal(store64.n_rows)
        full = checkpointed_cg(op, b, tol=1e-10, precond="jacobi")
        ck = CheckpointStore(tmp_path / "pck")
        checkpointed_cg(
            op, b, tol=1e-10, precond="jacobi", max_iter=3,
            store=ck, checkpoint_every=1,
        )
        resumed = checkpointed_cg(
            op, b, tol=1e-10, precond="jacobi", store=ck,
            checkpoint_every=1, resume=True,
        )
        assert np.array_equal(resumed.result.x, full.result.x)

    def test_compute_chaos_interrupt_contained_then_resumes(
        self, tmp_path, store64
    ):
        """An injected io fault storm aborts the solve typed; dialing
        chaos off and resuming completes bit-identically."""
        op = ShardedOperator(store64, n_threads=2)
        b = np.random.default_rng(9).standard_normal(store64.n_rows)
        full = checkpointed_cg(op, b, tol=1e-10)
        ck = CheckpointStore(tmp_path / "chaos")
        # Faults kick in from attempt-keyed chaos after a few clean
        # iterations' worth of loads: run a capped prefix cleanly...
        checkpointed_cg(
            op, b, tol=1e-10, max_iter=4, store=ck,
            checkpoint_every=2,
        )
        # ... then hit a fatal io storm mid-solve.
        storm = ShardStore(
            store64.directory, chaos=ChaosPlan(5, p_io=1.0),
            max_retries=1,
        )
        with pytest.raises(ShardIOError):
            checkpointed_cg(
                ShardedOperator(storm, n_threads=2), b, tol=1e-10,
                store=ck, checkpoint_every=2, resume=True,
            )
        # Recovery: same store, chaos cleared, resume.
        resumed = checkpointed_cg(
            op, b, tol=1e-10, store=ck, checkpoint_every=2,
            resume=True,
        )
        assert resumed.resumed_from is not None
        assert np.array_equal(resumed.result.x, full.result.x)
        assert resumed.result.iterations == full.result.iterations


# ----------------------------------------------------------------------
# CLI + SIGKILL crash safety
# ----------------------------------------------------------------------
def _laplacian_mm(path: Path, n: int) -> Path:
    # Shifted 1D Laplacian: the shift keeps CG's residual decreasing
    # steadily (the unshifted operator plateaus past the stagnation
    # guard's window) while still needing a few hundred iterations.
    lines = [
        "%%MatrixMarket matrix coordinate real symmetric",
        f"{n} {n} {2 * n - 1}",
    ]
    for i in range(1, n + 1):
        lines.append(f"{i} {i} 2.01")
        if i > 1:
            lines.append(f"{i} {i - 1} -1.0")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCLI:
    def test_ingest_spmv_cg(self, tmp_path, mm64, capsys):
        out = tmp_path / "sh"
        assert main(["ooc", "ingest", str(mm64), str(out),
                     "--n-shards", "3"]) == 0
        assert "3 shard(s)" in capsys.readouterr().out
        assert main(["ooc", "spmv", str(out), "--memory-budget", "1M",
                     "--json", str(tmp_path / "s.json")]) == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["peak_resident_bytes"] <= doc["memory_budget"]
        assert main(["ooc", "cg", str(out), "--tol", "1e-8",
                     "--json", str(tmp_path / "c.json")]) == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["converged"] and doc["resumed_from"] is None

    def test_validation_errors_exit_2(self, tmp_path, mm64, capsys):
        out = tmp_path / "sh"
        main(["ooc", "ingest", str(mm64), str(out), "--n-shards", "2"])
        assert main(["ooc", "spmv", str(out),
                     "--memory-budget", "1"]) == 2
        assert main(["ooc", "spmv", str(tmp_path / "nowhere")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["spmv", "cg"])
    def test_coloring_not_offered(self, tmp_path, mm64, command, capsys):
        out = tmp_path / "sh"
        main(["ooc", "ingest", str(mm64), str(out), "--n-shards", "2"])
        with pytest.raises(SystemExit) as exc:
            main(["ooc", command, str(out), "--reduction", "coloring"])
        assert exc.value.code == 2
        assert "invalid choice: 'coloring'" in capsys.readouterr().err

    def test_io_fault_storm_exits_1(self, tmp_path, mm64, capsys):
        out = tmp_path / "sh"
        main(["ooc", "ingest", str(mm64), str(out), "--n-shards", "2"])
        assert main(["ooc", "spmv", str(out),
                     "--chaos-io", "1.0"]) == 1
        assert "unreadable" in capsys.readouterr().err

    @pytest.mark.parametrize("precond", ["none", "jacobi"])
    def test_sigkill_resume_bit_identical(self, tmp_path, precond):
        """Kill -9 mid-solve; --resume completes bit-identically."""
        mm = _laplacian_mm(tmp_path / "lap.mtx", 600)
        shards = tmp_path / "shards"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        run = [sys.executable, "-m", "repro.cli", "ooc"]
        subprocess.run(
            run + ["ingest", str(mm), str(shards), "--n-shards", "4"],
            env=env, check=True, capture_output=True,
        )
        solve = run + [
            "cg", str(shards), "--tol", "1e-10",
            "--memory-budget", "64K",
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-every", "5", "--seed", "7",
            "--precond", precond,
        ]
        # Reference: uninterrupted solve.
        ref = subprocess.run(
            solve + ["--json", str(tmp_path / "full.json")],
            env=env, check=True, capture_output=True,
        )
        full = json.loads((tmp_path / "full.json").read_text())
        assert full["converged"]
        for stale in Path(tmp_path / "ck").glob("ckpt_*.bin"):
            stale.unlink()

        # Victim: same solve, SIGKILLed once a checkpoint is durable.
        victim = subprocess.Popen(
            solve, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if list((tmp_path / "ck").glob("ckpt_*.bin")):
                    break
                if victim.poll() is not None:
                    break
                time.sleep(0.002)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
        finally:
            victim.wait(timeout=30)
        assert list((tmp_path / "ck").glob("ckpt_*.bin"))

        resumed = subprocess.run(
            solve + ["--resume", "--json", str(tmp_path / "res.json")],
            env=env, check=True, capture_output=True,
        )
        res = json.loads((tmp_path / "res.json").read_text())
        assert res["converged"]
        assert res["resumed_from"] is not None
        assert res["x_sha256"] == full["x_sha256"]
        assert res["iterations"] == full["iterations"]
