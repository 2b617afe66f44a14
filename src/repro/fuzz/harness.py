"""Differential fuzzing harness: formats × drivers × ops vs the oracle.

Each generated :class:`~repro.fuzz.generators.FuzzCase` is driven
through a deterministic rotation of :class:`Combo` configurations —
every storage format, through the serial kernels, the parallel drivers
(:class:`~repro.parallel.spmv.ParallelSpMV` /
:class:`~repro.parallel.spmv.ParallelSymmetricSpMV` with all three
reductions) and the bound operators, for both SpM×V and SpM×M — and
each result is checked against the dense NumPy oracle under the
ULP-aware tolerance of :mod:`repro.fuzz.oracle`.

A mismatch is shrunk (:mod:`repro.fuzz.shrink`) to a minimal
reproducer and rendered as a ready-to-paste regression test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..formats import (
    BCSRMatrix,
    COOMatrix,
    CSBMatrix,
    CSBSymMatrix,
    CSRMatrix,
    CSXMatrix,
    CSXSymMatrix,
    SSSMatrix,
    SymmetryError,
    ValidationError,
)
from ..parallel import (
    Executor,
    ParallelSpMV,
    ParallelSymmetricSpMV,
    partition_nnz_balanced,
)
from ..resilience import (
    BatchExecutionError,
    ChaosInjectedError,
    ChaosPlan,
)
from .generators import FuzzCase, generate_case, generate_mm_case
from .oracle import check_against_oracle

__all__ = [
    "Combo",
    "FuzzConfig",
    "Mismatch",
    "FuzzReport",
    "all_combos",
    "run_fuzz",
    "assert_combo",
]

SYMMETRIC_FORMATS = ("sss", "csx-sym", "csb-sym")
GENERAL_FORMATS = ("coo", "csr", "bcsr", "csb", "csx")
GENERAL_DRIVER_FORMATS = ("csr", "csx")
REDUCTIONS = ("naive", "effective", "indexed", "coloring")
#: Symmetric formats with a recoverable lower-triangle CSR triple —
#: the only ones the conflict-free "coloring" reduction runs on.
COLORING_FORMATS = ("sss", "csx-sym")

#: Block size for the CSB formats (small, so tiny cases still tile).
CSB_BETA = 4


@dataclass(frozen=True)
class Combo:
    """One (format, driver, operation) configuration under test."""

    fmt: str
    driver: str  # "serial" | "parallel" | "bound"
    op: str  # "spmv" | "spmm"
    reduction: str = "indexed"
    p: int = 2
    k: int = 3

    def describe(self) -> str:
        bits = [self.fmt, self.driver, self.op]
        if self.driver != "serial":
            bits.append(f"p={self.p}")
            if self.fmt in SYMMETRIC_FORMATS:
                bits.append(self.reduction)
        if self.op == "spmm":
            bits.append(f"k={self.k}")
        return "/".join(bits)

    # ------------------------------------------------------------------
    def _partitions(self, coo: COOMatrix, matrix=None):
        parts = partition_nnz_balanced(coo.row_counts(), self.p)
        if self.fmt == "csb-sym" and matrix is not None:
            n_brows = -(-matrix.n_rows // matrix.beta)
            return matrix.block_row_partitions(min(self.p, n_brows))
        return parts

    def _build(self, coo: COOMatrix, executor: Optional[Executor] = None):
        """(matrix, apply_callable) for this combo."""
        if self.driver == "serial":
            builders = {
                "coo": lambda: coo,
                "csr": lambda: CSRMatrix.from_coo(coo),
                "sss": lambda: SSSMatrix.from_coo(coo),
                "bcsr": lambda: BCSRMatrix(coo, (2, 2)),
                "csb": lambda: CSBMatrix(coo, beta=CSB_BETA),
                "csb-sym": lambda: CSBSymMatrix(coo, beta=CSB_BETA),
                "csx": lambda: CSXMatrix(coo),
                "csx-sym": lambda: CSXSymMatrix(coo),
            }
            m = builders[self.fmt]()
            return m.spmv if self.op == "spmv" else m.spmm

        if self.fmt in SYMMETRIC_FORMATS:
            if self.fmt == "sss":
                m = SSSMatrix.from_coo(coo)
                parts = self._partitions(coo)
            elif self.fmt == "csx-sym":
                parts = self._partitions(coo)
                m = CSXSymMatrix(coo, partitions=parts)
            else:
                m = CSBSymMatrix(coo, beta=CSB_BETA)
                parts = self._partitions(coo, m)
            drv = ParallelSymmetricSpMV(
                m, parts, self.reduction, executor=executor
            )
        else:
            parts = self._partitions(coo)
            if self.fmt == "csr":
                m = CSRMatrix.from_coo(coo)
            else:
                m = CSXMatrix(coo, partitions=parts)
            drv = ParallelSpMV(m, parts, executor=executor)

        if self.driver == "parallel":
            return drv
        return drv.bind(None if self.op == "spmv" else self.k)

    def run(
        self,
        case: FuzzCase,
        chaos_plan: Optional[ChaosPlan] = None,
        executor_mode: Optional[str] = None,
    ) -> tuple[bool, str, float]:
        """Drive the combo on ``case``; ``(ok, failure_kind, ratio)``.

        ``failure_kind`` is ``""`` on success, ``"mismatch"`` on an
        oracle disagreement, or ``"exception:<Type>"`` when building or
        applying raised. A ``chaos_plan`` routes the parallel/bound
        drivers through ``Executor("threads", plan=...)`` — injected
        faults then surface as the typed containment exceptions, which
        the harness classifies (serial combos ignore the plan: there is
        no batch to disrupt). ``executor_mode`` instead picks a plain
        backend (``"threads"``) for the parallel/bound drivers; the
        harness closes the driver or operator it built, and with it the
        executor's thread pool.
        """
        executor = None
        if self.driver != "serial":
            if chaos_plan is not None:
                executor = Executor("threads", plan=chaos_plan)
            elif executor_mode is not None:
                executor = Executor(executor_mode, max_workers=2)
        apply = None
        try:
            dense = case.dense
            apply = self._build(case.coo, executor)
            k = None if self.op == "spmv" else self.k
            x = _rhs(case, k)
            if self.driver == "bound":
                # Two applications through the persistent workspace:
                # the second catches stale-state zeroing bugs.
                y0 = np.array(apply(_rhs(case, k, salt=1)))
                ok0, r0 = check_against_oracle(
                    y0, dense, _rhs(case, k, salt=1)
                )
                y = np.array(apply(x))
                if not ok0:
                    return False, "mismatch", r0
            else:
                y = apply(x)
            ok, ratio = check_against_oracle(y, dense, x)
            return (True, "", ratio) if ok else (False, "mismatch", ratio)
        except Exception as exc:  # noqa: BLE001 - harness boundary
            return False, f"exception:{type(exc).__name__}", float("inf")
        finally:
            # Serial combos apply a format method: nothing to close.
            close = getattr(apply, "close", None)
            if close is not None:
                close()
            if executor is not None:
                executor.close()


def _rhs(case: FuzzCase, k: Optional[int], salt: int = 0) -> np.ndarray:
    rng = np.random.default_rng([case.seed, case.index, 777 + salt])
    shape = (case.n,) if k is None else (case.n, k)
    return rng.standard_normal(shape)


def all_combos(k: int = 3) -> list[Combo]:
    """The full format × driver × (spmv, spmm) configuration matrix."""
    combos: list[Combo] = []
    for op in ("spmv", "spmm"):
        for fmt in GENERAL_FORMATS + SYMMETRIC_FORMATS:
            combos.append(Combo(fmt, "serial", op, k=k))
        for fmt in SYMMETRIC_FORMATS:
            for red in REDUCTIONS:
                if red == "coloring" and fmt not in COLORING_FORMATS:
                    continue
                combos.append(
                    Combo(fmt, "parallel", op, reduction=red, p=3, k=k)
                )
            combos.append(Combo(fmt, "bound", op, p=2, k=k))
        for fmt in GENERAL_DRIVER_FORMATS:
            combos.append(Combo(fmt, "parallel", op, p=3, k=k))
            combos.append(Combo(fmt, "bound", op, p=2, k=k))
    return combos


def _applicable(combo: Combo, case: FuzzCase) -> bool:
    if case.symmetric:
        return True
    return combo.fmt not in SYMMETRIC_FORMATS


# ----------------------------------------------------------------------
# Run orchestration
# ----------------------------------------------------------------------
@dataclass
class FuzzConfig:
    """Harness parameters (all deterministic given ``seed``)."""

    cases: int = 500
    seed: int = 0
    budget: Optional[float] = None  # wall-clock seconds, None = no cap
    k: int = 3
    stride: int = 4  # each case runs 1/stride of the combo matrix
    mm_every: int = 4  # dirty-MatrixMarket case every N matrix cases
    shrink: bool = True
    max_mismatches: int = 5
    #: Re-run every parallel/bound combo on ``threads`` with a rotated
    #: fault plan; injected faults must either be contained in the
    #: typed resilience exceptions or leave the output bit-correct.
    chaos: bool = False
    #: Under ``chaos``, every N-th symmetric case also runs the
    #: out-of-core rotation: the case is ingested to disk shards and
    #: applied through a :class:`~repro.ooc.ShardedOperator` whose
    #: reads suffer injected disk faults — the result must match the
    #: oracle (faults absorbed by retry/re-ingest) or fail with a typed
    #: ooc error, never silently corrupt. 0 disables.
    ooc_every: int = 8
    #: Executor backend for the parallel/bound combos ("threads"; None
    #: keeps the drivers' default serial executor).
    executor_mode: Optional[str] = None


@dataclass
class Mismatch:
    """One verified oracle disagreement (or harness-level crash)."""

    case: FuzzCase
    combo: Combo
    kind: str
    ratio: float
    shrunk: Optional[FuzzCase] = None
    reproducer: str = ""

    def describe(self) -> str:
        size = self.case.rows.size
        extra = (
            f", shrunk to {self.shrunk.rows.size} entries"
            if self.shrunk is not None else ""
        )
        return (
            f"{self.combo.describe()} on case "
            f"{self.case.name}[seed={self.case.seed}, "
            f"index={self.case.index}] ({size} raw entries{extra}): "
            f"{self.kind}, error ratio {self.ratio:.3g}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one harness run."""

    config: FuzzConfig
    cases_run: int = 0
    mm_cases_run: int = 0
    checks_run: int = 0
    rejections_checked: int = 0
    coloring_checks: int = 0
    chaos_checks: int = 0
    chaos_contained: int = 0  # chaos runs stopped by a typed error
    ooc_checks: int = 0
    ooc_contained: int = 0  # ooc runs stopped by a typed ooc error
    combos_covered: set = field(default_factory=set)
    mismatches: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        chaos = (
            f", {self.chaos_checks} chaos checks "
            f"({self.chaos_contained} contained)"
            if self.chaos_checks else ""
        )
        if self.ooc_checks:
            chaos += (
                f", {self.ooc_checks} ooc checks "
                f"({self.ooc_contained} contained)"
            )
        lines = [
            f"fuzz: {self.cases_run} matrix cases + {self.mm_cases_run} "
            f"MatrixMarket cases, {self.checks_run} oracle checks, "
            f"{self.rejections_checked} rejection checks, "
            f"{self.coloring_checks} coloring checks"
            f"{chaos}, "
            f"{len(self.combos_covered)} combos covered, "
            f"{self.elapsed:.1f}s",
            f"seed {self.config.seed} -> "
            + ("PASS" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"),
        ]
        for m in self.mismatches:
            lines.append("  " + m.describe())
        return "\n".join(lines)


def _check_mm_case(mm) -> tuple[bool, str]:
    """Differential check of one dirty-MatrixMarket text."""
    import io as _io

    from ..matrices.mmio import read_matrix_market

    try:
        got = read_matrix_market(_io.StringIO(mm.text))
    except ValidationError:
        if mm.expect_error:
            return True, ""
        return False, "parse raised on well-formed text"
    except Exception as exc:  # noqa: BLE001
        return False, f"untyped parse error {type(exc).__name__}"
    if mm.expect_error:
        return False, "malformed text parsed silently"
    if not np.array_equal(got.to_dense(), mm.dense):
        return False, "parsed matrix differs from reference"
    return True, ""


def _check_symmetry_rejection(case: FuzzCase) -> list[tuple[Combo, str]]:
    """Symmetric-only builders must reject a near-symmetric matrix."""
    failures = []
    builders = {
        "sss": lambda c: SSSMatrix.from_coo(c),
        "csx-sym": lambda c: CSXSymMatrix(c),
        "csb-sym": lambda c: CSBSymMatrix(c, beta=CSB_BETA),
    }
    for fmt, build in builders.items():
        try:
            build(case.coo)
        except SymmetryError:
            continue
        except Exception as exc:  # noqa: BLE001
            failures.append(
                (Combo(fmt, "serial", "spmv"),
                 f"wrong-rejection:{type(exc).__name__}")
            )
            continue
        failures.append(
            (Combo(fmt, "serial", "spmv"), "accepted-asymmetric")
        )
    return failures


def _check_coloring(case: FuzzCase) -> list[tuple[Combo, str]]:
    """Distance-2 coloring of the case's SSS form must verify."""
    from ..parallel import distance2_coloring, verify_coloring

    combo = Combo("sss", "parallel", "spmv", reduction="coloring")
    try:
        sss = SSSMatrix.from_coo(case.coo)
        colors = distance2_coloring(sss)
        if not verify_coloring(sss, colors):
            return [(combo, "coloring-invalid")]
    except Exception as exc:  # noqa: BLE001 - harness boundary
        return [(combo, f"coloring-exception:{type(exc).__name__}")]
    return []


#: Exceptions that count as *contained* chaos outcomes: the executor or
#: the injected fault itself surfaced through the typed resilience
#: taxonomy instead of corrupting the output.
_CONTAINED_ERRORS = frozenset(
    cls.__name__
    for cls in (BatchExecutionError, ChaosInjectedError)
)

#: Typed out-of-core failures that count as contained outcomes of the
#: disk-fault rotation (see :class:`FuzzConfig.ooc_every`).
_OOC_CONTAINED_ERRORS = frozenset(
    ("ShardIOError", "ShardChecksumError", "CheckpointError")
)


def _check_ooc(case: FuzzCase, config: FuzzConfig, index: int):
    """Out-of-core disk-fault rotation for one symmetric case.

    Ingests the case to real on-disk shards in a temp dir, then applies
    a :class:`~repro.ooc.ShardedOperator` whose shard reads go through
    a ``p_io`` chaos plan. Returns ``(ok, kind, contained)``: the apply
    must be oracle-correct (faults absorbed by bounded retry and
    re-ingest) or stop with a typed ooc error — silent corruption and
    untyped escapes are mismatches. The fault rate alternates between a
    mostly-recoverable and a mostly-fatal regime so both the absorb and
    the escalate paths stay exercised.
    """
    import tempfile
    from pathlib import Path

    from ..ooc import ShardedOperator, ShardStore, ingest_matrix_market

    lower = case.coo.lower_triangle()
    with tempfile.TemporaryDirectory(prefix="fuzz-ooc-") as tmp:
        mm = Path(tmp) / "case.mtx"
        lines = [
            "%%MatrixMarket matrix coordinate real symmetric",
            f"{case.n} {case.n} {lower.nnz}",
        ]
        lines.extend(
            f"{int(r) + 1} {int(c) + 1} {float(v)!r}"
            for r, c, v in zip(lower.rows, lower.cols, lower.vals)
        )
        mm.write_text("\n".join(lines) + "\n")
        x = _rhs(case, None)
        try:
            ingest_matrix_market(
                mm, Path(tmp) / "shards",
                shard_nnz=max(2, lower.nnz // 3 + 1), chunk_nnz=16,
            )
            plan = ChaosPlan(
                seed=config.seed * 1_000_003 + index * 7_919,
                p_io=0.85 if (index // max(1, config.ooc_every)) % 2
                else 0.25,
                p_delay=0.0, reorder=False,
            )
            store = ShardStore(
                Path(tmp) / "shards", chaos=plan, max_retries=1
            )
            y = ShardedOperator(store, n_threads=2)(x)
        except Exception as exc:  # noqa: BLE001 - harness boundary
            name = type(exc).__name__
            if name in _OOC_CONTAINED_ERRORS:
                return True, "", True
            return False, f"ooc-exception:{name}", False
    ok, ratio = check_against_oracle(y, case.dense, x)
    return (ok, "" if ok else "ooc-mismatch", False)


def _chaos_plan(config: FuzzConfig, index: int, ci: int) -> ChaosPlan:
    """Rotated deterministic fault plan for one (case, combo) pair.

    Alternates exception-bearing and delay/reorder-only plans so both
    halves of the containment property get exercised: typed-error
    propagation on one half, bit-identical output under pure scheduling
    perturbation on the other.
    """
    return ChaosPlan(
        seed=config.seed * 1_000_003 + index * 101 + ci,
        p_raise=0.25 if (index + ci) % 2 == 0 else 0.0,
        p_delay=0.3,
        max_delay_ms=0.3,
        reorder=True,
    )


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the differential harness; deterministic given the config."""
    from .shrink import emit_regression_test, shrink_case

    report = FuzzReport(config=config)
    combos = all_combos(config.k)
    start = time.monotonic()
    mm_index = 0

    for index in range(config.cases):
        if config.budget is not None and (
            time.monotonic() - start > config.budget
        ):
            break
        case = generate_case(config.seed, index)

        # Library canonicalization vs the raw accumulation oracle.
        dense = case.dense
        report.checks_run += 1
        lib = case.coo.to_dense()
        absmag = np.zeros(case.shape)
        np.add.at(absmag, (case.rows, case.cols), np.abs(case.vals))
        tol = 16 * np.finfo(np.float64).eps * absmag
        if np.any(np.abs(lib - dense) > tol):
            report.mismatches.append(
                Mismatch(case, Combo("coo", "serial", "spmv"),
                         "canonicalization-mismatch", float("inf"))
            )

        # Dirty (duplicate-preserving) instance must agree symmetric-
        # verdict-wise with the oracle.
        report.checks_run += 1
        sym_oracle = bool(
            np.allclose(dense, dense.T, rtol=1e-6, atol=0.0)
        )
        if case.dirty_coo.is_symmetric(rtol=1e-6) != sym_oracle:
            report.mismatches.append(
                Mismatch(case, Combo("coo", "serial", "spmv"),
                         "symmetry-verdict-mismatch", float("inf"))
            )

        # Every symmetric draw must produce a *valid* distance-2
        # coloring — adversarial shapes (empty rows, disconnected
        # components, duplicate entries) included. Validity is checked
        # by the independent verifier, not trusted from the builder.
        if case.symmetric:
            report.checks_run += 1
            report.coloring_checks += 1
            for combo, kind in _check_coloring(case):
                report.mismatches.append(
                    Mismatch(case, combo, kind, float("inf"))
                )

        # Out-of-core rotation: real disk shards + injected io faults.
        if config.chaos and config.ooc_every and case.symmetric and (
            case.n >= 2 and case.coo.nnz > 0
            and index % config.ooc_every == 0
        ):
            report.checks_run += 1
            report.ooc_checks += 1
            ok_o, kind_o, contained = _check_ooc(case, config, index)
            if contained:
                report.ooc_contained += 1
            if not ok_o:
                report.mismatches.append(
                    Mismatch(case, Combo("sss", "parallel", "spmv"),
                             kind_o, float("inf"))
                )

        # A generator labelled "unsymmetric" can still draw a matrix
        # that happens to be symmetric (empty, single diagonal entry);
        # only genuinely asymmetric draws must be rejected.
        if not case.symmetric and not sym_oracle:
            report.rejections_checked += 3
            for combo, kind in _check_symmetry_rejection(case):
                report.mismatches.append(
                    Mismatch(case, combo, kind, float("inf"))
                )

        for ci, combo in enumerate(combos):
            if ci % config.stride != index % config.stride:
                continue
            if not _applicable(combo, case):
                continue
            ok, kind, ratio = combo.run(
                case, executor_mode=config.executor_mode
            )
            report.checks_run += 1
            report.combos_covered.add(combo.describe())
            if not ok:
                mis = Mismatch(case, combo, kind, ratio)
                if config.shrink:
                    mis.shrunk = shrink_case(case, combo, kind)
                    mis.reproducer = emit_regression_test(
                        mis.shrunk or case, combo, kind
                    )
                else:
                    mis.reproducer = emit_regression_test(case, combo, kind)
                report.mismatches.append(mis)

            # Containment property: the same combo under an injected
            # fault plan must either raise a typed resilience error or
            # produce oracle-correct output — never corrupt silently.
            if config.chaos and combo.driver != "serial" and ok:
                plan = _chaos_plan(config, index, ci)
                ok_c, kind_c, ratio_c = combo.run(case, chaos_plan=plan)
                report.checks_run += 1
                report.chaos_checks += 1
                if not ok_c and kind_c.split(":", 1)[-1] in _CONTAINED_ERRORS:
                    report.chaos_contained += 1
                    ok_c = True
                if not ok_c:
                    mis = Mismatch(case, combo, f"chaos:{kind_c}", ratio_c)
                    # ddmin shrinking replays without the chaos plan, so
                    # it cannot reproduce a chaos-only failure; emit a
                    # replay recipe instead of a shrunk reproducer.
                    mis.reproducer = (
                        f"# chaos replay: seed={config.seed} "
                        f"index={index} combo={combo.describe()} "
                        f"plan(seed={plan.seed}, p_raise={plan.p_raise}, "
                        f"p_delay={plan.p_delay}, "
                        f"max_delay_ms={plan.max_delay_ms})\n"
                        f"# rerun: repro fuzz --chaos "
                        f"--seed {config.seed} --cases {config.cases}\n"
                    )
                    report.mismatches.append(mis)
            if len(report.mismatches) >= config.max_mismatches:
                break
        if len(report.mismatches) >= config.max_mismatches:
            break

        # Interleave dirty MatrixMarket texts.
        if config.mm_every and index % config.mm_every == 0:
            mm = generate_mm_case(config.seed, mm_index)
            mm_index += 1
            report.mm_cases_run += 1
            report.checks_run += 1
            ok, why = _check_mm_case(mm)
            if not ok:
                mm_fail = FuzzCase(
                    name=mm.name, seed=mm.seed, index=mm.index,
                    shape=(0, 0),
                    rows=np.zeros(0, dtype=np.int64),
                    cols=np.zeros(0, dtype=np.int64),
                    vals=np.zeros(0), symmetric=True,
                )
                report.mismatches.append(
                    Mismatch(mm_fail, Combo("coo", "serial", "spmv"),
                             f"mmio:{why}", float("inf"))
                )
        report.cases_run += 1

    report.elapsed = time.monotonic() - start
    return report


# ----------------------------------------------------------------------
# Reproducer entry point (what the emitted regression tests call)
# ----------------------------------------------------------------------
def assert_combo(
    shape: tuple[int, int],
    rows,
    cols,
    vals,
    *,
    fmt: str,
    driver: str,
    op: str,
    reduction: str = "indexed",
    p: int = 2,
    k: int = 3,
    seed: int = 0,
    index: int = 0,
    symmetric: bool = True,
) -> None:
    """Re-run one (case, combo) pair and assert it matches the oracle.

    Emitted reproducers call this with literal arrays, so a fuzz
    failure can be pasted into the test suite verbatim.
    """
    case = FuzzCase(
        name="reproducer", seed=seed, index=index, shape=tuple(shape),
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        vals=np.asarray(vals, dtype=np.float64),
        symmetric=symmetric,
    )
    combo = Combo(fmt, driver, op, reduction=reduction, p=p, k=k)
    ok, kind, ratio = combo.run(case)
    assert ok, (
        f"{combo.describe()} disagrees with the dense oracle "
        f"({kind}, error ratio {ratio:.3g})"
    )
