"""No kernel path loads ``scipy``.

Importing ``scipy.sparse`` costs 16-22 MiB of RSS, so ``import repro``,
the SSS / CSR / CSX / CSX-Sym drivers and the out-of-core operator must
leave it unloaded (SSS and CSX run the native kernel). Each check runs
in a fresh interpreter, where ``sys.modules`` shows exactly what was
imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

_SETUP = """
import sys
import numpy as np

from repro.matrices.generators import grid_laplacian_2d

coo = grid_laplacian_2d(12, 12)
parts = [(0, 72), (72, 144)]
x = np.ones(coo.n_rows)
"""


def _run(body: str) -> str:
    """Run ``body`` in a fresh interpreter; return the ``scipy``
    modules it left loaded (one per line)."""
    code = textwrap.dedent(body) + textwrap.dedent("""
        print("\\n".join(m for m in sys.modules if m.startswith("scipy")))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_repro_leaves_scipy_sparse_unloaded():
    assert "scipy.sparse" not in _run("import sys\nimport repro\n").split()


def test_sss_and_csr_driver_apply_leave_scipy_sparse_unloaded():
    loaded = _run(_SETUP + """
from repro.formats import CSRMatrix, SSSMatrix
from repro.parallel import ParallelSpMV, ParallelSymmetricSpMV

with ParallelSymmetricSpMV(SSSMatrix.from_coo(coo), parts, "indexed") as d:
    d(x)
with ParallelSpMV(CSRMatrix.from_coo(coo), parts) as d:
    d(x)
""")
    assert "scipy.sparse" not in loaded.split()


def test_budgeted_sharded_apply_leaves_scipy_sparse_unloaded(tmp_path):
    loaded = _run(_SETUP + f"""
from pathlib import Path

from repro.matrices.mmio import write_matrix_market
from repro.ooc import ShardedOperator, ingest_matrix_market

tmp = Path({str(tmp_path)!r})
write_matrix_market(tmp / "A.mtx", coo, symmetric=True)
store = ingest_matrix_market(tmp / "A.mtx", tmp / "shards", n_shards=4)
budget = 2 * max(s.n_bytes for s in store.shards)
op = ShardedOperator(store, memory_budget=budget)
op(x)
op(x)
""")
    assert "scipy.sparse" not in loaded.split()


def test_csx_sym_and_csx_apply_leave_scipy_unloaded():
    loaded = _run(_SETUP + """
from repro.formats import CSXMatrix, CSXSymMatrix
from repro.parallel import ParallelSpMV, ParallelSymmetricSpMV

csxs = CSXSymMatrix(coo, partitions=parts)
with ParallelSymmetricSpMV(csxs, parts, "indexed") as d:
    d(x)
    with d.bind(3) as op:
        op(np.ones((coo.n_rows, 3)))
with ParallelSpMV(CSXMatrix(coo, partitions=parts), parts) as d:
    d(x)
csxs.spmv(x)
assert "scipy" not in sys.modules
""")
    assert loaded.split() == []
