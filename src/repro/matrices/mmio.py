"""Minimal MatrixMarket coordinate I/O.

Supports the subset the experiments need: ``matrix coordinate real``
with ``general`` or ``symmetric`` qualifiers. Symmetric files store the
lower triangle (MatrixMarket convention) and are expanded on read, so a
round trip through :func:`write_matrix_market` /
:func:`read_matrix_market` is exact for our symmetric suite.

Reading is *hardened*: malformed text raises a typed error from the
:mod:`repro.formats.validate` taxonomy instead of silently producing a
wrong matrix — duplicate coordinates raise
:class:`~repro.formats.validate.CanonicalityError` (a duplicate in a
symmetric file would otherwise be double-counted by the expansion),
and entries above the diagonal of a symmetric file are mirrored into
the lower triangle (or rejected with
:class:`~repro.formats.validate.TriangleConventionError` under
``upper="error"``) rather than being expanded as if they were lower
entries.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from ..formats.coo import COOMatrix
from ..formats.validate import (
    BoundsError,
    CanonicalityError,
    ParseError,
    SymmetryError,
    TriangleConventionError,
    check_finite,
)

__all__ = [
    "MMHeader",
    "iter_coordinates",
    "read_matrix_market",
    "write_matrix_market",
]

_HEADER = "%%MatrixMarket matrix coordinate real"


@dataclass(frozen=True)
class MMHeader:
    """Parsed MatrixMarket banner + size line (stored-entry count:
    symmetric files declare the lower triangle only)."""

    n_rows: int
    n_cols: int
    nnz: int
    symmetric: bool


def _parse_banner(line: str) -> bool:
    """Validate the banner line; returns the ``symmetric`` flag."""
    header = line.strip().lower()
    if not header.startswith("%%matrixmarket matrix coordinate real"):
        raise ParseError(f"unsupported MatrixMarket header: {line!r}")
    symmetric = header.endswith("symmetric")
    if not (symmetric or header.endswith("general")):
        raise ParseError(f"unsupported qualifier in header: {line!r}")
    return symmetric


def _parse_size_line(line: str, symmetric: bool) -> tuple[int, int, int]:
    dims = line.split()
    if len(dims) != 3:
        raise ParseError(f"malformed size line: {line!r}")
    try:
        n_rows, n_cols, nnz = (int(t) for t in dims)
    except ValueError:
        raise ParseError(f"malformed size line: {line!r}") from None
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise ParseError(f"negative dimensions in size line: {line!r}")
    if symmetric and n_rows != n_cols:
        raise ParseError(
            f"symmetric qualifier on a non-square {n_rows}x{n_cols} matrix"
        )
    return n_rows, n_cols, nnz


def write_matrix_market(
    path: Union[str, Path, io.TextIOBase],
    coo: COOMatrix,
    *,
    symmetric: bool = False,
) -> None:
    """Write a COO matrix in MatrixMarket coordinate format.

    With ``symmetric=True`` the matrix must be symmetric and only the
    lower triangle (diagonal included) is stored.
    """
    if symmetric:
        if not coo.is_symmetric():
            raise SymmetryError("matrix is not symmetric")
        out = coo.lower_triangle(strict=False)
    else:
        out = coo.canonicalize()
    qualifier = "symmetric" if symmetric else "general"
    lines = [f"{_HEADER} {qualifier}\n"]
    lines.append(f"{coo.n_rows} {coo.n_cols} {out.nnz}\n")
    for r, c, v in zip(out.rows, out.cols, out.vals):
        lines.append(f"{r + 1} {c + 1} {float(v)!r}\n")
    data = "".join(lines)
    if isinstance(path, (str, Path)):
        Path(path).write_text(data)
    else:
        path.write(data)


def _parse_entries(entries: list[str]) -> np.ndarray:
    """Parse coordinate lines into an ``(nnz, 3)`` float array, raising
    :class:`ParseError` with the offending line on malformed input."""
    tokens = [ln.split() for ln in entries]
    for ln, toks in zip(entries, tokens):
        if len(toks) != 3:
            raise ParseError(f"malformed entry line: {ln!r}")
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        for ln, toks in zip(entries, tokens):
            try:
                [float(t) for t in toks]
            except ValueError:
                raise ParseError(f"malformed entry line: {ln!r}") from None
        raise  # pragma: no cover - unreachable


def _validate_entries(
    data: np.ndarray, n_rows: int, n_cols: int, symmetric: bool, upper: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared entry hardening: integer/1-based/bounds/finiteness checks
    on a parsed ``(m, 3)`` block, 0-based conversion, and the symmetric
    upper-triangle policy (mirror or reject). Used by both the whole-
    file reader and the chunked iterator, so both fail identically on
    the same malformed input."""
    rows = data[:, 0]
    cols = data[:, 1]
    if np.any(rows != np.floor(rows)) or np.any(cols != np.floor(cols)):
        raise ParseError("non-integer coordinates in entry lines")
    if rows.min() < 1 or cols.min() < 1:
        raise BoundsError("MatrixMarket coordinates are 1-based")
    if rows.max() > n_rows or cols.max() > n_cols:
        raise BoundsError(
            f"entry coordinates exceed declared shape "
            f"({n_rows}, {n_cols})"
        )
    rows = rows.astype(np.int64) - 1
    cols = cols.astype(np.int64) - 1
    vals = data[:, 2]
    check_finite(vals, "MatrixMarket values")

    if symmetric:
        above = cols > rows
        if np.any(above):
            if upper == "error":
                i = int(np.flatnonzero(above)[0])
                raise TriangleConventionError(
                    "symmetric file stores entry "
                    f"({int(rows[i]) + 1}, {int(cols[i]) + 1}) above the "
                    "diagonal; MatrixMarket symmetric files are "
                    "lower-triangle only"
                )
            rows[above], cols[above] = (
                cols[above].copy(), rows[above].copy()
            )
    return rows, cols, vals


def read_matrix_market(
    path: Union[str, Path, io.TextIOBase], *, upper: str = "mirror"
) -> COOMatrix:
    """Read a MatrixMarket coordinate file into a COO matrix.

    Symmetric files are expanded to both triangles.  Per the
    MatrixMarket convention a symmetric file must store the *lower*
    triangle only; entries above the diagonal are handled per
    ``upper``:

    * ``"mirror"`` (default): transposed into the lower triangle before
      expansion (tolerates upper-triangle producers);
    * ``"error"``: raise
      :class:`~repro.formats.validate.TriangleConventionError`.

    Duplicate coordinates (in either qualifier, and including a
    symmetric file storing both ``(i, j)`` and ``(j, i)``) raise
    :class:`~repro.formats.validate.CanonicalityError` — summing or
    double-expanding them silently would corrupt the matrix.
    """
    if upper not in ("mirror", "error"):
        raise ValueError(f"upper must be 'mirror' or 'error', got {upper!r}")
    if isinstance(path, (str, Path)):
        text = Path(path).read_text()
    else:
        text = path.read()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty MatrixMarket file")
    symmetric = _parse_banner(lines[0])

    # Comment lines may carry leading whitespace; strip before testing.
    body = [
        ln for ln in lines[1:]
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError("missing size line")
    n_rows, n_cols, nnz = _parse_size_line(body[0], symmetric)
    entries = body[1:]
    if len(entries) != nnz:
        raise ParseError(
            f"expected {nnz} entries, found {len(entries)}"
        )
    if nnz:
        rows, cols, vals = _validate_entries(
            _parse_entries(entries), n_rows, n_cols, symmetric, upper
        )
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)

    # A repeated coordinate would be summed (general) or double-counted
    # by the symmetric expansion; per the MM spec entries are unique.
    keys = rows * max(1, n_cols) + cols
    uniq, counts = np.unique(keys, return_counts=True)
    if uniq.size != keys.size:
        r, c = divmod(int(uniq[counts > 1][0]), max(1, n_cols))
        raise CanonicalityError(
            f"duplicate coordinate ({r + 1}, {c + 1}) in MatrixMarket "
            "file" + (" after lower-triangle canonicalization"
                      if symmetric else "")
        )

    if symmetric and nnz:
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return COOMatrix((n_rows, n_cols), rows, cols, vals, sum_duplicates=False)


def read_header(path: Union[str, Path]) -> MMHeader:
    """Parse only the banner and size line of a MatrixMarket file."""
    header, chunks = iter_coordinates(path, chunk_nnz=1)
    chunks.close()
    return header


def iter_coordinates(
    path: Union[str, Path, io.TextIOBase],
    chunk_nnz: int = 65536,
    *,
    upper: str = "mirror",
) -> tuple[MMHeader, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Stream a MatrixMarket coordinate file in bounded-memory chunks.

    Returns ``(header, chunks)`` where ``chunks`` yields
    ``(rows, cols, vals)`` blocks of at most ``chunk_nnz`` *stored*
    entries — 0-based int64 coordinates and float64 values, in file
    order. Peak memory is O(``chunk_nnz``), never O(nnz): this is the
    ingest path for matrices larger than RAM
    (:mod:`repro.ooc.shards`).

    Every hardening check of :func:`read_matrix_market` that can be
    applied without global state runs per chunk through the same
    helpers (malformed lines, non-integer/out-of-bounds coordinates,
    non-finite values, the symmetric ``upper`` policy), and the entry
    *count* is validated against the size line when the file ends.
    Symmetric files are **not** expanded — chunks stay canonicalized
    lower-triangle, exactly what the shard builder wants. The one
    whole-file check that cannot stream is duplicate-coordinate
    detection; consumers that need it re-check canonicality on their
    bounded working set (ingest does, per shard — duplicates share a
    coordinate, hence a shard).

    The banner and size line are consumed eagerly (malformed headers
    raise here, not at first iteration); entry parsing is lazy.
    Closing the generator (or exhausting it) closes the file when this
    function opened it, whether or not iteration has started.
    """
    if upper not in ("mirror", "error"):
        raise ValueError(f"upper must be 'mirror' or 'error', got {upper!r}")
    if chunk_nnz < 1:
        raise ValueError(f"chunk_nnz must be >= 1, got {chunk_nnz}")
    if isinstance(path, (str, Path)):
        fh = open(path, "r")
        owns = True
    else:
        fh, owns = path, False
    try:
        banner = fh.readline()
        if not banner:
            raise ParseError("empty MatrixMarket file")
        symmetric = _parse_banner(banner.rstrip("\n"))
        size_line = None
        while size_line is None:
            ln = fh.readline()
            if not ln:
                raise ParseError("missing size line")
            if ln.strip() and not ln.lstrip().startswith("%"):
                size_line = ln.rstrip("\n")
        n_rows, n_cols, nnz = _parse_size_line(size_line, symmetric)
    except BaseException:
        if owns:
            fh.close()
        raise
    header = MMHeader(n_rows, n_cols, nnz, symmetric)

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        try:
            # Primed below: close() on a generator that never started
            # skips its ``finally``, which would leave the file open.
            yield  # type: ignore[misc]
            seen = 0
            block: list[str] = []
            for ln in fh:
                if not ln.strip() or ln.lstrip().startswith("%"):
                    continue
                block.append(ln.rstrip("\n"))
                if seen + len(block) > nnz:
                    raise ParseError(
                        f"expected {nnz} entries, found more than {nnz}"
                    )
                if len(block) == chunk_nnz:
                    seen += len(block)
                    out = _validate_entries(
                        _parse_entries(block), n_rows, n_cols,
                        symmetric, upper,
                    )
                    block = []
                    yield out
            if block:
                seen += len(block)
                yield _validate_entries(
                    _parse_entries(block), n_rows, n_cols,
                    symmetric, upper,
                )
            if seen != nnz:
                raise ParseError(f"expected {nnz} entries, found {seen}")
        finally:
            if owns:
                fh.close()

    gen = chunks()
    next(gen)
    return header, gen
