"""Delimited and binary serialization of the package's data objects.

All CSV output is deterministic: fixed lexicographic row order, floats
printed with %.17g (round-trip exact for doubles).  The dense-matrix dump is
raw little-endian complex doubles behind a 16-byte header: the magic bytes
``PDZM``, then n, M, and a reserved zero word as unsigned 32-bit
little-endian integers.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .calculus import SymbolExpansion
from .errors import ConfigError, DomainMismatchError
from .grids import LatticeBox, LatticeSequence
from .quantize import Kernel, OperatorMatrix
from .symbols import SampledSymbol, row_blocks

MATRIX_MAGIC = b"PDZM"
_HEADER = struct.Struct("<4sIII")

#: Kernel CSV drops entries below this relative threshold (sparse output).
KERNEL_CSV_RELATIVE_THRESHOLD = 1e-14


def _int_columns(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}" for i in range(n)]


#: The re and im fields of one CSV row, the only fields formatted per value.
_VALUES = "%.17g,%.17g\n"


def _texts(ints: np.ndarray) -> list[str]:
    """Each row of an integer array as CSV text, every field followed by a comma."""
    return ["".join(f"{v}," for v in row) for row in ints.tolist()]


def _csv(columns: list[str], blocks) -> str:
    """Header, then the rows of each ``(template, values)`` block: the
    template is the block's text with the integer columns written out and
    :data:`_VALUES` in place of re and im of each value in turn; one ``%``
    per block."""
    parts = [",".join(columns) + "\n"]
    for template, values in blocks:
        parts.append(template % tuple(np.ascontiguousarray(values).view(float).tolist()))
    return "".join(parts)


def sequence_to_csv(f: LatticeSequence) -> str:
    box = f.box
    points = _texts(box.points)
    blocks = (("".join(text + _VALUES for text in points[rows]), f.values[rows])
              for rows in row_blocks(box.size, 1))
    return _csv(_int_columns("k", box.n) + ["re", "im"], blocks)


def write_sequence_csv(f: LatticeSequence, path) -> None:
    Path(path).write_text(sequence_to_csv(f))


def read_sequence_csv(path, box: LatticeBox) -> LatticeSequence:
    """Read a sequence CSV: every row is parsed at once and mapped with one
    :meth:`LatticeBox.index_of`; a file that fails is re-read row by row for
    the first row at fault, in file order."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read sequence file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty sequence file")
    expected = ",".join(_int_columns("k", box.n) + ["re", "im"])
    if lines[0].strip() != expected:
        raise ConfigError(f"{path}: header {lines[0]!r} does not match {expected!r}")
    rows, n = lines[1:], box.n
    cells = [ln.split(",") for ln in rows]
    if any(len(c) != n + 2 for c in cells):
        raise _first_row_at_fault(path, rows, box)
    try:
        columns = list(zip(*cells)) or [()] * (n + 2)
        points = np.array([list(map(int, c)) for c in columns[:n]], dtype=np.int64)
        points = points.T.reshape(len(rows), n)
        values = np.empty(len(rows), dtype=complex)
        values.real, values.imag = list(map(float, columns[n])), list(map(float, columns[n + 1]))
    except (ValueError, OverflowError):
        raise _first_row_at_fault(path, rows, box) from None
    if ((points < -box.N) | (points > box.N)).any():  # abs would wrap at -2**63
        raise _first_row_at_fault(path, rows, box)
    idx = box.index_of(points)
    counts = np.bincount(idx, minlength=box.size)
    if (counts > 1).any():
        raise _first_row_at_fault(path, rows, box)
    if not counts.all():
        raise ConfigError(f"{path}: {int((counts == 0).sum())} box points missing")
    out = np.zeros(box.size, dtype=complex)
    out[idx] = values
    return LatticeSequence(box, out)


def _first_row_at_fault(path, rows: list[str], box: LatticeBox) -> ConfigError:
    """The error of the first malformed, outside or repeated row."""
    seen = set()
    for ln in rows:
        cols = ln.split(",")
        if len(cols) != box.n + 2:
            return ConfigError(f"{path}: malformed row {ln!r}")
        try:
            point = [int(c) for c in cols[: box.n]]
            float(cols[box.n]), float(cols[box.n + 1])
        except ValueError as exc:
            return ConfigError(f"{path}: malformed row {ln!r}: {exc}")
        if any(abs(c) > box.N for c in point):
            return ConfigError(f"{path}: point {point} outside the box (N={box.N})")
        if tuple(point) in seen:
            return ConfigError(f"{path}: duplicate point {point}")
        seen.add(tuple(point))
    raise AssertionError("no row at fault")


def _symbol_blocks(sym: SampledSymbol, lead: str = ""):
    """Blocks for :func:`_csv`, one per row block of the samples: per k row,
    ``lead`` and the point's text ahead of each node's text and values."""
    nodes = [text + _VALUES for text in _texts(sym.grid.node_indices)]
    points = _texts(sym.box.points)
    for rows, block in sym.blocks():
        prefixes = [lead + text for text in points[rows]]
        # each node's row ends in a newline, so joining on the prefix starts every line
        yield "".join(prefix + prefix.join(nodes) for prefix in prefixes), block.ravel()


def _symbol_columns(sym: SampledSymbol) -> list[str]:
    return _int_columns("k", sym.box.n) + _int_columns("j", sym.grid.n) + ["re", "im"]


def symbol_to_csv(sym: SampledSymbol) -> str:
    return _csv(_symbol_columns(sym), _symbol_blocks(sym))


def expansion_to_csv(expansion: SymbolExpansion) -> str:
    """The terms' symbol CSVs in one table, behind a leading ``term`` column
    (the term's index in the expansion)."""
    blocks = (block for idx, term in enumerate(expansion.terms)
              for block in _symbol_blocks(term, f"{idx},"))
    return _csv(["term"] + _symbol_columns(expansion.terms[0]), blocks)


def kernel_to_csv(source: Kernel | SampledSymbol) -> str:
    """Sparse kernel rows ``k_1..k_n, l_1..l_n, re, im`` in lexicographic
    order; entries below the relative magnitude threshold are omitted.

    One pass over the row blocks of kappa: each block keeps its entries above
    the threshold times the running peak, a superset of the final ones, and
    one filter at the end applies the cutoff of the global peak.  A symbol's
    row transform is computed block by block and not cached."""
    box, K = source.box, source.box.size
    peak, kept = 1e-300, []
    for rows, block in source.kappa_blocks():
        mags = np.abs(block).ravel()
        peak = max(peak, float(mags.max()))
        flat = np.flatnonzero(mags > KERNEL_CSV_RELATIVE_THRESHOLD * peak)
        kept.append((rows.start * K + flat, block.ravel()[flat], mags[flat]))
    cutoff = KERNEL_CSV_RELATIVE_THRESHOLD * peak
    points = _texts(box.points)

    def blocks():
        for flat, values, mags in kept:
            keep = mags > cutoff
            i, j = np.divmod(flat[keep], K)
            yield "".join(points[a] + points[b] + _VALUES
                          for a, b in zip(i.tolist(), j.tolist())), values[keep]
    return _csv(_int_columns("k", box.n) + _int_columns("l", box.n) + ["re", "im"], blocks())


def write_matrix_binary(op: OperatorMatrix, path) -> None:
    header = _HEADER.pack(MATRIX_MAGIC, op.box.n, op.box.M, 0)
    data = np.ascontiguousarray(op.values, dtype="<c16").tobytes()
    Path(path).write_bytes(header + data)


def read_matrix_binary(path) -> OperatorMatrix:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read matrix dump {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise ConfigError(f"{path}: too short for a matrix dump")
    magic, n, M, _reserved = _HEADER.unpack_from(blob)
    if magic != MATRIX_MAGIC:
        raise ConfigError(f"{path}: bad magic {magic!r}")
    if M % 2 == 0 or M < 3:
        raise DomainMismatchError(f"{path}: stored M={M} is not odd and >= 3")
    box = LatticeBox(int(n), (int(M) - 1) // 2)
    expected = box.size**2 * 16
    payload = blob[_HEADER.size:]
    if len(payload) != expected:
        raise ConfigError(f"{path}: payload {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<c16").reshape(box.size, box.size)
    return OperatorMatrix(box, values.astype(complex))
