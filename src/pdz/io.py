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


def _csv(columns: list[str], blocks) -> str:
    """Header, then one row per entry of each ``(ints, values)`` block: its
    integer columns, then re and im of its value; one ``%`` per block.  The
    integers pass through float64, exact for lattice coordinates (< 2**53)."""
    row = ",".join(["%d"] * (len(columns) - 2) + ["%.17g", "%.17g"]) + "\n"
    parts = [",".join(columns) + "\n"]
    for ints, values in blocks:
        table = np.column_stack([ints, values.real, values.imag])
        parts.append(row * len(values) % tuple(table.ravel().tolist()))
    return "".join(parts)


def sequence_to_csv(f: LatticeSequence) -> str:
    box = f.box
    blocks = ((box.points[rows], f.values[rows]) for rows in row_blocks(box.size, 1))
    return _csv(_int_columns("k", box.n) + ["re", "im"], blocks)


def write_sequence_csv(f: LatticeSequence, path) -> None:
    Path(path).write_text(sequence_to_csv(f))


def read_sequence_csv(path, box: LatticeBox) -> LatticeSequence:
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
    values = np.zeros(box.size, dtype=complex)
    seen = np.zeros(box.size, dtype=bool)
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) != box.n + 2:
            raise ConfigError(f"{path}: malformed row {ln!r}")
        try:
            point = [int(c) for c in cols[: box.n]]
            re, im = float(cols[box.n]), float(cols[box.n + 1])
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {ln!r}: {exc}") from exc
        if any(abs(c) > box.N for c in point):
            raise ConfigError(f"{path}: point {point} outside the box (N={box.N})")
        idx = box.index_of(np.asarray(point))
        if seen[idx]:
            raise ConfigError(f"{path}: duplicate point {point}")
        seen[idx] = True
        values[idx] = complex(re, im)
    if not seen.all():
        raise ConfigError(f"{path}: {int((~seen).sum())} box points missing")
    return LatticeSequence(box, values)


def _symbol_blocks(sym: SampledSymbol):
    box, grid = sym.box, sym.grid
    for rows in row_blocks(box.size, grid.size):
        k = np.repeat(box.points[rows], grid.size, axis=0)
        j = np.tile(grid.node_indices, (rows.stop - rows.start, 1))
        yield np.hstack([k, j]), sym.samples[rows].ravel()


def _symbol_columns(sym: SampledSymbol) -> list[str]:
    return _int_columns("k", sym.box.n) + _int_columns("j", sym.grid.n) + ["re", "im"]


def symbol_to_csv(sym: SampledSymbol) -> str:
    return _csv(_symbol_columns(sym), _symbol_blocks(sym))


def expansion_to_csv(expansion: SymbolExpansion) -> str:
    """The terms' symbol CSVs in one table, behind a leading ``term`` column
    (the term's index in the expansion)."""
    def blocks():
        for idx, term in enumerate(expansion.terms):
            for ints, values in _symbol_blocks(term):
                yield np.hstack([np.full((len(values), 1), idx), ints]), values
    return _csv(["term"] + _symbol_columns(expansion.terms[0]), blocks())


def kernel_to_csv(ker: Kernel) -> str:
    """Sparse kernel rows ``k_1..k_n, l_1..l_n, re, im`` in lexicographic
    order; entries below the relative magnitude threshold are omitted."""
    box = ker.box
    peak = max(float(np.abs(ker.kappa[rows]).max()) for rows in row_blocks(box.size, box.size))
    cutoff = KERNEL_CSV_RELATIVE_THRESHOLD * max(1e-300, peak)

    def blocks():
        for rows in row_blocks(box.size, box.size):
            block = ker.kappa[rows]
            i, j = np.nonzero(np.abs(block) > cutoff)
            yield np.hstack([box.points[rows][i], box.points[j]]), block[i, j]
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
