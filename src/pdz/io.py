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

from .errors import ConfigError, DomainMismatchError
from .grids import LatticeBox, LatticeSequence, TorusFunction
from .quantize import Kernel, OperatorMatrix
from .symbols import SampledSymbol, row_blocks

MATRIX_MAGIC = b"PDZM"
_HEADER = struct.Struct("<4sIII")

#: Kernel CSV drops entries below this relative threshold (sparse output).
KERNEL_CSV_RELATIVE_THRESHOLD = 1e-14


def _fmt(x: float) -> str:
    return "%.17g" % x


def _int_columns(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}" for i in range(n)]


def sequence_to_csv(f: LatticeSequence) -> str:
    header = ",".join(_int_columns("k", f.box.n) + ["re", "im"])
    lines = [header]
    for point, value in zip(f.box.points, f.values):
        cols = [str(int(c)) for c in point] + [_fmt(value.real), _fmt(value.imag)]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


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


def torus_to_csv(F: TorusFunction) -> str:
    header = ",".join(_int_columns("j", F.grid.n) + ["re", "im"])
    lines = [header]
    for node, value in zip(F.grid.node_indices, F.values):
        cols = [str(int(c)) for c in node] + [_fmt(value.real), _fmt(value.imag)]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def symbol_to_csv(sym: SampledSymbol) -> str:
    header = ",".join(_int_columns("k", sym.box.n) + _int_columns("j", sym.grid.n)
                      + ["re", "im"])
    lines = [header]
    for i, point in enumerate(sym.box.points):
        kcols = [str(int(c)) for c in point]
        for j, node in enumerate(sym.grid.node_indices):
            value = sym.samples[i, j]
            lines.append(",".join(kcols + [str(int(c)) for c in node]
                                  + [_fmt(value.real), _fmt(value.imag)]))
    return "\n".join(lines) + "\n"


def kernel_to_csv(ker: Kernel) -> str:
    """Sparse kernel rows ``k_1..k_n, l_1..l_n, re, im`` in lexicographic
    order; entries below the relative magnitude threshold are omitted."""
    box = ker.box
    header = ",".join(_int_columns("k", box.n) + _int_columns("l", box.n) + ["re", "im"])
    lines = [header]
    peak = max(float(np.abs(ker.kappa[rows]).max()) for rows in row_blocks(box.size, box.size))
    cutoff = KERNEL_CSV_RELATIVE_THRESHOLD * max(1e-300, peak)
    for i, kpoint in enumerate(box.points):
        kcols = [str(int(c)) for c in kpoint]
        row = ker.kappa[i]
        for j in np.flatnonzero(np.abs(row) > cutoff):
            value = row[j]
            lines.append(",".join(kcols + [str(int(c)) for c in box.points[j]]
                                  + [_fmt(value.real), _fmt(value.imag)]))
    return "\n".join(lines) + "\n"


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
