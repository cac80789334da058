"""Seeded job inputs and the independent checks of their outputs.

Every symbol the benchmark hands to ``pdz`` is a trigonometric polynomial
in x with lattice-dependent coefficients,

    sigma(k, x) = sum_t c_t(k) e^{2 pi i m_t . x},

written once as a pdz expression (or a builtin) for the program and kept
here as its term list.  On the cyclic box the operator of one term is a
weighted shift, (Op sigma) f(k) = sum_t c_t(k) f(k + m_t), and its row
transform is kappa(k, -m_t) = c_t(k); the checks use these closed forms,
the defining quadrature sum, and the dense oracle (``matrix``,
``symbol_from_operator``) for the calculus, never the FFT path under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (n, N) per job kind; "toy" keeps every job well under a second.
SIZES = {
    "full": {"apply": (2, 32), "kernel": (2, 32), "multiplier": (2, 32), "export": (2, 12),
             "calc": (3, 4), "solve": (1, 1024), "solve_hard": (1, 256), "diagnose": (1, 256)},
    "toy": {"apply": (2, 4), "kernel": (2, 4), "multiplier": (2, 4), "export": (2, 3),
            "calc": (3, 2), "solve": (1, 64), "solve_hard": (1, 32), "diagnose": (1, 8)},
}
CALC_ORDER = 3
# toy calculus calls take milliseconds: repeat them for a steady median
CALC_REPEATS = {"full": 1, "toy": 5}
SOLVE_TOL = 1e-10
RESIDUAL_RTOL = 10 * SOLVE_TOL   # recomputed residual / |g| accepted for every solve
# Known solver defects (diverging refinement; overflow reported as exit 0).
PROBES = {"probe_diverge": (256, 3), "probe_overflow": (64, 5)}


@dataclass
class Term:
    coef: float
    k: str            # coefficient in k_1..k_n and abs_k (pdz and Python syntax)
    m: tuple          # x-frequency of the term


@dataclass
class Job:
    kind: str
    argv: list                    # job.py arguments after the spans path
    out: Path
    check: object                 # check(job) -> error message, or None when correct
    data: dict = field(default_factory=dict)
    probe: bool = False           # a known failure: counted, never timed


def box_points(n: int, N: int) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(-N, N + 1)] * n, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def grid_nodes(n: int, N: int) -> np.ndarray:
    M = 2 * N + 1
    axes = np.meshgrid(*[np.arange(M) / M] * n, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def coefficient(term: Term, points: np.ndarray) -> np.ndarray:
    k = points.astype(float)
    env = {f"k_{i + 1}": k[:, i] for i in range(k.shape[1])}
    env["abs_k"] = np.sqrt((k**2).sum(axis=1))
    value = eval(term.k, {"__builtins__": {}}, env)  # noqa: S307 - our own strings
    return term.coef * np.broadcast_to(np.asarray(value, dtype=complex), len(points))


def sample_terms(terms, n: int, N: int) -> np.ndarray:
    points, nodes = box_points(n, N), grid_nodes(n, N)
    out = np.zeros((len(points), len(nodes)), dtype=complex)
    for t in terms:
        out += np.outer(coefficient(t, points), np.exp(2j * np.pi * nodes @ np.array(t.m)))
    return out


def apply_terms(terms, n: int, N: int, f: np.ndarray) -> np.ndarray:
    """(Op sigma) f(k) = sum_t c_t(k) f(k + m_t), cyclic on the box."""
    points = box_points(n, N)
    shaped = f.reshape((2 * N + 1,) * n)
    out = np.zeros(len(points), dtype=complex)
    for t in terms:
        shifted = np.roll(shaped, [-c for c in t.m], axis=tuple(range(n)))
        out += coefficient(t, points) * shifted.ravel()
    return out


def num(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


# --------------------------------------------------------------------------
# files


def write_sequence(path: Path, points: np.ndarray, values: np.ndarray) -> None:
    n = points.shape[1]
    lines = [",".join([f"k_{i + 1}" for i in range(n)] + ["re", "im"])]
    for p, v in zip(points.tolist(), values.tolist()):
        lines.append(",".join([str(c) for c in p] + [repr(float(v.real)), repr(float(v.imag))]))
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path) -> np.ndarray:
    """Numeric body of a pdz CSV as a float array, one row per line."""
    header, _, body = Path(path).read_text().partition("\n")
    cols = header.count(",") + 1
    return np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, cols)


def read_values(path: Path, points: np.ndarray) -> np.ndarray:
    rows = read_csv(path)
    n = points.shape[1]
    if rows.shape[0] != len(points) or not np.array_equal(rows[:, :n], points):
        raise ValueError(f"{path.name}: rows do not list the box points in order")
    return rows[:, n] + 1j * rows[:, n + 1]


def random_values(rng, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def write_config(path: Path, n: int, N: int, symbols: list, section: str, params: dict,
                 tol: float | None = None) -> None:
    cfg = {"box": {"n": n, "N": N}, "symbols": symbols, section: params}
    if tol is not None:
        cfg["tol"] = tol
    path.write_text(json.dumps(cfg, indent=1))


def expression(name: str, text: str, mu: float = 0.0) -> dict:
    return {"name": name, "kind": "expression", "params": {"expr": text, "mu": mu}}


# --------------------------------------------------------------------------
# checks


def _close(got, want, rtol: float) -> str | None:
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    return None if err <= rtol * scale else f"max error {err:.3e} (scale {scale:.3e})"


def _check_apply(job: Job) -> str | None:
    d = job.data
    n, N, terms, f = d["n"], d["N"], d["terms"], d["f"]
    got = read_values(job.out, d["points"])
    bad = _close(got, apply_terms(terms, n, N, f), 1e-10)
    if bad:
        return "apply differs from the weighted-shift realization: " + bad
    # spot rows against the defining sum (1/M^n) sum_j e^{2 pi i k.x_j} sigma(k, x_j) F(x_j)
    M = 2 * N + 1
    lat = np.arange(-N, N + 1)
    E = np.exp(-2j * np.pi * np.outer(np.arange(M) / M, lat))
    F = f.reshape((M,) * n)
    for axis in range(n):
        F = np.moveaxis(np.tensordot(E, F, axes=([1], [axis])), 0, axis)
    nodes = grid_nodes(n, N)
    for i in d["spot_rows"]:
        k = d["points"][i:i + 1]
        row = sum(coefficient(t, k)[0] * np.exp(2j * np.pi * nodes @ np.array(t.m))
                  for t in terms)
        want = np.mean(np.exp(2j * np.pi * nodes @ k[0]) * row * F.ravel())
        if abs(got[i] - want) > 1e-9 * max(1.0, abs(want)):
            return f"row {k[0].tolist()}: {got[i]} != quadrature sum {want}"
    return None


def _check_kernel(job: Job) -> str | None:
    d = job.data
    n, N, points = d["n"], d["N"], d["points"]
    rows = read_csv(job.out)
    M = 2 * N + 1
    index = lambda pts: np.ravel_multi_index(tuple(((pts + N) % M).T.astype(int)), (M,) * n)
    kidx, lidx = index(rows[:, :n]), index(rows[:, n:2 * n])
    got = rows[:, 2 * n] + 1j * rows[:, 2 * n + 1]
    band = {}
    for t in d["terms"]:
        l = int(index(-np.array([t.m]))[0])
        band[l] = band.get(l, 0) + coefficient(t, points)
    cutoff = 1e-14 * max(float(np.abs(c).max()) for c in band.values())
    want_rows = 0
    for l, c in band.items():
        keep = np.abs(c) > cutoff
        want_rows += int(keep.sum())
        sel = lidx == l
        if not np.array_equal(np.sort(kidx[sel]), np.flatnonzero(keep)):
            return f"kernel band l={l}: wrong set of rows"
        bad = _close(got[sel], c[kidx[sel]], 1e-10)
        if bad:
            return f"kernel band l={l}: " + bad
    if len(rows) != want_rows:
        return f"kernel has {len(rows)} rows, expected {want_rows}"
    return None


def _check_solve(job: Job) -> str | None:
    d = job.data
    g = d["g"]
    f = read_values(job.out, d["points"])
    with np.errstate(over="ignore", invalid="ignore"):  # diverged solutions overflow
        r = np.linalg.norm(g - apply_terms(d["terms"], d["n"], d["N"], f))
    limit = RESIDUAL_RTOL * np.linalg.norm(g)
    return None if r <= limit else f"residual {r:.3e} exceeds {RESIDUAL_RTOL:g} * |g| = {limit:.3e}"


def _check_export(job: Job) -> str | None:
    from pdz import LatticeBox, OperatorMatrix, SampledSymbol, matrix, symbol_from_operator
    d = job.data
    n, N = d["n"], d["N"]
    box = LatticeBox(n, N)
    grid = box.matched_grid()
    rows = read_csv(job.out)
    if len(rows) != box.size * grid.size:
        return f"symbol CSV has {len(rows)} rows, expected {box.size * grid.size}"
    got = (rows[:, 2 * n] + 1j * rows[:, 2 * n + 1]).reshape(box.size, grid.size)
    left, right = (SampledSymbol(box, grid, sample_terms(d[s], n, N)) for s in ("left", "right"))
    product = OperatorMatrix(box, matrix(left).values @ matrix(right).values)
    bad = _close(got, symbol_from_operator(product, grid).samples, 1e-9)
    return None if bad is None else "compose export differs from the dense product: " + bad


def _check_diagnose(job: Job) -> str | None:
    d = job.data
    text = Path(job.out).read_text()
    if "FAIL" in text:
        return "diagnostics report a FAIL flag"
    for section in ("schatten_p=1", "schatten_p=2", "kernel_decay_nt=3", "lp_bound_p=2"):
        if section + ":" not in text:
            return f"diagnostics lack section {section}"
    values = dict(line.strip().split(": ", 1) for line in text.splitlines()
                  if line.startswith("  ") and not line.startswith("   ") and ": " in line)
    coeffs = [coefficient(t, d["points"]) for t in d["terms"]]
    hs = math.sqrt(sum(float(np.sum(np.abs(c) ** 2)) for c in coeffs))
    tr = sum(c.sum() for t, c in zip(d["terms"], coeffs) if not any(t.m))
    if abs(float(values["hs_norm"]) - hs) > 1e-9 * hs:
        return f"hs_norm {values['hs_norm']} != {hs!r}"
    got_tr = complex(values["trace"].replace("i", "j"))
    if abs(got_tr - tr) > 1e-9 * max(1.0, abs(tr)):
        return f"trace {values['trace']} != {tr!r}"
    return None


# --------------------------------------------------------------------------
# job builders: one per kind, each writing its own inputs under ``root``


def _cli_job(kind: str, root: Path, argv: list, check, **data) -> Job:
    out = root / "out.txt"
    return Job(kind, ["cli", *argv, "--config", str(root / "job.json"), "--out", str(out)],
               out, check, data=data)


def build_apply(rng, root: Path, size: str) -> Job:
    n, N = SIZES[size]["apply"]
    a, b = num(rng, 0.5, 1.5), num(rng, 0.5, 1.5)
    terms = [Term(a, "1+abs_k", (1, 0)), Term(b / 2, "1", (0, 1)), Term(b / 2, "1", (0, -1))]
    sym = expression("s", f"{a!r}*exp(2*pi*i*x_1)*(1+abs_k) + {b!r}*cos(2*pi*x_2)")
    points = box_points(n, N)
    f = random_values(rng, len(points))
    write_sequence(root / "f.csv", points, f)
    write_config(root / "job.json", n, N, [sym], "apply", {"symbol": "s", "input": "f.csv"})
    spot = rng.choice(len(points), 4, replace=False).tolist()
    return _cli_job("apply", root, ["apply"], _check_apply,
                    n=n, N=N, terms=terms, f=f, points=points, spot_rows=spot)


def build_kernel(rng, root: Path, size: str) -> Job:
    """A few-band symbol: three kernel bands, one of them vanishing at k_2 = 0."""
    n, N = SIZES[size]["kernel"]
    a, b, c = num(rng, 0.5, 1.5), num(rng, 0.5, 1.5), num(rng, 0.1, 0.5)
    terms = [Term(a, "1+abs_k", (0, 0)), Term(b, "1", (1, 0)), Term(c, "k_2", (0, -1))]
    sym = expression("s", f"{a!r}*(1+abs_k) + {b!r}*exp(2*pi*i*x_1)"
                          f" + {c!r}*k_2*exp(-2*pi*i*x_2)")
    write_config(root / "job.json", n, N, [sym], "kernel", {"symbol": "s"})
    return _cli_job("kernel", root, ["kernel"], _check_kernel,
                    n=n, N=N, terms=terms, points=box_points(n, N))


def _solve_job(kind, rng, root, n, N, symbols, terms, params) -> Job:
    points = box_points(n, N)
    g = random_values(rng, len(points))
    write_sequence(root / "g.csv", points, g)
    write_config(root / "job.json", n, N, symbols, "solve",
                 dict(symbol="s", input="g.csv", **params), tol=SOLVE_TOL)
    return _cli_job(kind, root, ["solve"], _check_solve,
                    n=n, N=N, terms=terms, g=g, points=points)


def build_multiplier(rng, root: Path, size: str) -> Job:
    """A lattice-constant symbol, so ``method: auto`` divides in frequency."""
    n, N = SIZES[size]["multiplier"]
    a, b, c = num(rng, 2.8, 3.2), num(rng, 0.8, 1.0), num(rng, 0.8, 1.0)
    terms = [Term(a, "1", (0, 0)), Term(b / 2, "1", (1, 0)), Term(b / 2, "1", (-1, 0)),
             Term(c / 2, "1", (0, 1)), Term(c / 2, "1", (0, -1))]
    sym = expression("s", f"{a!r} + {b!r}*cos(2*pi*x_1) + {c!r}*cos(2*pi*x_2)")
    return _solve_job("multiplier", rng, root, n, N, [sym], terms, {"method": "auto"})


def _elliptic_solve(kind, rng, root: Path, N: int, c: float, order: int) -> Job:
    """c + k_1^2 + e^{2 pi i x_1} in one dimension, solved iteratively."""
    terms = [Term(1.0, f"{c!r}+k_1**2", (0,)), Term(1.0, "1", (1,))]
    symbols = [expression("s", f"{c!r} + k_1**2 + exp(2*pi*i*x_1)", mu=2.0)]
    params = {"method": "auto", "mu": 2.0, "order": order, "max_iter": 60}
    return _solve_job(kind, rng, root, 1, N, symbols, terms, params)


def build_solve(rng, root: Path, size: str) -> Job:
    return _elliptic_solve("solve", rng, root, SIZES[size]["solve"][1], 1.5, 2)


def build_solve_hard(rng, root: Path, size: str) -> Job:
    return _elliptic_solve("solve_hard", rng, root, SIZES[size]["solve_hard"][1], 1.0, 1)


def build_probe(name: str, rng, root: Path) -> Job:
    N, order = PROBES[name]
    job = _elliptic_solve(name, rng, root, N, 1.0, order)
    job.probe = True
    return job


def build_export(rng, root: Path, size: str) -> Job:
    """forward_diff o an elliptic symbol: the left factor has nonnegative
    x-frequencies of degree 1, so the order-3 expansion is exact."""
    n, N = SIZES[size]["export"]
    a, b, c = num(rng, 0.5, 1.5), num(rng, 0.2, 0.4), num(rng, 0.2, 0.4)
    left = [Term(1.0, "1", (1, 0)), Term(-1.0, "1", (0, 0))]
    right = [Term(a, "1+k_1**2+k_2**2", (0, 0)), Term(b / 2, "1", (1, 0)),
             Term(b / 2, "1", (-1, 0)), Term(c, "1", (0, 1))]
    symbols = [{"name": "d", "kind": "builtin", "params": {"builtin": "forward_diff", "j": 1}},
               expression("e", f"{a!r}*(1+k_1**2+k_2**2) + {b!r}*cos(2*pi*x_1)"
                               f" + {c!r}*exp(2*pi*i*x_2)", mu=2.0)]
    write_config(root / "job.json", n, N, symbols, "compose",
                 {"left": "d", "right": "e", "order": CALC_ORDER})
    return _cli_job("export", root, ["compose"], _check_export, n=n, N=N, left=left, right=right)


def build_diagnose(rng, root: Path, size: str) -> Job:
    n, N = SIZES[size]["diagnose"]
    a, b = num(rng, 1.0, 2.0), num(rng, 0.5, 1.0)
    terms = [Term(a, "1", (0,)), Term(b, "1/(1+k_1**2)", (1,))]
    sym = expression("s", f"{a!r} + {b!r}*exp(2*pi*i*x_1)/(1+k_1**2)")
    write_config(root / "job.json", n, N, [sym], "diagnose",
                 {"symbol": "s", "p_values": [1.0, 2.0], "n_t": [1, 2, 3]})
    argv = ["diagnose", "--hs", "--trace", "--lp", "--schatten", "--decay"]
    return _cli_job("diagnose", root, argv, _check_diagnose, terms=terms, points=box_points(n, N))


# --------------------------------------------------------------------------
# calculus ops: pre-sampled symbols in families where the expansion is exact


def _check_calc(job: Job) -> str | None:
    from pdz import LatticeBox, SampledSymbol, matrix
    d = job.data
    box = LatticeBox(d["n"], d["N"])
    grid = box.matched_grid()
    mat = lambda s: matrix(SampledSymbol(box, grid, s)).values
    inputs = [mat(np.load(p)) for p in d["inputs"]]
    terms = [mat(t) for t in np.load(job.out)]
    if job.kind == "compose":
        want, got = inputs[0] @ inputs[1], terms[0]
    elif job.kind == "adjoint":
        want, got = np.conj(inputs[0]).T, terms[0]
    elif job.kind == "transpose":
        want, got = inputs[0].T, terms[0]
    else:  # Op(B_0 + ... + B_{order-1}) Op(A) = I on this family
        want, got = np.eye(box.size), sum(terms) @ inputs[0]
    bad = _close(got, want, 1e-9)
    return None if bad is None else f"{job.kind} differs from the dense oracle: " + bad


def _calc_job(kind: str, root: Path, size: str, arrays: list) -> Job:
    n, N = SIZES[size]["calc"]
    inputs = []
    for i, arr in enumerate(arrays):
        inputs.append(str(root / f"in{i}.npy"))
        np.save(inputs[-1], arr)
    out = root / "out.npy"
    spec = {"op": kind, "n": n, "N": N, "order": CALC_ORDER, "mu": 2.0, "inputs": inputs,
            "out": str(out), "repeats": CALC_REPEATS[size]}
    (root / "spec.json").write_text(json.dumps(spec))
    return Job(kind, ["calc", str(root / "spec.json")], out, _check_calc,
               dict(n=n, N=N, inputs=inputs))


def build_compose(rng, root: Path, size: str) -> Job:
    """sigma with nonnegative x-frequencies of total degree < order, so the
    expansion is exact, composed with a dense random tau."""
    n, N = SIZES[size]["calc"]
    e = np.eye(n, dtype=int)  # e[j]: unit frequency on axis j
    sigma = [Term(num(rng, 0.5, 1.0), "1+" + "+".join(f"k_{i + 1}**2" for i in range(n)),
                  (0,) * n),
             Term(num(rng, 0.2, 0.5), "1+abs_k", tuple(e[0])),
             Term(num(rng, 0.2, 0.5), "k_2", tuple(e[1])),
             Term(num(rng, 0.1, 0.3), "1", tuple(e[0] + e[1])),
             Term(num(rng, 0.1, 0.3), "k_3", tuple(e[1] + e[2])),
             Term(num(rng, 0.05, 0.1), "1", tuple(2 * e[0]))]
    K = (2 * N + 1) ** n
    tau = random_values(rng, K * K).reshape(K, K)
    return _calc_job("compose", root, size, [sample_terms(sigma, n, N), tau])


def _one_sided(rng, size: str) -> np.ndarray:
    """w(k) times nonpositive x-frequencies of total degree < order: the
    adjoint and transpose expansions are exact."""
    n, N = SIZES[size]["calc"]
    e = np.eye(n, dtype=int)
    x_part = sample_terms([Term(num(rng, 0.5, 1.0), "1", (0,) * n),
                           Term(num(rng, 0.2, 0.5), "1", tuple(-e[0])),
                           Term(num(rng, 0.1, 0.3), "1", tuple(-e[1] - e[2]))], n, N)
    return x_part * random_values(rng, (2 * N + 1) ** n)[:, None]


def build_adjoint(rng, root: Path, size: str) -> Job:
    return _calc_job("adjoint", root, size, [_one_sided(rng, size)])


def build_transpose(rng, root: Path, size: str) -> Job:
    return _calc_job("transpose", root, size, [_one_sided(rng, size)])


def build_parametrix(rng, root: Path, size: str) -> Job:
    """A lattice-only elliptic symbol of order 2: the parametrix is its exact
    inverse."""
    n, N = SIZES[size]["calc"]
    elliptic = sample_terms([Term(num(rng, 1.0, 2.0), "1", (0,) * n),
                             Term(num(rng, 0.5, 1.0), "abs_k**2", (0,) * n)], n, N)
    return _calc_job("parametrix", root, size, [elliptic])


BUILDERS = {
    "apply": build_apply, "kernel": build_kernel, "multiplier": build_multiplier,
    "export": build_export, "compose": build_compose, "adjoint": build_adjoint,
    "transpose": build_transpose, "parametrix": build_parametrix, "solve": build_solve,
    "solve_hard": build_solve_hard, "diagnose": build_diagnose,
}
