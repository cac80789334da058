"""Span tracer for the traced benchmark run, installed from outside the package.

``install`` replaces the public functions of each ``pdz`` layer by timing
wrappers under every module name that bound them (``quantize.apply`` is
also ``pdz.cli.apply``, ``pdz.solver.apply`` and ``pdz.analysis.apply``), and
wraps ``numpy.fft.{fftn,ifftn,fft,ifft}``.  Spans ``[name, start, end,
parent, counts]`` stay in memory and are written once, when the job ends.
A span's counts are derived from its arguments and result in O(1), outside
its timed interval.
"""

from __future__ import annotations

import importlib
import json
import time

#: Traced functions per layer module; span name is ``<layer>.<function>``.
LAYERS = {
    "config": ["load_config"],
    "symbols": ["sample", "falling_derivative", "forward_difference", "ellipticity_check"],
    "quantize": ["apply", "kernel", "matrix"],
    "calculus": ["compose", "adjoint", "transpose", "parametrix", "partial_sum"],
    "solver": ["solve_elliptic", "invert_multiplier"],
    "analysis": ["lp_bound_report", "schatten_report", "kernel_decay_fit"],
    "io": ["read_sequence_csv", "sequence_to_csv", "symbol_to_csv", "kernel_to_csv"],
}
FFT_FUNCTIONS = ("fftn", "ifftn", "fft", "ifft")


def _after_sample(args, kwargs, result, _):
    return {"symbols.sample_bytes": result.samples.nbytes}  # K * X * 16


def _after_kappa(args, kwargs, result, was_empty):
    return {"symbols.kappa_fills": int(was_empty)}


def _after_symbol_csv(args, kwargs, result, _):
    sym = args[0]
    return {"io.rows_out": sym.box.size * sym.grid.size, "io.bytes_out": len(result)}


def _after_text_csv(args, kwargs, result, _):
    return {"io.bytes_out": len(result)}


def _after_solve(args, kwargs, result, _):
    tol = kwargs.get("tol", 1e-10)
    return {"solver.iterations": result.iterations,
            "solver.residual_ratio": result.residual_l2 / (tol * args[2].norm2())}


def _after_fft(args, kwargs, result, _):
    return {"numpy.fft.points": result.size}


_AFTER = {
    "symbols.sample": _after_sample,
    "io.symbol_to_csv": _after_symbol_csv,
    "io.sequence_to_csv": _after_text_csv,
    "io.kernel_to_csv": _after_text_csv,
    "solver.solve_elliptic": _after_solve,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None, before=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end
            if after:
                spans[idx][4] = after(args, kwargs, result, state)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a ``pdz`` module bound it."""
    import numpy.fft
    import pdz
    modules = [pdz] + [importlib.import_module(f"pdz.{m}") for m in ["cli"] + list(LAYERS)]
    for layer, names in LAYERS.items():
        home = importlib.import_module(f"pdz.{layer}")
        for fname in names:
            original = getattr(home, fname)
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap(name, original, _AFTER.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    symbol_cls = pdz.symbols.SampledSymbol
    symbol_cls.kappa = tracer.wrap("symbols.kappa", symbol_cls.kappa, _after_kappa,
                                   before=lambda args: args[0]._kappa is None)
    for fname in FFT_FUNCTIONS:
        setattr(numpy.fft, fname,
                tracer.wrap("numpy.fft", getattr(numpy.fft, fname), _after_fft))


def _add(out: dict, key: str, value: float) -> None:
    out[key] = out.get(key, 0) + value


def layer_values(spans: list) -> list[tuple[str, dict]]:
    """Per root span (one CLI job or one calculus call), its layer metrics:
    ``<span>_s`` is the summed self time (duration minus the time covered by
    child spans), ``<span>_calls`` the call count, plus the summed counts.
    ``traced_s`` is the root's duration, which the self times sum to."""
    child_time = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:  # parents precede their children
            child_time[parent] += end - start
            root[i] = root[parent]
    per_root: dict = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        out = per_root.setdefault(root[i], {})
        sep = "." if name == "numpy.fft" else "_"
        _add(out, f"{name}{sep}s", end - start - child_time[i])
        _add(out, f"{name}{sep}calls", 1)
        for key, value in (counts or {}).items():
            _add(out, key, value)
    result = []
    for i, out in per_root.items():
        name, start, end = spans[i][:3]
        self_total = sum(v for k, v in out.items() if k.endswith("_s") or k == "numpy.fft.s")
        if abs(self_total - (end - start)) > 1e-6 * max(1.0, end - start):
            raise ValueError(f"{name}: self times sum to {self_total}, span took {end - start}")
        out["traced_s"] = end - start
        result.append((name, out))
    return result
