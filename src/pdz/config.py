"""Job configuration: box size, named symbol definitions, command parameters.

Symbols come in two kinds.  Builtins cover the bundled operator family:

* ``shift(j)``          -- e^{2 pi i x_j}, the translate f(k + v_j)
* ``forward_diff(j)``   -- e^{2 pi i x_j} - 1, the first difference
* ``multiplier(expr)``  -- lattice-independent symbol from an expression in x
* ``weight(s)``         -- (1 + |k|)^s
* ``example3(a)``       -- 2i sum_j sin(2 pi x_j) + a

Expression symbols accept arithmetic over k_1..k_n, x_1..x_n, the functions
sin, cos, exp, the constants i and pi, and abs_k for |k|.
"""

from __future__ import annotations

import ast
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import LatticeBox
from .symbols import SymbolClassParams, SymbolDefinition

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTS = {"i": 1j, "pi": np.pi}


def compile_expression(text: str, n: int, allow_k: bool = True):
    """Compile an expression into ``fn(env)`` with env mapping variable names
    to arrays; raises :class:`ConfigError` on anything outside the language."""
    allowed = set(_CONSTS)
    allowed.update(f"x_{i + 1}" for i in range(n))
    if allow_k:
        allowed.add("abs_k")
        allowed.update(f"k_{i + 1}" for i in range(n))
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                value = node.value
                return lambda env: value
            raise ConfigError(f"literal {node.value!r} not allowed in expressions")
        if isinstance(node, ast.Name):
            if node.id not in allowed:
                raise ConfigError(f"unknown name {node.id!r} in expression {text!r}")
            name = node.id
            return lambda env: env[name]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            op = _UNARY[type(node.op)]
            arg = build(node.operand)
            return lambda env: op(arg(env))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _FUNCS or node.keywords or len(node.args) != 1:
                raise ConfigError(f"unsupported call in expression {text!r}")
            fn = _FUNCS[node.func.id]
            arg = build(node.args[0])
            return lambda env: fn(arg(env))
        raise ConfigError(f"unsupported syntax in expression {text!r}")

    return build(tree)


def _expression_evaluator(text: str, n: int, allow_k: bool = True):
    fn = compile_expression(text, n, allow_k=allow_k)

    def evaluator(k, x):
        env = dict(_CONSTS)
        for i in range(n):
            env[f"x_{i + 1}"] = x[..., i]
        if allow_k:
            kf = np.asarray(k, dtype=float)
            for i in range(n):
                env[f"k_{i + 1}"] = kf[..., i]
            env["abs_k"] = np.sqrt((kf**2).sum(axis=-1))
        out = fn(env)
        return np.asarray(out) + 0j * np.asarray(x[..., 0])  # broadcast to full shape

    return evaluator


def _axis_index(params: dict, n: int) -> int:
    j = params.get("j", 1)
    if not isinstance(j, int) or not 1 <= j <= n:
        raise ConfigError(f"axis j={j!r} must be an integer in [1, {n}]")
    return j - 1


def build_symbol(entry: dict, n: int) -> SymbolDefinition:
    """Build one named SymbolDefinition from a config entry
    ``{name, kind: builtin|expression, params}``."""
    if not isinstance(entry, dict):
        raise ConfigError(f"symbol entry must be a mapping, got {type(entry).__name__}")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("symbol entry needs a nonempty 'name'")
    kind = entry.get("kind")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"symbol {name!r}: params must be a mapping")

    if kind == "expression":
        text = params.get("expr")
        if not isinstance(text, str):
            raise ConfigError(f"symbol {name!r}: expression kind needs string 'expr'")
        mu = float(params.get("mu", 0.0))
        return SymbolDefinition(_expression_evaluator(text, n),
                                params=SymbolClassParams(mu), name=name)

    if kind != "builtin":
        raise ConfigError(f"symbol {name!r}: kind must be 'builtin' or 'expression'")

    builtin = params.get("builtin")
    if builtin == "shift":
        axis = _axis_index(params, n)
        return SymbolDefinition(
            lambda k, x: np.exp(2j * np.pi * x[..., axis]) + 0.0 * k[..., 0],
            params=SymbolClassParams(0.0), name=name)
    if builtin == "forward_diff":
        axis = _axis_index(params, n)
        return SymbolDefinition(
            lambda k, x: np.exp(2j * np.pi * x[..., axis]) - 1.0 + 0.0 * k[..., 0],
            params=SymbolClassParams(0.0), name=name)
    if builtin == "multiplier":
        text = params.get("expr")
        if not isinstance(text, str):
            raise ConfigError(f"symbol {name!r}: multiplier needs string 'expr' in x")
        inner = _expression_evaluator(text, n, allow_k=False)
        return SymbolDefinition(lambda k, x: inner(k, x) + 0.0 * k[..., 0],
                                params=SymbolClassParams(0.0), name=name)
    if builtin == "weight":
        s = params.get("s")
        if not isinstance(s, (int, float)):
            raise ConfigError(f"symbol {name!r}: weight needs numeric 's'")
        return SymbolDefinition(
            lambda k, x: (1.0 + np.sqrt((np.asarray(k, dtype=float)**2).sum(axis=-1)))**float(s)
            + 0.0 * x[..., 0],
            params=SymbolClassParams(float(s)), name=name)
    if builtin == "example3":
        a = params.get("a")
        if not isinstance(a, (int, float, complex)):
            raise ConfigError(f"symbol {name!r}: example3 needs numeric 'a'")

        def evaluator(k, x, a=complex(a)):
            out = np.zeros(np.broadcast_shapes(k.shape[:-1], x.shape[:-1]), dtype=complex)
            for j in range(n):
                out = out + 2j * np.sin(2 * np.pi * x[..., j])
            return out + a

        return SymbolDefinition(evaluator, params=SymbolClassParams(0.0), name=name)

    raise ConfigError(f"symbol {name!r}: unknown builtin {builtin!r}")


@dataclass
class JobConfig:
    """One batch invocation: box, named symbols, per-command parameter blocks."""

    box: LatticeBox
    symbols: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int = 0
    tol: float = 1e-10
    base_dir: Path = field(default_factory=Path)

    def symbol(self, name: str) -> SymbolDefinition:
        if name not in self.symbols:
            raise ConfigError(f"symbol {name!r} is not defined in the config "
                              f"(known: {sorted(self.symbols)})")
        return self.symbols[name]

    def section(self, command: str) -> dict:
        block = self.params.get(command, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config section {command!r} must be a mapping")
        return block

    def resolve_path(self, value: str) -> Path:
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path


def load_config(path, overrides: dict | None = None) -> JobConfig:
    """Read a JSON job file and apply flag overrides (dim, box, seed, tol)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    overrides = overrides or {}

    box_spec = raw.get("box", {})
    if not isinstance(box_spec, dict):
        raise ConfigError("'box' must be an object with fields n and N")
    n = overrides.get("dim", box_spec.get("n"))
    N = overrides.get("box", box_spec.get("N"))
    if not isinstance(n, int) or not isinstance(N, int) or n < 1 or N < 1:
        raise ConfigError(f"box needs integer fields n >= 1 and N >= 1, got n={n!r}, N={N!r}")
    box = LatticeBox(n, N)

    entries = raw.get("symbols", [])
    if not isinstance(entries, list):
        raise ConfigError("'symbols' must be a list of entries")
    symbols = {}
    for entry in entries:
        definition = build_symbol(entry, n)
        if definition.name in symbols:
            raise ConfigError(f"symbol {definition.name!r} defined twice")
        symbols[definition.name] = definition

    seed = overrides.get("seed", raw.get("seed", 0))
    tol = overrides.get("tol", raw.get("tol", 1e-10))
    if not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    params = {k: v for k, v in raw.items() if k not in ("box", "symbols", "seed", "tol")}
    return JobConfig(box=box, symbols=symbols, params=params, seed=seed,
                     tol=float(tol), base_dir=path.parent)
