"""Job configuration: box size, named symbol definitions, command parameters.

Symbols come in two kinds, both compiled from the expression language.
Expression symbols accept arithmetic over k_1..k_n, x_1..x_n, the functions
sin, cos, exp, the constants i and pi, and abs_k for |k|.  Builtins are
templates in that language for the bundled operator family:

* ``shift(j)``          -- ``exp(2*pi*i*x_j)``, the translate f(k + v_j)
* ``forward_diff(j)``   -- ``exp(2*pi*i*x_j) - 1``, the first difference
* ``multiplier(expr)``  -- ``expr``, in x only
* ``weight(s)``         -- ``(1 + abs_k)**s``, declared of order s
* ``example3(a)``       -- ``2*i*sin(2*pi*x_1) + ... + 2*i*sin(2*pi*x_n) + a``

Beside its fused evaluator, an expression is compiled into a separated form
sigma(k, x) = sum_t a_t(k) b_t(x) when it has one within
:data:`SEPARATED_RANK_CAP` terms (:func:`_separate`): a subexpression that
reads only k, or only x, is one factor; sums add terms, products multiply
them out, division is by a factor that reads only k or only x, and an
integer constant power raises one term or multiplies out several (a
nonnegative one).  ``sin``, ``cos`` and ``exp`` of an argument that reads
both, division by such an argument and other powers of one have no
separated form.  The form is exact up to rounding.

Every numeric value, in the file or from a flag, is read by :func:`number`.
"""

from __future__ import annotations

import ast
import json
import operator
import sys
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


def _fold(op, *args):
    """``op(*args)`` on constants, taken in numpy float64/complex128 where
    Python's scalar arithmetic raises (``1/0``, ``10.0**400``) or leaves the
    float range (``10**400``): the result is then inf or nan, as for an array
    operand, and the finite check of the symbol's samples reports it."""
    huge = (op is operator.pow and all(type(v) is int for v in args) and args[1] > 0
            and (abs(args[0]).bit_length() - 1) * args[1] > 1100)  # past 2**1100, may run for minutes
    with np.errstate(all="ignore"):
        try:
            if not huge:
                out = op(*args)
                if type(out) is not int or abs(out) <= sys.float_info.max:
                    return out
        except (ZeroDivisionError, OverflowError):
            pass
        return op(*(np.complex128(v) if isinstance(v, complex) else np.float64(v) for v in args))


#: Most terms a separated form may have; an expression that needs more has
#: none, and its symbol takes the dense passes.
SEPARATED_RANK_CAP = 16

_BOTH = frozenset("kx")


def _node(op, parts):
    """``op`` on compiled parts (constants or ``fn(env)``): folded by
    :func:`_fold` when no part reads a variable."""
    if not any(callable(part) for part in parts):
        return _fold(op, *parts)
    # operands go straight to op, so numpy may reuse a temporary's buffer
    fns = [part if callable(part) else (lambda env, v=part: v) for part in parts]
    if len(fns) == 1:
        arg = fns[0]
        return lambda env: op(arg(env))
    left, right = fns
    return lambda env: op(left(env), right(env))


def _times(f, g):
    """The product of two factors, leaving out a literal factor 1."""
    if not callable(f) and f == 1:
        return g
    if not callable(g) and g == 1:
        return f
    return _node(operator.mul, [f, g])


def _separate(op, parts):
    """Terms ``[(a, b)]`` with ``op(*parts) = sum_t a_t b_t``, each ``a_t``
    reading only k and each ``b_t`` only x (or nothing); None when there are
    none, or more than :data:`SEPARATED_RANK_CAP`.  A part is
    ``(value, reads, terms)`` as :func:`_compile` builds it."""
    def terms(part):
        value, reads, split = part
        return split if reads == _BOTH else [(value, 1)] if reads == {"k"} else [(1, value)]

    def product(left, right):
        if right is None or len(left) * len(right) > SEPARATED_RANK_CAP:
            return None
        return [(_times(a, c), _times(b, d)) for a, b in left for c, d in right]

    def negated(split):
        return [(_node(operator.neg, [a]), b) for a, b in split]

    base = terms(parts[0])
    if base is None:
        return None
    if op in (operator.add, operator.sub):
        right = terms(parts[1])
        if right is None:
            return None
        out = base + (negated(right) if op is operator.sub else right)
    elif op is operator.mul:
        out = product(base, terms(parts[1]))
    elif op is operator.neg:
        out = negated(base)
    elif op is operator.pos:
        out = base
    elif op is operator.truediv:  # only by a factor that reads k alone, or x alone
        value, reads, _ = parts[1]
        if reads == _BOTH:
            return None
        out = [(a, _node(op, [b, value])) if reads == {"x"} else (_node(op, [a, value]), b)
               for a, b in base]
    elif op is operator.pow:  # integer constant powers only: (ab)^p = a^p b^p
        value, reads, _ = parts[1]
        if reads or isinstance(value, complex) or not float(value).is_integer():
            return None
        if len(base) == 1:
            out = [(_node(op, [base[0][0], value]), _node(op, [base[0][1], value]))]
        elif value < 0:
            return None
        else:  # multiplied out; the terms at least double each time
            out = [(1, 1)]
            for _ in range(int(value)):
                out = product(out, base)
                if out is None:
                    return None
    else:  # exp, sin, cos of an argument that reads both k and x
        return None
    return out if out is not None and len(out) <= SEPARATED_RANK_CAP else None


def _compile(text: str, n: int, allow_k: bool = True):
    """``(fn, terms)``: the fused evaluator of :func:`compile_expression`
    and the separated terms ``[(a, b)]`` of the expression (a reading only
    k, b only x, each a constant or an ``fn(env)``), or None when it has none."""
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
        """``(value, reads, terms)``: the node's value when it reads no
        variable, else ``fn(env)``; the kinds of variable ('k', 'x') it
        reads; and, when it reads both, its terms from :func:`_separate`."""
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            # type(), not isinstance(): True and False are ints, not numbers here
            if type(node.value) in (int, float):
                value = node.value if node.value <= sys.float_info.max else np.inf
                return value, frozenset(), None
            raise ConfigError(f"literal {node.value!r} not allowed in expressions")
        if isinstance(node, ast.Name):
            if node.id not in allowed:
                raise ConfigError(f"unknown name {node.id!r} in expression {text!r}")
            name = node.id
            if name in _CONSTS:
                return _CONSTS[name], frozenset(), None
            return (lambda env: env[name]), frozenset("x" if name[0] == "x" else "k"), None
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, parts = _BINOPS[type(node.op)], [build(node.left), build(node.right)]
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            op, parts = _UNARY[type(node.op)], [build(node.operand)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _FUNCS or node.keywords or len(node.args) != 1:
                raise ConfigError(f"unsupported call in expression {text!r}")
            op, parts = _FUNCS[node.func.id], [build(node.args[0])]
        else:
            raise ConfigError(f"unsupported syntax in expression {text!r}")
        reads = frozenset().union(*(part[1] for part in parts))
        return (_node(op, [part[0] for part in parts]), reads,
                _separate(op, parts) if reads == _BOTH else None)

    fn, reads, terms = build(tree)
    if reads != _BOTH:
        terms = [(fn, 1)] if reads == {"k"} else [(1, fn)]
    return (fn if callable(fn) else lambda env: fn), terms


def compile_expression(text: str, n: int, allow_k: bool = True):
    """Compile an expression into ``fn(env)`` with env mapping variable names
    to arrays; raises :class:`ConfigError` on anything outside the language.
    Subexpressions that read no variable are folded once, by :func:`_fold`."""
    return _compile(text, n, allow_k)[0]


def _env(n: int, k=None, x=None) -> dict:
    """The variables of an expression at lattice points ``k`` and torus
    points ``x`` (each (..., n), or None when not read)."""
    env = {}
    if x is not None:
        for i in range(n):
            env[f"x_{i + 1}"] = x[..., i]
    if k is not None:
        kf = np.asarray(k, dtype=float)
        for i in range(n):
            env[f"k_{i + 1}"] = kf[..., i]
        env["abs_k"] = np.sqrt((kf**2).sum(axis=-1))
    return env


def _evaluate(fn, env: dict, like: np.ndarray) -> np.ndarray:
    """``fn(env)`` (or the constant ``fn``) as a complex array broadcast to
    the shape of ``like``."""
    with np.errstate(all="ignore"):  # inf and nan are reported by the finite check
        out = fn(env) if callable(fn) else fn
    return np.asarray(out) + 0j * np.asarray(like)


def _expression_evaluator(text: str, n: int, allow_k: bool = True):
    """The evaluator ``(k, x) -> sigma`` of an expression, and its separated
    form as a list of ``(k_fn, x_fn)`` pairs (None when it has none)."""
    fn, terms = _compile(text, n, allow_k=allow_k)

    def evaluator(k, x):
        return _evaluate(fn, _env(n, k if allow_k else None, x), x[..., 0])

    def k_side(a):
        return lambda k: _evaluate(a, _env(n, k=k), np.asarray(k[..., 0], dtype=float))

    def x_side(b):
        return lambda x: _evaluate(b, _env(n, x=x), x[..., 0])

    separated = None if terms is None else [(k_side(a), x_side(b)) for a, b in terms]
    return evaluator, separated


def number(where: str, section: dict, key: str, default=float):
    """``section[key]`` as a finite number, or ``default`` when absent: an
    int where ``default`` is an int, else a float, and a list of them where
    ``default`` is a list; ``default`` = ``int`` or ``float`` makes the key
    required.  Anything else, a JSON true or false included, raises
    :class:`ConfigError` naming ``where`` and ``key``."""
    required = isinstance(default, type)
    value = section.get(key, None if required else default)
    many = isinstance(default, list)
    first = default[0] if many else default
    integer = first is int or type(first) is int
    kinds, noun = ((int,), "integer") if integer else ((int, float), "finite number")
    items = value if many else [value]
    # type(), not isinstance(): a JSON true or false is a bool, an int subclass;
    # the bound rejects nan, inf and ints too large for a float
    if not isinstance(items, list) or not all(
            type(v) in kinds and (integer or abs(v) <= sys.float_info.max) for v in items):
        raise ConfigError(f"{where}: {key!r} must be " + (
            f"a list of {noun}s" if many else f"an {noun}" if integer else f"a {noun}"))
    items = [v if integer else float(v) for v in items]
    return items if many else items[0]


def _builtin_template(where: str, params: dict, n: int) -> tuple[str, float, bool]:
    """The expression a builtin stands for, its declared order, and whether
    it may read k."""
    builtin = params.get("builtin")
    if builtin in ("shift", "forward_diff"):
        j = number(where, params, "j", 1)
        if not 1 <= j <= n:
            raise ConfigError(f"{where}: axis 'j' must be in [1, {n}], got {j}")
        return f"exp(2*pi*i*x_{j})" + (" - 1" if builtin == "forward_diff" else ""), 0.0, True
    if builtin == "multiplier":
        return params.get("expr"), 0.0, False
    if builtin == "weight":
        s = number(where, params, "s")
        return f"(1 + abs_k)**{s!r}", s, True
    if builtin == "example3":
        terms = [f"2*i*sin(2*pi*x_{j})" for j in range(1, n + 1)]
        return " + ".join(terms + [repr(number(where, params, "a"))]), 0.0, True
    raise ConfigError(f"{where}: unknown builtin {builtin!r}")


def build_symbol(entry: dict, n: int) -> SymbolDefinition:
    """Build one named SymbolDefinition from a config entry
    ``{name, kind: builtin|expression, params}``."""
    if not isinstance(entry, dict):
        raise ConfigError(f"symbol entry must be a mapping, got {type(entry).__name__}")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("symbol entry needs a nonempty 'name'")
    where = f"symbol {name!r}"
    kind = entry.get("kind")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: params must be a mapping")
    if kind == "expression":
        text, mu, allow_k = params.get("expr"), number(where, params, "mu", 0.0), True
    elif kind == "builtin":
        text, mu, allow_k = _builtin_template(where, params, n)
    else:
        raise ConfigError(f"{where}: kind must be 'builtin' or 'expression'")
    if not isinstance(text, str):
        raise ConfigError(f"{where}: needs a string 'expr'" + ("" if allow_k else " in x"))
    evaluator, separated = _expression_evaluator(text, n, allow_k)
    return SymbolDefinition(evaluator, params=SymbolClassParams(mu), name=name,
                            separated=separated)


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
    flags = {"n": "dim", "N": "box"}
    box_spec = {**box_spec, **{key: overrides[f] for key, f in flags.items() if f in overrides}}
    n, N = number("box", box_spec, "n", int), number("box", box_spec, "N", int)
    if n < 1 or N < 1:
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

    top = {**raw, **{key: overrides[key] for key in ("seed", "tol") if key in overrides}}
    params = {k: v for k, v in raw.items() if k not in ("box", "symbols", "seed", "tol")}
    return JobConfig(box=box, symbols=symbols, params=params,
                     seed=number("top level", top, "seed", 0),
                     tol=number("top level", top, "tol", 1e-10), base_dir=path.parent)
