"""The benchmark traces pdz from outside the package, by name: every function
``perfbench/tracer.py`` wraps, and the kappa cache slot it reads, must stay
where it looks, or the traced run and ``perfbench/run.py --selftest`` break."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from pdz import constant_symbol, solve_elliptic

import helpers

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_its_layer():
    for layer, names in _tracer().LAYERS.items():
        module = importlib.import_module(f"pdz.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pdz.{layer}.{name}"


def test_sampled_symbol_keeps_the_kappa_slot():
    # the tracer's kappa wrapper counts fills by reading _kappa before the call
    box, grid = helpers.box_and_grid(1, 2)
    sym = constant_symbol(box, grid)
    assert sym._kappa is None
    sym.kappa()
    assert sym._kappa is not None


def test_traced_solver_arguments_stay_in_place():
    # the solve span reads g as the third positional argument and tol by keyword
    params = list(inspect.signature(solve_elliptic).parameters)
    assert params[:4] == ["sym", "mu", "g", "order"]
    assert {"max_iter", "tol", "s_values"} <= set(params)
