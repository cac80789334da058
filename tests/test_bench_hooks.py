"""The benchmark traces pdz from outside the package, by name: every function
``perfbench/tracer.py`` wraps, and the kappa cache slot it reads, must stay
where it looks, or the traced run and ``perfbench/run.py --selftest`` break.
And the symbols its jobs write must keep the separated form they are timed on."""

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pdz import LatticeBox, constant_symbol, sample, solve_elliptic
from pdz.config import build_symbol

import helpers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _load(name: str):
    """``perfbench/<name>.py`` as a module, registered so its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("tracer")


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


@pytest.mark.parametrize("kind", sorted(_load("jobs").BUILDERS))
def test_bench_job_symbols_compile_with_a_separated_form(tmp_path, kind):
    # a compiler change that loses the form would send the bench back to the
    # dense passes unnoticed; calculus jobs hand pdz arrays and write no job.json
    _load("jobs").BUILDERS[kind](np.random.default_rng(0), tmp_path, "toy")
    path = tmp_path / "job.json"
    if not path.exists():
        return
    job = json.loads(path.read_text())
    for entry in job["symbols"]:
        assert entry["kind"] in ("expression", "builtin")
        assert build_symbol(entry, job["box"]["n"]).separated is not None, entry


@pytest.mark.parametrize("kind", sorted(_load("jobs").BUILDERS))
def test_bench_job_symbols_yield_their_blocks_from_the_factors(tmp_path, kind):
    # with one evaluation per separated symbol, no pass the jobs time
    # (ellipticity, hs, trace, calculus, csv) reaches the fused evaluator
    _load("jobs").BUILDERS[kind](np.random.default_rng(0), tmp_path, "toy")
    path = tmp_path / "job.json"
    if not path.exists():
        return
    job = json.loads(path.read_text())
    box = LatticeBox(job["box"]["n"], job["box"]["N"])
    grid = box.matched_grid()
    for entry in job["symbols"]:
        definition = build_symbol(entry, box.n)

        def unreachable(k, x):
            raise AssertionError(f"fused evaluator of {entry} called")

        sym = sample(dataclasses.replace(definition, evaluator=unreachable), box, grid)
        want = np.broadcast_to(
            definition.evaluator(box.points[:, None, :], grid.nodes[None, :, :]),
            (box.size, grid.size))
        for rows, block in sym.blocks():
            np.testing.assert_allclose(block, want[rows], rtol=1e-12, atol=1e-12)
