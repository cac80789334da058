"""One benchmark job process.

    job.py <spans.json|-> cli <pdz CLI arguments...>
    job.py <spans.json|-> calc <spec.json>

``cli`` runs ``pdz.cli.main`` exactly as the ``pdz`` console script does.
``calc`` loads the pre-sampled symbols named in the spec, times the spec's
calculus call ``repeats`` times in this process, saves the result samples
and prints ``{"seconds": <median>}``.  With a spans path the job runs
traced (see ``tracer.py``) and writes its spans there when it ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np


def _calc(spec_path: str) -> int:
    import pdz.calculus as calculus
    from pdz import LatticeBox, SampledSymbol, SymbolClassParams, SymbolExpansion
    with open(spec_path) as fh:
        spec = json.load(fh)
    box = LatticeBox(spec["n"], spec["N"])
    grid = box.matched_grid()
    args = [SampledSymbol(box, grid, np.load(p)) for p in spec["inputs"]]
    if spec["op"] == "parametrix":
        mu = spec["mu"]
        leading = args[0].with_samples(args[0].samples, params=SymbolClassParams(mu))
        args = [SymbolExpansion([leading], [mu]), mu]
    fn = getattr(calculus, spec["op"])
    seconds = []
    for _ in range(spec["repeats"]):
        start = time.perf_counter()
        result = fn(*args, spec["order"])
        seconds.append(time.perf_counter() - start)
    terms = result.terms if spec["op"] == "parametrix" else [result]
    np.save(spec["out"], np.stack([t.samples for t in terms]))
    print(json.dumps({"seconds": statistics.median(seconds)}))
    return 0


def main(argv: list[str]) -> int:
    spans_path, mode, *rest = argv
    tracer = None
    if spans_path != "-":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    try:
        if mode == "calc":
            return _calc(rest[0])
        import pdz.cli
        entry = pdz.cli.main if tracer is None else tracer.wrap("cli.self", pdz.cli.main)
        return entry(rest)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
