"""pdz benchmark: CLI jobs and calculus calls, timed, traced and checked.

Run from the root of a checkout (it uses ``src/pdz`` and ``BENCHMARK.json``):

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

A run generates its inputs from ``--seed`` into a scratch directory inside
the checkout, then fills ``--seconds`` with slots, one process at a time
with BLAS/OpenMP threads capped at the core count.  Each slot runs the next
of the workload's own jobs; once per pass over them it also takes a set-up
sample (interpreter start plus ``import pdz.cli``).  Every output is checked
(``jobs.py``).  With ``--trace 0`` the last stdout line is the JSON result
holding the end-to-end metrics of BENCHMARK.json, which every workload
measures; the per-kind latencies are printed above it.  With ``--trace 1``
every job runs untraced and then under the span tracer (``tracer.py``), each
slot adds one canary (another workload's job kind at toy size, so every
kind is traced), and the result holds the per-layer metrics, named
``<job kind>.<layer metric>``.
"""

from __future__ import annotations

import os

NPROC = os.cpu_count() or 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import jobs  # noqa: E402
from tracer import layer_values  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))  # the checks use pdz's dense oracle
WORKLOADS = {
    "cli-oneshot": ["apply", "kernel", "multiplier", "export"],
    "calculus": ["compose", "adjoint", "transpose", "parametrix"],
    "cli-iterative": ["solve", "solve_hard", "diagnose"],
}
SETUP_ARGV = [sys.executable, "-c", "import pdz.cli"]
SETUP_FIRST = 3        # set-up samples before the first slot
JOB_TIMEOUT_S = 120.0


def run_process(argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
    """Run one process to its end; return (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Recorder:
    """Samples of one run: latencies (untraced and traced), peak RSS, set-up
    times, per-kind attempts and failures, and traced layer values."""

    def __init__(self):
        self.latency: dict[str, list[float]] = {}
        self.traced_latency: dict[str, list[float]] = {}
        self.rss: dict[str, list[float]] = {}
        self.setup: list[float] = []
        self.attempts: dict[str, list[int]] = {}   # kind -> [attempted, failed]
        self.layers: dict[str, list[dict]] = {}
        self.errors: list[str] = []

    def record(self, job: jobs.Job, seconds: float, rss: float, error: str | None,
               traced: bool) -> None:
        counts = self.attempts.setdefault(job.kind, [0, 0])
        counts[0] += 1
        self.rss.setdefault(job.kind, []).append(rss)
        if error is not None:
            counts[1] += 1
            self.errors.append(f"{job.kind}: {error}")
        elif not job.probe:
            target = self.traced_latency if traced else self.latency
            target.setdefault(job.kind, []).append(seconds)

    def failed(self, probes: bool) -> int:
        return sum(f for kind, (_, f) in self.attempts.items()
                   if (kind in jobs.PROBES) == probes)


def _check(job: jobs.Job) -> str | None:
    try:
        return job.check(job)
    except Exception as exc:  # an unreadable output is a failed op
        return f"check raised {type(exc).__name__}: {exc}"


def run_job(job: jobs.Job, rec: Recorder, traced: bool) -> None:
    """One job process: time it, check its output, collect its spans."""
    spans = job.out.parent / "spans.json"
    stdout = job.out.parent / "stdout.txt"
    job.out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "job.py"), str(spans) if traced else "-", *job.argv]
    wall, code, rss = run_process(argv, stdout)
    text = stdout.read_text(errors="replace")
    seconds = wall
    if code:
        error = f"exit code {code}: {text[-300:].strip()}"
    else:
        error = _check(job)
        if job.argv[0] == "calc" and error is None:  # calculus calls time themselves
            seconds = json.loads(text.splitlines()[-1])["seconds"]
    rec.record(job, seconds, rss, error, traced)
    if traced and code == 0 and not job.probe:
        for _, values in layer_values(json.loads(spans.read_text())):
            rec.layers.setdefault(job.kind, []).append(values)


def measure_setup(rec: Recorder, scratch: Path) -> None:
    wall, code, _ = run_process(SETUP_ARGV, scratch / "setup.txt")
    if code:
        raise RuntimeError(f"import pdz.cli failed: {(scratch / 'setup.txt').read_text()}")
    rec.setup.append(wall)


class Workload:
    """The generated jobs of one run: the workload's own jobs at full (or
    toy) size, and every other job kind at toy size as a canary."""

    def __init__(self, name: str, seed: int, size: str, scratch: Path):
        rng = np.random.default_rng(seed % 2**64)  # any integer seed, negative too
        self.scratch = scratch
        self.own: list[jobs.Job] = []
        self.canaries: list[jobs.Job] = []
        for kind, builder in jobs.BUILDERS.items():
            own = kind in WORKLOADS[name]
            job = builder(rng, self._dir(kind), size if own else "toy")
            (self.own if own else self.canaries).append(job)
        if name == "cli-iterative":
            self.own += [jobs.build_probe(p, rng, self._dir(p)) for p in jobs.PROBES]

    def _dir(self, kind: str) -> Path:
        path = self.scratch / kind
        path.mkdir(parents=True)
        return path

    def slot(self, i: int, rec: Recorder, trace: bool) -> None:
        batch = [self.own[i % len(self.own)]]
        if trace:
            batch.append(self.canaries[i % len(self.canaries)])
        for job in batch:
            run_job(job, rec, traced=False)
            if trace:
                run_job(job, rec, traced=True)
        if i % len(self.own) == len(self.own) - 1:
            measure_setup(rec, self.scratch)

    def run(self, rec: Recorder, seconds: float, trace: bool) -> tuple[int, float]:
        """Fill ``seconds`` with whole slots; run every job at least once."""
        for _ in range(SETUP_FIRST):
            measure_setup(rec, self.scratch)
        needed = max(len(self.own), len(self.canaries) if trace else 0)
        start = time.perf_counter()
        slots = 0
        while True:
            self.slot(slots, rec, trace)
            slots += 1
            elapsed = time.perf_counter() - start
            if slots >= needed and elapsed + elapsed / slots > seconds:
                return slots, elapsed


def _median(values: list[float]) -> tuple[float | None, int]:
    return (statistics.median(values), len(values)) if values else (None, 0)


def end_to_end(rec: Recorder, kinds: list[str]) -> dict[str, tuple[float | None, int]]:
    """The end-to-end metrics as (value, sample count).  ``cycle_s`` is one
    pass over the workload's job kinds, the sum of their median latencies.
    ``ok_frac`` is the passing share of each kind's ops, averaged over the
    kinds, so it does not depend on how many slots a run fits."""
    all_rss = [r for values in rec.rss.values() for r in values]
    ok = [1.0 - f / a for a, f in rec.attempts.values()]
    medians = [_median(rec.latency.get(kind, [])) for kind in kinds]
    return {
        "setup_s": _median(rec.setup),
        "cycle_s": (None if any(v is None for v, _ in medians) else sum(v for v, _ in medians),
                    sum(n for _, n in medians)),
        "ok_frac": (statistics.fmean(ok), sum(a for a, _ in rec.attempts.values())),
        "peak_rss_mb": (max(all_rss), len(all_rss)),
    }


def job_metrics(rec: Recorder, kinds: list[str]) -> dict[str, tuple[float | None, int]]:
    """Per-kind median latency ``<kind>_s`` and, for the symbol export, its
    median peak RSS: printed with every run, gated through ``cycle_s``."""
    out = {f"{kind}_s": _median(rec.latency.get(kind, [])) for kind in kinds}
    if "export" in kinds:
        out["export_rss_mb"] = _median(rec.rss.get("export", []))
    return out


def per_layer(rec: Recorder, names: list[str]) -> dict[str, tuple[float | None, int]]:
    """Per-layer metrics ``<kind>.<metric>``: the median over the kind's traced
    jobs; ``latency_s`` and ``rss_mb``, the kind's untraced median latency and
    peak RSS; and ``trace_overhead_s``, the traced minus the untraced median."""
    out = {}
    for name in names:
        kind, metric = name.split(".", 1)
        if metric == "latency_s":
            out[name] = _median(rec.latency.get(kind, []))
        elif metric == "rss_mb":
            out[name] = _median(rec.rss.get(kind, []))
        elif metric == "trace_overhead_s":
            plain, traced = _median(rec.latency.get(kind, [])), _median(
                rec.traced_latency.get(kind, []))
            out[name] = ((traced[0] - plain[0], traced[1]) if plain[1] and traced[1]
                         else (None, 0))
        else:
            values = rec.layers.get(kind, [])
            out[name] = _median([v.get(metric, 0) for v in values])
    return out


def tail_percentile(values: list[float]) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return f", p{p} {np.percentile(values, p):.4g}"
    return ""


def scratch_dir(prefix: str) -> Path:
    root = ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=root))


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    if not any(scratch.parent.iterdir()):
        scratch.parent.rmdir()


def run(workload_name: str, args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    kinds = WORKLOADS[workload_name]
    scratch = scratch_dir(f"{workload_name}-")
    rec = Recorder()
    try:
        workload = Workload(workload_name, args.seed, args.size, scratch)
        slots, elapsed = workload.run(rec, args.seconds, bool(args.trace))
    finally:
        remove_scratch(scratch)

    metrics = per_layer(rec, list(units)) if args.trace else end_to_end(rec, kinds)
    print(f"workload {workload_name} seed {args.seed}: {slots} slots in {elapsed:.1f} s, "
          f"nproc {NPROC}, numpy {np.__version__}")
    shown = metrics if args.trace else {**job_metrics(rec, kinds), **metrics}
    for name, (value, count) in shown.items():
        unit = units.get(name, "MB" if name.endswith("_mb") else "s")
        text = "missing" if value is None else f"{value:.6g}"
        tail = "" if args.trace else tail_percentile(rec.latency.get(name[:-2], []))
        print(f"  {name:44s} {text:>12s} {unit:6s} (n={count}{tail})")
    attempted = sum(a for a, _ in rec.attempts.values())
    failed, probe_failed = rec.failed(probes=False), rec.failed(probes=True)
    print(f"  failed_frac {failed + probe_failed}/{attempted} = "
          f"{(failed + probe_failed) / attempted:.4g} ({probe_failed} from the known-failure "
          f"probes {', '.join(jobs.PROBES)})")
    for line in dict.fromkeys(rec.errors):
        print(f"    {line}")
    result = {
        "correct": failed == 0 and all(metrics[n][0] is not None for n in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))


def _rewrite_values(path: Path, change) -> None:
    """Rewrite the (re, im) columns of a sequence CSV through ``change``."""
    header, *rows = path.read_text().splitlines()
    out = [header]
    for i, row in enumerate(rows):
        *ks, re, im = row.split(",")
        value = change(i, complex(float(re), float(im)))
        out.append(",".join(ks + [repr(value.real), repr(value.imag)]))
    path.write_text("\n".join(out) + "\n")


def selftest() -> int:
    """Toy slots of all three workloads, traced, pass every check; an apply
    output with one perturbed entry and a solve solution scaled by 1+1e-6
    are marked failed."""
    problems = []
    scratch = scratch_dir("selftest-")
    try:
        for name in WORKLOADS:
            rec = Recorder()
            Workload(name, 0, "toy", scratch / name).run(rec, 0, trace=True)
            probes = sum(rec.attempts[p][0] for p in jobs.PROBES if p in rec.attempts)
            print(f"selftest {name}: {sum(a for a, _ in rec.attempts.values())} ops, "
                  f"traced and untraced; {rec.failed(False)} failed, "
                  f"{rec.failed(True)} of {probes} known-failure probes failed")
            if rec.failed(False) or rec.failed(True) != probes:
                problems += rec.errors
            if (probes > 0) != (name == "cli-iterative"):
                problems.append(f"{name}: {probes} known-failure probes ran")
        workload = Workload("cli-iterative", 1, "toy", scratch / "corrupt")
        corruptions = {"apply": lambda i, v: v + 1e-6 if i == 3 else v,
                       "solve": lambda i, v: v * (1 + 1e-6)}
        for kind, change in corruptions.items():
            job = next(j for j in workload.own + workload.canaries if j.kind == kind)
            rec = Recorder()
            run_job(job, rec, traced=False)
            _rewrite_values(job.out, change)
            error = _check(job)
            print(f"selftest corrupted {kind} output: {error or 'NOT DETECTED'}")
            if rec.errors or error is None:
                problems.append(f"corrupted {kind} output not detected")
    finally:
        remove_scratch(scratch)
    for line in problems:
        print(f"selftest problem: {line}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"],
                        help="all: the three workloads one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every job at its small size")
    parser.add_argument("--selftest", action="store_true",
                        help="run the checker self-test on toy jobs, then exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pdz" / "__init__.py").is_file():
        sys.stderr.write(f"no pdz sources under {ROOT / 'src'}; run from a pdz checkout\n")
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            run(name, args)
        return 0
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
