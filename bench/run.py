"""fetalguard benchmark: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload run_synth --seed 1 --seconds 36 --trace 0

Run it from the repository root. It imports the program from ``src/``, makes
the workload's inputs from the seed, sets them up several times (``setup_s`` is
the median), then runs timed passes until the next one would end more than
``--seconds`` after the run began; set-up counts into that time.
Every operation's outputs are checked. With ``--trace 1`` untraced passes
alternate with passes that have every public function of the program wrapped,
which give the per-layer numbers.

It prints every metric by name with its unit, writes a result file (with the
environment and a SHA-256 fingerprint of the outputs) under
``bench/results/``, and ends with one JSON line holding the metrics named in
``BENCHMARK.json``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"

SCORE_PERCENTILE = 90  # a score_cli run makes at least 100 calls per model, so >= 10 lie beyond it
SETUP_SPAN = 0.5  # the set-ups are spread over this share of the run
TRACED_MIN_PAIRS = 2  # a traced run makes at least this many untraced and traced passes each
MODELS = tracing.MODELS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("run_synth", "run_files", "score_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def limit_blas_threads() -> int:
    """One client process, and BLAS runs on one thread; returns the available cores.

    With two threads a run_synth pass was at most a few percent faster but took
    1.7 times the CPU, and every matrix product waits for both cores, so
    another tenant on either core slows it. One thread keeps a pass on one core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import fetalguard from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fetalguard

    if src.resolve() not in Path(fetalguard.__file__).resolve().parents:
        raise ImportError(f"fetalguard imported from {fetalguard.__file__}, not from {src}")
    return fetalguard


def blas_threads():
    """Thread count OpenBLAS reports, if the library numpy loaded can be found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(fetalguard, cores: int) -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": cores,
        "machine": platform.machine(),
        "fetalguard": fetalguard.__version__,
    }


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """Operations, outputs and timings gathered over the passes of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.errors: list[str] = []
        self.fingerprint: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.latencies: dict[str, list[float]] = {m: [] for m in MODELS}
        self.setup_times: list[float] = []

    def set_up(self) -> None:
        if self.setup_times:
            self.workload.discard_inputs()
        os.sync()  # no disk writeback left over from earlier work
        t0 = perf_counter()
        self.workload.setup()
        self.setup_times.append(perf_counter() - t0)
        os.sync()

    def measure(self, seconds: float, setups: int, min_passes: int, tracer=None) -> tuple[list, list]:
        """Set up, then run whole passes until the next would end after ``seconds``.

        Set-up counts into the run's time. The ``setups`` timed set-ups are
        spread over the first half of the run rather than made back to back, so
        that they meet the shared machine in more than one state; each pass
        uses the latest set-up's inputs. At least ``min_passes`` are run
        however long they take. With a tracer, untraced and traced passes
        alternate, so that both see the machine in the same state, and
        ``min_passes`` counts pairs. Returns the untraced and traced pass times.
        """
        start = perf_counter()
        walls: dict[bool, list[float]] = {False: [], True: []}
        traced = False
        while True:
            while not traced and len(self.setup_times) < setups:
                due = start + seconds * SETUP_SPAN * len(self.setup_times) / setups
                if perf_counter() < due:
                    break
                self.set_up()
            gc.collect()
            if traced:
                tracer.install()
                tracer.begin_pass()
            try:
                t0 = perf_counter()
                raw = self.workload.body()
                walls[traced].append(perf_counter() - t0)
            finally:
                if traced:
                    tracer.end_pass()
                    tracer.uninstall()
            self.record(self.workload.check(raw))
            self.workload.clean(raw)
            if tracer:
                traced = not traced
                if traced:  # a pair is not complete yet
                    continue
            passes = walls[True] + walls[False]
            done = len(walls[False]) >= min_passes and len(self.setup_times) == setups
            if done and perf_counter() + statistics.median(passes) * (2 if tracer else 1) > start + seconds:
                return walls[False], walls[True]

    def record(self, outcome) -> None:
        errors = list(outcome.errors)
        for key, digest in outcome.fingerprint.items():
            if self.fingerprint.setdefault(key, digest) != digest:
                errors = [e or f"{key} differs from an earlier pass" for e in errors]
        self.attempted += len(errors)
        self.errors += [e for e in errors if e]
        for key, value in outcome.quality.items():
            self.quality.setdefault(key, value)
        for model, seconds in outcome.latencies.items():
            self.latencies[model].append(seconds)


def percentile(values, q: int) -> float:
    """Linear interpolation between order statistics, as numpy.percentile does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(run: Run, setup_times, walls) -> dict:
    """The 16 end-to-end metrics; None where the workload has none."""
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (len(run.errors) / run.attempted, "frac"),
    }
    for kind in ("test_f1", "test_auc_roc"):
        for model in MODELS:
            metrics[f"{kind}.{model}"] = (run.quality.get(f"{kind}.{model}"), "frac")
    for q in (50, SCORE_PERCENTILE):
        for model in MODELS:
            samples = [s * 1e3 for s in run.latencies[model]]
            metrics[f"score_p{q}_ms.{model}"] = (percentile(samples, q) if samples else None, "ms")
    return metrics


def score_samples(run: Run) -> dict:
    out = {}
    for model, samples in run.latencies.items():
        if samples:
            cut = percentile(samples, SCORE_PERCENTILE)
            out[f"calls.{model}"] = len(samples)
            out[f"beyond_p{SCORE_PERCENTILE}.{model}"] = sum(1 for s in samples if s > cut)
    return out


def exact_counts_problems(tracer, previous: dict | None, source: str) -> tuple[dict, list[str]]:
    """Counts of work must repeat exactly, pass to pass and run to run."""
    problems = []
    first = tracer.pass_counts[0]
    for i, counts in enumerate(tracer.pass_counts[1:], start=2):
        if counts != first:
            problems.append(f"traced pass {i} counts {dict(counts)} differ from pass 1 {dict(first)}")
    exact = {k: first[k] for k in sorted(first)}
    if previous and previous.get("source_sha256") == source:
        before = previous.get("exact_counts")
        if before is not None and before != exact:
            problems.append(f"exact counts {exact} differ from the previous run's {before}")
    return exact, problems


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, *note) in metrics.items():
        tail = f"  ({note[0]})" if note and note[0] else ""
        print(f"  {name:<36} {fmt(value):>14} {unit}{tail}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cores = limit_blas_threads()
    try:
        fetalguard = import_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    run = Run(workload)
    tracer = None
    try:
        if args.trace:
            tracer = tracing.Tracer(fetalguard.__name__)
            walls, traced_walls = run.measure(args.seconds, 1, TRACED_MIN_PAIRS, tracer)
        else:
            walls, _ = run.measure(args.seconds, workload.setup_repeats, workload.min_passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_times = run.setup_times

    e2e = end_to_end_metrics(run, setup_times, walls)
    problems = []
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source_sha256": source_sha256(),
        "environment": environment(fetalguard, cores),
        "samples": {"passes": len(walls), "setup_repeats": len(setup_times), **score_samples(run)},
        "pass_walls_s": walls,
        "setup_times_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "quality_fingerprint": dict(sorted(run.fingerprint.items())),
        "errors": run.errors[:20],
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}  operations {run.attempted}  failed {len(run.errors)}")
    print_table("end-to-end (tracing off)", e2e)

    RESULTS_DIR.mkdir(exist_ok=True)
    result_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if tracer is not None:
        layers = tracing.per_layer_metrics(tracer, walls, traced_walls)
        try:
            previous = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # no earlier traced run of this seed, or a torn file
            previous = None
        exact, problems = exact_counts_problems(tracer, previous, result["source_sha256"])
        sanity = tracing.sanity_checks(args.workload, layers)
        result.update(
            per_layer={k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in layers.items()},
            exact_counts=exact,
            sanity=sanity,
            traced_passes=len(traced_walls),
            waiting="single-threaded, no queues: no operation waits, so no wait metric is reported",
        )
        tracer.write_spans(RESULTS_DIR / f"{args.workload}-seed{args.seed}.spans.csv")
        print_table(f"per layer (traced, {len(traced_walls)} passes)", layers)
        for check in sanity:
            print(f"  sanity {'ok  ' if check['ok'] else 'MISS'} {check['name']}: {check['detail']}")
        chosen, source = spec["per_layer"], layers
    else:
        chosen, source = spec["end_to_end"], e2e
    for problem in problems:
        print(f"problem: {problem}")
    for error in run.errors[:5]:
        print(f"failed: {error}")

    correct = not run.errors and not problems
    result.update(correct=correct, attempted=run.attempted, failed=len(run.errors), problems=problems)
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
