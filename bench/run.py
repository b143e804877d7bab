"""Benchmark of orthoadapt: one workload per run, closed loop, one process.

    python3 bench/run.py --workload acceptance_world --seed 0 --seconds 20 --trace 0

Run from the root of a source tree of the repository: the package is imported
from ``src/`` and scratch files go to ``.bench_run/``. The run repeats whole
rounds of the workload's operations until ``--seconds`` have passed (at least
one round), checks every output, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()
# One BLAS thread on every commit, set before NumPy loads: the figures then do
# not depend on how many cores the machine lends the run.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-ups per run; setup_s reads their median.
SETUPS = 5


class Run:
    """State of one benchmark run: recorder, operation counts, problems."""

    def __init__(self, rec, work, seconds, import_s):
        self.rec, self.root, self.work = rec, ROOT, work
        self.seconds, self.import_s = seconds, import_s
        self.attempted = 0
        self.failed = 0
        self.failed_ops = []
        self.problems = []

    @contextmanager
    def op(self, name, probe=None, **annot):
        """One operation. If it raises, it counts as failed; unless it is a
        malformed-input probe, that also makes the run incorrect."""
        self.attempted += 1
        try:
            with self.rec.span(f"bench.{name}", **annot):
                yield
        except Exception as exc:
            self.failed += 1
            self.failed_ops.append(probe or name)
            if probe is None:
                self.problems.append(f"{name} {annot} failed: {exc!r}")

    def check(self, fn, *args, **kwargs):
        import checks

        try:
            return fn(*args, **kwargs)
        except checks.CheckError as exc:
            self.problems.append(f"{getattr(fn, '__name__', fn)}: {exc}")
            return None

    def execute(self, workload):
        """Set up, run rounds until the time is up, check, report."""
        inputs = []
        for i in range(SETUPS):
            with self.rec.span("bench.setup"):
                inputs.append(workload.setup(i))
        workload.start(inputs)
        deadline = time.perf_counter() + self.seconds
        r = 0
        try:
            while r == 0 or time.perf_counter() < deadline:
                with self.rec.span("bench.round"):
                    workload.round(r)
                r += 1
        finally:
            self.rec.uninstall()
        workload.check()
        return r


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # older NumPy has no dict form of its build config
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def measure(name, seed, seconds, trace, import_s, size=None):
    """Run one workload; return (printed result, full record, workload, run)."""
    import recorder
    import workloads

    out_dir = ROOT / ".bench_run" / name
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    rec = recorder.Recorder()
    rec.install(recorder.TRACED if trace else recorder.TIMED)
    run = Run(rec, work, seconds, import_s)
    workload = workloads.WORKLOADS[name](run, seed, size)
    rounds = run.execute(workload)

    rec.save(out_dir / f"spans-seed{seed}-trace{trace}.npz")
    if trace:
        values = recorder.per_layer_metrics(rec, import_s)
        units = dict(recorder.PER_LAYER)
    else:
        values = workload.metrics()
        units = workloads.END_TO_END
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
    }
    record = {"env": environment(), "workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "rounds": rounds,
              "round_s": rec.durations(rec.ids("bench.round")).tolist(), "problems": run.problems,
              "failed_ops": run.failed_ops, "result": result}
    (out_dir / f"result-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result, record, workload, run


def import_package():
    """Import orthoadapt from the source tree; the seconds since the process
    started, or None when the tree holds no sources."""
    if not (ROOT / "src" / "orthoadapt").is_dir():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import orthoadapt  # noqa: F401
    import orthoadapt.cli  # noqa: F401

    return time.perf_counter() - PROCESS_START


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["acceptance_world", "cli_sweep", "spectral_stack"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    if import_s is None:
        print(f"error: no orthoadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, record, _, run = measure(args.workload, args.seed, args.seconds, args.trace, import_s)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
