"""Quick self-test of the benchmark at toy sizes (about 15 s).

    python3 bench/selftest.py

It runs every workload of BENCHMARK.json untraced and traced, checks that the
result names every metric of BENCHMARK.json with its unit, and checks that
each output check fails on a deliberately corrupted input. Exits 1 on the
first failure.
"""

import json
import math

import run as bench

TOY = {
    "acceptance_world": lambda w: w.AcceptanceSize(samples=256, iters=200),
    "cli_sweep": lambda w: w.CliSize(overrides={
        "spec": {"samples_per_split": 64}, "pretrain": {"max_iters": 200},
        "train": {"iters": 30}, "sweep": {"residual_ranks": [1], "seeds": [0]}}),
    "spectral_stack": lambda w: w.SpectralSize(init_width=16, init_count=2, stack_width=48,
                                               stack_count=2, steps=4),
}
# The malformed-input probes that hit faults of the program today.
KNOWN_FAULTS = ["iters_string", "lr_nan", "emx_deleted", "manifest_no_backbone"]


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def expect_check_fails(fn, *args, what):
    import checks

    try:
        fn(*args)
    except checks.CheckError:
        return
    raise SystemExit(f"selftest FAILED: the check {what} accepted a corrupted input")


def check_metrics(result, spec, name):
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in spec}, f"{name}: metric names differ from BENCHMARK.json")
    for m in spec:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{name}: unit of {m['name']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{name}: value of {m['name']}")
    expect(result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"],
           f"{name}: operation counts")
    json.dumps(result)


def corrupted_checks():
    """Each check function rejects a corrupted input."""
    import checks
    import numpy as np
    from orthoadapt.emx import read_emx, write_emx
    from orthoadapt.experiment import roc_auc

    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 8))
    expect_check_fails(checks.function_preserved, w, w + 1e-6, what="function_preserved")
    expect_check_fails(checks.identical, b"abc", b"abd", "x", what="identical")
    probs, labels = rng.uniform(size=200), rng.integers(0, 2, 200)
    checks.auc_matches(roc_auc(probs, labels), probs, labels)
    expect_check_fails(checks.auc_matches, roc_auc(probs, labels), probs, 1 - labels,
                       what="auc_matches (flipped labels)")
    falling = list(np.linspace(1.0, 0.1, 50))
    checks.trace_sane(falling, 50)
    expect_check_fails(checks.trace_sane, falling[::-1], 50, what="trace_sane (rising loss)")
    expect_check_fails(checks.trace_sane, falling[:-1] + [float("nan")], 50, what="trace_sane (nan)")
    expect_check_fails(checks.trace_sane, falling, 51, what="trace_sane (row count)")

    def f(t):
        return math.sin(1.0 + t)

    checks.directional_derivative(f, math.cos(1.0), eps=1e-5)
    expect_check_fails(checks.directional_derivative, f, 1.01 * math.cos(1.0), 1e-5,
                       what="directional_derivative (scaled gradient)")
    from workloads import SWEEP_HEADER

    row = "svd,1,0,0.9,0.8,0.7,0.6,12,12,66,"
    table = f"{SWEEP_HEADER}\n{row}\n"
    checks.sweep_table(table, SWEEP_HEADER, 1)
    expect_check_fails(checks.sweep_table, table.replace("auc_seen", "auc"), SWEEP_HEADER, 1,
                       what="sweep_table (header)")
    expect_check_fails(checks.sweep_table, table, SWEEP_HEADER, 2, what="sweep_table (rows)")
    expect_check_fails(checks.sweep_table, table.replace(",\n", ",diverged\n"), SWEEP_HEADER, 1,
                       what="sweep_table (error column)")
    path = bench.ROOT / ".bench_run" / "selftest.emx"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_emx(path, w)
    original = read_emx(path)
    checks.emx_matches(checks.parse_emx(path), original, "emx")
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    expect_check_fails(checks.emx_matches, checks.parse_emx(path), original, "emx",
                       what="emx_matches (flipped bit)")
    path.write_bytes(bytes(raw[:-8]))
    expect_check_fails(checks.parse_emx, path, what="parse_emx (truncated)")
    path.unlink()
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    s = np.geomspace(10, 0.1, 8)
    checks.singular_values(s, s, s)
    expect_check_fails(checks.singular_values, s * (1 + 1e-8), s, s, what="singular_values")
    checks.orthonormal(q, "q")
    q[0, 0] += 1e-6
    expect_check_fails(checks.orthonormal, q, "q", what="orthonormal (perturbed factor)")
    checks.loss_falls([2.0, 1.0])
    expect_check_fails(checks.loss_falls, [1.0, 2.0], what="loss_falls")
    expect_check_fails(checks.exit_code, None, {1}, "probe", what="exit_code")


def corrupted_outputs(name, workload, run):
    """The workload's own check pass reports a corrupted output."""
    run.problems.clear()
    if name == "acceptance_world":
        tag, cfg, m, report = next(c for c in workload.cells if c[0] == "svd")
        report.final_metrics["seen"]["auc"] = 1.0 - report.final_metrics["seen"]["auc"]
        dict(m.adapters())["block0.w"].split.u_r[0, 0] += 1e-12
    elif name == "cli_sweep":
        d = workload.rounds[0][0]
        trace = d / "ft_b" / "trace.csv"
        trace.write_text(trace.read_text() + "0,0,0,0,0,0\n")
        sweep = d / "sweep" / "sweep.csv"
        sweep.write_text(sweep.read_text().replace("auc_seen", "auc", 1))
    else:
        workload.stack[0].split.u_r[0, 0] += 1e-12
    workload.check()
    expect(run.problems, f"{name}: a corrupted output passed the checks")
    if name == "acceptance_world":
        expect(any("AUC" in p for p in run.problems), "AUC check missed a flipped AUC")
        expect(any("frozen u_r" in p for p in run.problems), "frozen-factor check missed")
    elif name == "cli_sweep":
        expect(any("ft_b" in p for p in run.problems), "artifact digest check missed")
        expect(any("header" in p for p in run.problems), "sweep header check missed")


def main():
    import_s = bench.import_package()
    expect(import_s is not None, "orthoadapt sources not found")
    import workloads

    corrupted_checks()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record, workload, run = bench.measure(
                name, seed=3, seconds=0, trace=trace, import_s=import_s,
                size=TOY[name](workloads))
            expect(result["correct"], f"{name}: checks failed at toy size: {run.problems}")
            check_metrics(result, metrics, f"{name} trace={trace}")
            if name == "cli_sweep":
                expect(sorted(run.failed_ops) == sorted(KNOWN_FAULTS),
                       f"cli_sweep failed {run.failed_ops}, expected the known faults")
            else:
                expect(result["failed"] == 0, f"{name}: an operation failed")
        corrupted_outputs(name, workload, run)
        print(f"selftest {name}: ok")
    print("selftest: ok")


if __name__ == "__main__":
    main()
