"""Self-test of the benchmark harness (not part of the library's test suite).

    python3 bench/check_harness.py

Checks, on the smoke inputs:
  - every workload runs once and passes its reference check;
  - every metric BENCHMARK.json names is printed, with its unit, by the
    untraced and the traced run, and nothing else is;
  - the traced run reads runner.useful_integration_ratio 0.5 on
    holonomy-export (each point integrated twice) and 1.0 on the others;
  - the tracer restores every attribute it wrapped, and a layer whose
    targets are gone reads NaN, not zero;
  - a reference perturbed beyond 1e-12 is counted as a failed point, in a
    sweep CSV and in a trajectory table, and one perturbed below it is not.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(ok, what):
    if not ok:
        raise SystemExit(f"FAILED: {what}")
    print(f"ok: {what}")


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_metrics_and_smoke():
    every = bench("--workload", "all", "--smoke")["workloads"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    check(set(every) == names, "--workload all runs every workload in BENCHMARK.json")
    for name, result in every.items():
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{name}: smoke run matches its reference")
        check(printed(result) == run.END_TO_END,
              f"{name}: end-to-end metrics and units match BENCHMARK.json")
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{name}: end-to-end metrics are positive")
    for name, ratio in (("holonomy-export", 0.5), ("random-sweep", 1.0),
                        ("check-gauge", 1.0)):
        traced = bench("--workload", name, "--smoke", "--trace", "1")
        check(traced["correct"], f"{name}: traced smoke run matches its reference")
        check(printed(traced) == run.PER_LAYER,
              f"{name}: per-layer metrics and units match BENCHMARK.json")
        got = traced["metrics"]["runner.useful_integration_ratio"]["value"]
        check(got == ratio, f"{name}: useful_integration_ratio {got} == {ratio}")


def check_wrappers_restored():
    modules = spans.library_modules()
    runner, generators = modules.runner, modules.generators
    tracer = spans.Tracer(modules)
    with tracer:
        patched = list(tracer._patches)
        check(not tracer.missing, "every trace target exists in this library")
        check(all(getattr(o, a) is not orig for o, a, _, orig in patched),
              f"{len(patched)} attributes wrapped while tracing")
        ctx = runner.random_context(7, 1.0, 0.1)
        runner.run_point(ctx, 0.01)
        lab = generators.ApproximateGenerator(ctx.family, ctx.dissipator, ctx.tensor,
                                              1.0, 0.01)
        lab(0.5)
    layers = tracer.metrics(1.0)
    check(layers["linalg.expm_calls"] == 20 and layers["runner.points"] == 1,
          "traced counts: 2 integrations x 10 steps, one point")
    check(layers["spectral.geometric_term_calls"] == 1,
          "lab-frame generator traced through its geometric term")
    check(all((vars(o).get(a) is orig) if own else (a not in vars(o))
              for o, a, own, orig in patched),
          "every wrapped attribute is the original after the traced run")

    # a library without the propagation module's targets
    gone = types.SimpleNamespace(**vars(modules))
    gone.propagation = types.ModuleType("adiabat.propagation")
    tracer = spans.Tracer(gone)
    with tracer:
        pass
    layers = tracer.metrics(1.0)
    check("adiabat.propagation.matrix_exponential" in tracer.missing,
          "a vanished target is listed as missing")
    check(all(math.isnan(layers[name]) for name in
              ("linalg.expm_s", "linalg.expm_calls", "linalg.expm_matrices")),
          "metrics of a layer with no target left read NaN")
    check(layers["linalg.sandwich_calls"] == 0,
          "a wrapped layer that is never called reads zero")


def _perturb_sweep(path, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index("end_hs_error")
    cells[col] = f"{float(cells[col]) + delta:.17g}"
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def measure_smoke(name, reference_root):
    """One smoke run of workload ``name`` against ``reference_root``."""
    result, _ = run.measure(run.Harness(ROOT), workloads.WORKLOADS[name], 7, 0,
                            0, True, reference_root)
    return result


def check_perturbed_reference():
    tmp = os.path.join(ROOT, ".bench_work", f"check-harness-{os.getpid()}")
    try:
        for delta, expect in ((1e-9, 1), (1e-14, 0)):
            root = os.path.join(tmp, f"ref-{delta:g}")
            shutil.copytree(reference.REFERENCE_ROOT, root)
            _perturb_sweep(os.path.join(root, "random-sweep-seed7-smoke", "sweep.csv"),
                           delta)
            res = measure_smoke("random-sweep", root)
            check(res["failed"] == expect and res["correct"] == (expect == 0),
                  f"sweep value moved by {delta:g}: {res['failed']} failed point(s)")
            if expect:
                rate = res["metrics"]["pass_rate"]["value"]
                check(rate == 1 - expect / res["attempted"], f"pass_rate {rate:.4f}")

            npz = os.path.join(root, "holonomy-export-smoke", reference.TRAJECTORIES)
            with np.load(npz) as z:
                tables = {k: z[k] for k in z.files}
            name = sorted(k for k in tables if k != "header")[0]
            tables[name][3, 5] += delta
            np.savez_compressed(npz, **tables)
            res = measure_smoke("holonomy-export", root)
            check(res["failed"] == expect,
                  f"trajectory value moved by {delta:g}: {res['failed']} failed point(s)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    check_wrappers_restored()
    check_perturbed_reference()
    check_metrics_and_smoke()
    print("harness checks passed")
