"""Benchmark for adiabat: runs the workloads and reports their metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, tracing off
    python3 bench/run.py --workload all --smoke  # tiny inputs, one job each

Run from the root of a checkout.  A run repeats jobs of one workload (see
workloads.py) one after another for about ``--seconds``, checks
each job's outputs against the seed commit's (reference.py) and reports
its jobs' numbers.  With ``--trace 0`` it reports the end-to-end
metrics, after ten extra set-up-only launches that steady ``setup_s``.
With ``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of spans.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the versions and every job's raw numbers.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared_metrics():
    """``(end_to_end, per_layer)``: name -> unit of every metric, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[section]}
                 for section in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = declared_metrics()
SETUP_LAUNCHES = 10
RUN_LIMIT_S = 170.0     # a run must end within 180 s


class Harness:
    """Starts jobs in fresh interpreters and keeps their files under
    ``<root>/.bench_work``."""

    def __init__(self, root, deadline=None):
        self.root = root
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "ADIABAT_THREADS"}
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self._serial = itertools.count()

    @contextlib.contextmanager
    def workdir(self, name):
        path = os.path.join(self.root, ".bench_work",
                            f"{name}-{os.getpid()}-{next(self._serial)}")
        os.makedirs(path)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def job(self, wl, inputs, work, trace=False, setup_only=False):
        """Run one job; returns its numbers, ``exit`` and output dir ``out``."""
        inputs_path = os.path.join(work, "inputs.json")
        if not os.path.exists(inputs_path):
            with open(inputs_path, "w") as fh:
                json.dump(inputs, fh)
        out = os.path.join(work, f"out-{next(self._serial)}")
        cmd = [sys.executable, os.path.join(HERE, "job.py"), wl.name,
               inputs_path, work, out]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = None
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.perf_counter())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, timeout=timeout,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"{wl.name}: job timed out", file=sys.stderr)
            return {"exit": -1, "out": out, "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            return {"exit": proc.returncode or -1, "out": out, "wall_s": wall}
        res["setup_s"] = res.pop("setup_end") - t0
        res.setdefault("exit", proc.returncode)
        res.update(out=out, wall_s=wall)
        return res


def _median(values):
    return statistics.median(values) if values else float("nan")


def environment():
    """Machine and version facts recorded with every result."""
    import numpy as np

    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
        "loadavg": os.getloadavg(),
    }


def measure(harness, wl, seed, seconds, trace, smoke, reference_root):
    """One benchmark run of one workload; returns ``(result, detail)``."""
    import reference

    inputs = wl.inputs(seed, smoke)
    ref_dir = os.path.join(reference_root, wl.reference_key(inputs))
    if not os.path.isdir(ref_dir):
        raise SystemExit(f"no reference outputs for {wl.reference_key(inputs)}")
    useful = wl.useful_steps(inputs)
    detail = {"workload": wl.name, "seed": seed, "inputs": inputs,
              "seconds": seconds, "trace": trace, "env": environment(),
              "jobs": [], "setups": []}
    attempted = failed = 0
    with harness.workdir(wl.name) as work:
        def run_job(traced):
            nonlocal attempted, failed
            job = harness.job(wl, inputs, work, trace=traced)
            points, bad = reference.compare(job["out"], ref_dir)
            if job["exit"] != 0:
                bad = set(points)
            shutil.rmtree(job["out"], ignore_errors=True)
            attempted += len(points)
            failed += len(bad)
            job.update(traced=traced, failed_points=sorted(map(str, bad)))
            del job["out"]
            detail["jobs"].append(job)
            return job

        start = time.perf_counter()
        if not trace:
            for _ in range(1 if smoke else SETUP_LAUNCHES):
                detail["setups"].append(
                    harness.job(wl, inputs, work, setup_only=True).get("setup_s"))
        # stop before a job (or traced pair) that would overrun --seconds,
        # predicting its length from the last one; at least one always runs
        while True:
            jobs = [run_job(False)] + ([run_job(True)] if trace else [])
            elapsed = time.perf_counter() - start
            wall = sum(j["wall_s"] for j in jobs)
            if smoke or elapsed + wall > min(seconds, RUN_LIMIT_S):
                break

    ok = [j for j in detail["jobs"] if j["exit"] == 0 and "run_s" in j]
    plain = [j for j in ok if not j["traced"]]
    if trace:
        metrics = traced_metrics(plain, [j for j in ok if j["traced"]],
                                 failed / attempted)
    else:
        setups = [s for s in detail["setups"] if s is not None]
        # run_s is the mean over the run's three to six jobs, which on a
        # shared host varies less from run to run than their median
        busy = sum(j["run_s"] for j in plain)
        metrics = {
            "setup_s": _median(setups + [j["setup_s"] for j in plain]),
            "run_s": busy / len(plain) if plain else float("nan"),
            "steps_per_s": useful * len(plain) / busy if plain else float("nan"),
            "peak_rss_mb": _median([j["peak_rss_mb"] for j in plain]),
            "pass_rate": 1.0 - failed / attempted,
        }
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def traced_metrics(plain, traced, fail_rate):
    layers = {}
    for name in PER_LAYER:
        values = [j["layers"][name] for j in traced if name in j["layers"]]
        if values:
            # counts repeat exactly; keep them whole numbers
            layers[name] = values[0] if len(set(values)) == 1 else _median(values)
    layers["trace_overhead_s"] = (_median([j["run_s"] for j in traced])
                                  - _median([j["run_s"] for j in plain]))
    layers["fail_rate"] = fail_rate
    return layers


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one job per workload")
    args = parser.parse_args(argv)
    # a terminated run still stops and waits for the job it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "adiabat", "__init__.py")):
        print("bench: no adiabat sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    import reference

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        harness = Harness(ROOT, deadline=time.perf_counter() + RUN_LIMIT_S)
        result, detail = measure(harness, workloads.WORKLOADS[name], args.seed,
                                 args.seconds, args.trace, args.smoke,
                                 reference.REFERENCE_ROOT)
        print(json.dumps({"detail": detail}))
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:34s} {m['value']:.6g} {m['unit']}")
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
