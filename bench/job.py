"""One job: a single execution of one workload in a fresh interpreter.

    python3 bench/job.py WORKLOAD INPUTS.json WORKDIR OUTDIR [--setup-only] [--trace]

Set-up ends once ``adiabat`` is imported and the workload's config is
validated; the job then runs the workload, timing it with
``time.perf_counter`` (CLOCK_MONOTONIC, shared with the parent, which
measures set-up from just before it started this process).  The last line
of standard output is one JSON object; the process exits with the
workload's exit code.
"""
import time
import contextlib
import json
import os
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    workload, inputs_path, work, out = argv[:4]
    flags = set(argv[4:])
    import adiabat
    import adiabat.cli
    import adiabat.runner
    import workloads

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    run = workloads.WORKLOADS[workload].prepare(adiabat, inputs, work)
    result = {"setup_end": time.perf_counter()}
    if "--setup-only" in flags:
        print(json.dumps(result))
        return 0

    tracer = None
    if "--trace" in flags:
        import spans
        tracer = spans.Tracer(spans.library_modules())
    os.makedirs(out, exist_ok=True)
    with tracer or contextlib.nullcontext():
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = run(out)
        except Exception:
            # an uncaught library error is a failed job, not a crashed harness
            traceback.print_exc()
            code = 1
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
    result["exit"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics(result["run_s"])
        result["span_edges"] = tracer.edge_table()
        result["missing_targets"] = tracer.missing
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
