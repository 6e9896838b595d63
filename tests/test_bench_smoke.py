"""The benchmark's workloads still run through the library's entry points.

``bench/run.py`` binds ``cli.main``, ``ExperimentConfig.from_dict`` and
``tasks``, ``runner.sweep``, ``cli._assert_invariants``,
``cli.write_sweep_csv`` and ``cli.gauge_check_rows``.  This test runs each
workload's smoke inputs in-process and gates the outputs against the
recorded smoke references at the benchmark's tolerance, so a change that
breaks an entry point or moves an output fails here rather than in a
benchmark run.  ``bench/`` is loaded by file path and left unchanged.
"""
import importlib.util
import pathlib

import pytest

# the submodules the workloads reach through the package, as bench/job.py has them
import adiabat
import adiabat.cli
import adiabat.runner

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
reference = load("reference")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_matches_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(workloads.DEFAULT_SEED, smoke=True)
    run = wl.prepare(adiabat, inputs, str(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    assert run(str(out)) == 0
    points, failed = reference.compare(
        str(out), str(BENCH / "reference" / wl.reference_key(inputs)))
    assert points and not failed, sorted(failed)
