"""The benchmark's workloads still run through the library's entry points.

``bench/run.py`` binds ``cli.main``, ``ExperimentConfig.from_dict`` and
``tasks``, ``runner.sweep``, ``cli._assert_invariants``,
``cli.write_sweep_csv`` and ``cli.gauge_check_rows``.  This test runs each
workload's smoke inputs in-process, and ``check-gauge`` also at its full
inputs, and gates the outputs against the recorded references at the
benchmark's tolerance, so a change that breaks an entry point or moves an
output fails here rather than in a benchmark run.  It also runs them under the benchmark's tracer
(``bench/spans.py``), whose per-layer metrics must come out finite: a
layer read through a name the library no longer calls reads NaN, and
``bench/run.py`` would print it as bare ``NaN``, which is not strict JSON.
Integrations must also be counted, and exponentiated matrices and steps
exactly as the smoke inputs imply: a module that bound
``matrix_exponential`` or ``propagate_piecewise_exp`` under another name at
import time would read a finite 0 there, and a stack of step generators
passed to the exponential unflattened would be counted as fewer matrices.
``bench/`` is loaded by file path and left unchanged.
"""
import importlib.util
import json
import math
import pathlib
import time

import numpy as np
import pytest

# the submodules the workloads reach through the package, as bench/job.py has them
import adiabat
import adiabat.cli
import adiabat.runner
from adiabat.propagation import Trajectory, intensity_loss

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
reference = load("reference")
spans = load("spans")

# (linalg.expm_matrices, propagation.steps) of each workload's smoke inputs
TRACED_COUNTS = {"holonomy-export": (60, 30), "random-sweep": (60, 30),
                 "check-gauge": (200, 600)}


def run_against_reference(name, smoke, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(workloads.DEFAULT_SEED, smoke=smoke)
    run = wl.prepare(adiabat, inputs, str(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    assert run(str(out)) == 0
    points, failed = reference.compare(
        str(out), str(BENCH / "reference" / wl.reference_key(inputs)))
    assert points and not failed, sorted(failed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_matches_reference(name, tmp_path):
    run_against_reference(name, True, tmp_path)


def test_export_bytes_are_per_value_formatting(tmp_path, monkeypatch):
    # every trajectory CSV of the holonomy-export smoke run, byte for byte
    # against the whole table rendered a value at a time by '%.17g'; the
    # blocks appended to each file are gathered by its path
    written = {}
    write = adiabat.cli.write_trajectory_csv

    def capture(trajectory, p_comp, path):
        written.setdefault(path, []).append((trajectory, p_comp))
        write(trajectory, p_comp, path)
    monkeypatch.setattr(adiabat.cli, "write_trajectory_csv", capture)
    run_against_reference("holonomy-export", True, tmp_path)
    assert len(written) == 8
    for path, blocks in written.items():
        p_comp = blocks[0][1]
        states = np.concatenate([traj.states for traj, _ in blocks])
        traj = Trajectory(np.concatenate([traj.grid for traj, _ in blocks]), states)
        vecs = np.transpose(states, (0, 2, 1)).reshape(len(states), -1)
        table = np.column_stack([traj.grid, traj.traces(), intensity_loss(states, p_comp),
                                 traj.purities(), vecs.real, vecs.imag])
        header = ["s", "trace", "loss", "purity"] + [
            f"{part}_{i}" for part in ("re", "im") for i in range(vecs.shape[1])]
        expected = "".join(",".join(cells) + "\r\n" for cells in [header] + [
            ["%.17g" % v for v in row] for row in table.tolist()])
        assert path.endswith(".partial")
        with open(path[:-len(".partial")], "rb") as fh:
            assert fh.read() == expected.encode()


def test_check_gauge_full_inputs_match_reference(tmp_path):
    # the benchmark's own check-gauge job (about 0.5 s): the only workload
    # through the lab-frame filtered dissipator, gated at its full size
    run_against_reference("check-gauge", False, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_workload_reports_strict_json(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    run = wl.prepare(adiabat, wl.inputs(workloads.DEFAULT_SEED, smoke=True), str(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    tracer = spans.Tracer(spans.library_modules())
    with tracer:
        start = time.perf_counter()
        code = run(str(out))
        metrics = tracer.metrics(time.perf_counter() - start)
    assert code == 0
    assert not [k for k, v in metrics.items() if not math.isfinite(v)]
    json.dumps(metrics, allow_nan=False)
    assert metrics["propagation.integrations"] > 0
    counts = (metrics["linalg.expm_matrices"], metrics["propagation.steps"])
    assert counts == TRACED_COUNTS[name]
    if name != "check-gauge":       # the two sweep workloads
        assert metrics["runner.points"] > 0
    else:       # four chunks of each gauge's rotated equation and of the lab-frame one
        assert metrics["generators.assembly_calls"] == 12
    if name == "holonomy-export":   # 4 sweep rows, 2 x 2 trajectories of 11 + 21 rows
        assert metrics["cli.csv_rows"] == 132
