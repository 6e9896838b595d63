"""One pass per T slot: the runner's block-wise metrics and its one
integration per slot.

A slot steps every ``(gamma, approximate)`` pair in one rotated-frame pass
and keeps no whole trajectory: a :class:`runner.LabPass` rotates each block
of states to the lab frame, updates its running monitors there and hands
the block to an export's writer.  These tests pin those running values and
the exported blocks to the ones of whole trajectories, bit for bit.
"""
import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from adiabat import cli, runner
from adiabat.errors import StepTooLarge
from adiabat.generators import LindbladDissipator
from adiabat.linalg import dag
from adiabat.models import Gauge
from adiabat.propagation import (
    Trajectory,
    hs_error_max,
    intensity_loss,
    propagate_piecewise_exp,
)
from adiabat.spectral import HamiltonianFamily, vectorized

from conftest import lab_trajectories

GAMMAS = [0.0, 0.004, 0.03]
# model, dim, gammas and LabPass block length of each pass that
# TestBlockwiseMetrics cuts: twelve pairs at d = 2 take blocks of 170
# samples, shorter than that pass's 256-step chunks
PASSES = {"holonomy": ("holonomy", 4, GAMMAS, 85),
          "random_rotating": ("random_rotating", 4, GAMMAS, 85),
          "random_rotating_dim2": ("random_rotating", 2,
                                   [0.0, 0.002, 0.004, 0.006, 0.008, 0.01], 170)}


def context(model, T, dt=0.01, dim=4):
    if model == "holonomy":
        return runner.holonomy_context(math.pi / 4, (0.4, 0.2, 0.4, 0.0),
                                       Gauge.NORTH_POLE_REGULAR, T, dt,
                                       math.pi / 5, 3 * math.pi / 4)
    return runner.random_context(3, T, dt, dim)


def whole_pass(ctx, gammas):
    """Every pair's whole lab trajectory, stepped without a sink and
    rotated in one call: ``(P, n_samples, d, d)``."""
    w0 = ctx.frame.rotation(0.0)
    rho0 = w0 @ ctx.rho0 @ dag(w0)
    rotated = propagate_piecewise_exp(
        vectorized(functools.partial(ctx.generator.pieces, kinds=(False, True))),
        np.stack([rho0] * 2 * len(gammas)), ctx.dt, ctx.T, gammas=gammas)
    return ctx.to_lab(rotated)


class TestBlockwiseMetrics:
    @pytest.mark.parametrize("case", PASSES)
    @pytest.mark.parametrize("T", [3.4, 4.01])
    def test_running_metrics_equal_whole_trajectory_ones(self, case, T):
        # blocks of 85 or 170 samples: 341 samples leave a last block of
        # one, 402 one of 62
        model, dim, gammas, block = PASSES[case]
        ctx = context(model, T, dim=dim)
        lab = whole_pass(ctx, gammas)
        kept, labs = lab_trajectories(ctx, gammas)
        assert np.array_equal(np.stack([traj.states for traj in labs]), lab.states)
        # a pass keeps no trajectory, only one block of states
        done = runner.integrate_pairs(ctx, gammas)
        assert done.store.shape[1] == block
        assert len(done.grid) % block in (1, 62)
        for run in (kept, done):
            assert np.array_equal(run.final, lab.states[:, -1])
            for p, states in enumerate(lab.states):
                one = dataclasses.replace(lab, states=states)
                assert tuple(run.invariants[p]) == (np.abs(one.traces() - 1.0).max(),
                                                    one.hermiticity_defects().max(),
                                                    one.min_eigenvalues().min())
            for g in range(len(gammas)):
                exact, approx = (dataclasses.replace(lab, states=lab.states[2 * g + k])
                                 for k in (0, 1))
                assert run.max_hs_error[g] == hs_error_max(exact, approx)

    def test_split_blocks_export_whole_trajectory_bytes(self, tmp_path):
        # the dim-2 six-gamma pass, whose 256-step chunks are cut across
        # 170-sample blocks, run as a config: each trajectory file holds the
        # whole lab trajectory, every value rendered alone by '%.17g'
        model, dim, gammas, _ = PASSES["random_rotating_dim2"]
        T = 4.01
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(model=model, seed=3, dim=dim, T_list=[T], dt=0.01,
                                        gamma_list=gammas, outputs=str(tmp_path / "out"))))
        assert cli.main(["run", "--config", str(path), "--no-timestamp",
                         "--workers", "1"]) == 0
        ctx = context(model, T, dim=dim)
        lab = whole_pass(ctx, gammas)
        header = ["s", "trace", "loss", "purity"] + [
            f"{part}_{i}" for part in ("re", "im") for i in range(dim * dim)]
        for p, states in enumerate(lab.states):
            one = Trajectory(lab.grid, states)
            vecs = np.transpose(states, (0, 2, 1)).reshape(len(states), -1)
            table = np.column_stack([lab.grid, one.traces(), intensity_loss(states, ctx.p_comp),
                                     one.purities(), vecs.real, vecs.imag])
            expected = "".join(",".join(cells) + "\r\n" for cells in [header] + [
                ["%.17g" % v for v in row] for row in table.tolist()])
            name = f"trajectory_{('exact', 'approx')[p % 2]}_g{gammas[p // 2]:g}_T{T:g}.csv"
            assert (tmp_path / "out" / name).read_bytes() == expected.encode()
        assert len(list((tmp_path / "out").iterdir())) == 2 * len(gammas) + 1

    def test_rows_follow_gamma_list_order(self):
        # the pass steps gamma = 0 first; the rows keep the task's order
        task = dict(kind="random_rotating", seed=3, T=1.0, dt=0.1, dim=4,
                    gamma_list=[0.03, 0.0, 0.004])
        rows = runner.run_sweep_task(task)
        assert [row["gamma"] for row in rows] == task["gamma_list"]


class TestOnePassPerSlot:
    def test_six_gamma_slot_integrates_once(self, monkeypatch):
        calls = []
        integrate = runner.propagate_piecewise_exp

        def counted(*args, **kwargs):
            calls.append(integrate(*args, **kwargs))
            return calls[-1]
        monkeypatch.setattr(runner, "propagate_piecewise_exp", counted)
        task = dict(kind="random_rotating", seed=7, T=2.0, dt=0.1, dim=4,
                    gamma_list=[0.0, 0.002, 0.004, 0.006, 0.008, 0.01])
        rows = runner.run_sweep_task(task)
        assert len(rows) == 6 and len(calls) == 1
        assert len(calls[0].grid) == 21 and calls[0].states is None

    def test_pair_bad_through_its_dissipator_stops_the_slot(self):
        # a dissipator that only the largest gamma makes too strong a step
        ctx = context("random_rotating", 1.0)
        jump = 30.0 * np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex)
        ctx = dataclasses.replace(ctx, dissipator=LindbladDissipator.constant([jump]))
        runner.integrate_pairs(ctx, [0.0, 0.01])
        with pytest.raises(StepTooLarge):
            runner.integrate_pairs(ctx, [0.0, 0.01, 10.0])


class TestFrameEnergies:
    @pytest.mark.parametrize("model", ["holonomy", "random_rotating"])
    def test_pass_builds_no_spectrum(self, model, monkeypatch):
        # the frame reads the model's energies, so its build decomposes only
        # the grid's first sample (for the eigenspace labels) and the pass
        # none at all
        ctx = context(model, 2.0)
        seen = []
        spectrum = HamiltonianFamily.spectrum

        @vectorized
        def recording(family, s):
            seen.append(np.atleast_1d(s))
            return spectrum(family, s)
        monkeypatch.setattr(HamiltonianFamily, "spectrum", recording)
        ctx = dataclasses.replace(ctx)      # the frame and assembly built again
        runner.integrate_pairs(ctx, GAMMAS)
        assert len(seen) == 1 and np.array_equal(seen[0], ctx.frame.grid[:1])


class TestMemoryBoundedByWork:
    def test_slot_peak_grows_only_with_the_grid(self):
        # a random slot with the six fig-sweep-random gammas, no export:
        # the frame goes a window at a time and the pass keeps no
        # trajectory, so only the grid's floats grow with T (about 32 B per
        # step).  Below a few windows the slope does not show.
        gammas = [0.0, 0.002, 0.004, 0.006, 0.008, 0.01]

        def peak(T):
            tracemalloc.start()
            try:
                runner.integrate_pairs(runner.random_context(7, T, 0.01), gammas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(1.0)       # one-time allocations out of the way
        small, large = peak(80.0), peak(320.0)
        assert (large - small) / (32_000 - 8_000) < 64

    def test_exported_slot_peak_grows_only_with_the_grid(self, tmp_path):
        # the same slot exported: each block's rows are appended to the
        # files as it is flushed, so the export adds no growth with T
        gammas = [0.0, 0.002, 0.004, 0.006, 0.008, 0.01]
        export = functools.partial(cli._TrajectoryFiles, str(tmp_path), False)

        def peak(T):
            task = dict(kind="random_rotating", seed=7, T=T, dt=0.01, dim=4,
                        gamma_list=gammas)
            tracemalloc.start()
            try:
                runner.run_sweep_task(task, export)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            files = list(tmp_path.iterdir())
            assert sorted(f.suffix for f in files) == [".csv"] * 2 * len(gammas)
            for f in files:     # 66 MB at T=80, 265 MB at T=320
                f.unlink()
            return top
        peak(1.0)       # one-time allocations out of the way
        small, large = peak(80.0), peak(320.0)
        assert (large - small) / (32_000 - 8_000) < 64
