"""One pass per T slot: the runner's block-wise metrics and its one
integration per slot.

A slot steps every ``(gamma, approximate)`` pair in one rotated-frame pass
and keeps no whole trajectory unless a point is exported: a
:class:`runner.LabPass` rotates each block of states to the lab frame and
updates its running monitors there.  These tests pin those running values
to the ones of whole trajectories, bit for bit.
"""
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from adiabat import runner
from adiabat.errors import StepTooLarge
from adiabat.generators import LindbladDissipator
from adiabat.linalg import dag
from adiabat.models import Gauge
from adiabat.propagation import hs_error_max, propagate_piecewise_exp
from adiabat.spectral import vectorized

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
        kept = runner.integrate_pairs(ctx, gammas, keep=True)
        assert np.array_equal(kept.kept, lab.states)
        # an unexported pass keeps no trajectory, only one block of states
        done = runner.integrate_pairs(ctx, gammas)
        assert done.kept is None and done.store.shape[1] == block
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
