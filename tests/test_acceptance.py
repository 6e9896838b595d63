"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavyweight sweeps (the figure presets) are session fixtures so
several criteria share them.
"""
import functools
import math
import time

import numpy as np
import pytest

from adiabat import cli, models, runner
from adiabat.generators import rotated_block_generator
from adiabat.linalg import dag, frobenius, vec
from adiabat.models import Gauge
from adiabat.propagation import (
    evolve_vector_piecewise_exp,
    piecewise_exp_propagator,
    propagate_piecewise_exp,
)
from adiabat.generators import choi_matrix, cp_check
from adiabat.resonance import compute_resonance_tensor
from adiabat.spectral import vectorized

X, Y, DPHI = math.pi / 5, 3 * math.pi / 4, math.pi / 4
SPLIT = (0.4, 0.2, 0.4, 0.0)


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavyweight runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def fig_element_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig_element")
    code, rows = cli.run_preset("fig-element", {"out": str(out),
                                                "no_timestamp": True})
    assert code == 0
    return rows


@pytest.fixture(scope="session")
def fig_fidelity_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig_fidelity")
    code, rows = cli.run_preset("fig-fidelity", {"out": str(out),
                                                 "no_timestamp": True})
    assert code == 0
    return rows


@pytest.fixture(scope="session")
def random_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig_sweep_random")
    start = time.time()
    code, rows = cli.run_preset("fig-sweep-random", {"out": str(out),
                                                     "no_timestamp": True})
    elapsed = time.time() - start
    assert code == 0
    return rows, elapsed


@pytest.fixture(scope="session")
def step_halving_rows():
    """The holonomy sweep at dt = 0.01 and dt = 0.005 on T = {20, 100}."""
    rows = {}
    for dt in (0.01, 0.005):
        cfg = cli.ExperimentConfig(T_list=(20.0, 100.0), dt=dt)
        rows[dt] = runner.sweep(cfg.tasks(), workers=1)
    return rows


def series_by_gamma(rows):
    out = {}
    for row in rows:
        out.setdefault(row["gamma"], []).append(row)
    for s in out.values():
        s.sort(key=lambda r: r["T"])
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_block_ode_vs_closed_form():
    """Integrating the printed 6x6 block generator over the Hadamard path
    reproduces the closed-form output to 1e-6, in under 5 s per case."""
    worst = 0.0
    slowest = 0.0
    for gamma in (0.0, 0.01, 0.1):
        start = time.time()
        T = 100.0
        path = models.build_orange_path(DPHI, SPLIT)
        v0 = np.array([np.cos(X / 2) ** 2,
                       0.5 * np.sin(X) * np.exp(-1j * Y),
                       0.5 * np.sin(X) * np.exp(+1j * Y),
                       np.sin(X / 2) ** 2, 0.0, 0.0], dtype=complex)
        gen = vectorized(functools.partial(models.approximate_block_matrix, path, gamma, T))
        _, vecs = evolve_vector_piecewise_exp(gen, v0, 0.002, T)
        dark = vecs[-1][:4].reshape(2, 2)
        u = models.holonomy_gate(DPHI)
        out = u @ dark @ dag(u)
        ref = models.closed_form_output(X, Y, DPHI, gamma, *(T * f for f in SPLIT[:3]))
        worst = max(worst, float(np.abs(out - ref).max()))
        slowest = max(slowest, time.time() - start)
    report(1, "closed-form-vs-ode", worst <= 1e-6 and slowest < 5.0,
           f"max entry dev {worst:.2e} <= 1e-6, {slowest:.2f}s per case")


def test_criterion_02_lindblad_refactorization():
    """Lindblad re-factorization reconstructs the filtered dissipator to
    1e-9 at ten samples for both models, with a PSD coupling spectrum."""
    rows = cli._lindblad_check_rows()
    worst_err = max(r["reconstruction_error"] for r in rows)
    worst_lam = min(r["lambda_min"] for r in rows)
    report(2, "lindblad-refactorization",
           worst_err <= 1e-9 and worst_lam >= -1e-10,
           f"reconstruction {worst_err:.2e} <= 1e-9, lambda_min {worst_lam:.2e}")


def test_criterion_03_complete_positivity():
    """Choi matrix of the approximate propagator stays PSD (>= -1e-8) at ten
    checkpoints for holonomy and random presets."""
    cases = []
    checkpoints = [0.1 * j for j in range(1, 11)]
    for gamma in (0.0, 0.01, 0.1):
        ctx = runner.holonomy_context(DPHI, SPLIT, Gauge.NORTH_POLE_REGULAR,
                                      100.0, 0.01, X, Y)
        cases.append((f"holonomy g={gamma}", ctx, gamma))
    cases.append(("random g=0.01", runner.random_context(7, 80.0, 0.01), 0.01))

    worst = np.inf
    worst_tr = 0.0
    for name, ctx, gamma in cases:
        gen = ctx.approximate_generator(gamma)
        props = piecewise_exp_propagator(gen, ctx.dt, ctx.T,
                                         checkpoints=checkpoints)
        for s, prop in props:
            min_eig, ok = cp_check(prop, tol=1e-8)
            worst = min(worst, min_eig)
            d = ctx.family.dim
            worst_tr = max(worst_tr, abs(np.trace(choi_matrix(prop)).real - d))
    report(3, "complete-positivity", worst >= -1e-8 and worst_tr <= 1e-8,
           f"min Choi eigenvalue {worst:.2e} >= -1e-8, trace dev {worst_tr:.2e}")


def test_criterion_04_frame_and_gauge_equivalence():
    """Lab-frame vs rotated-block evolution and the two gauges agree on
    every projector block to 1e-8 at ten checkpoints."""
    rows = cli.gauge_check_rows()
    by_name = {r["check"]: r for r in rows}
    direct = by_name["direct-vs-rotated"]["value"]
    gauge = by_name["gauge-equivalence"]["value"]
    ok = direct <= 1e-8 and gauge <= 1e-8
    ok = ok and by_name["equator-gauge-discontinuity-detected"]["value"] == 1.0
    report(4, "frame-equivalence", ok,
           f"direct-vs-rotated {direct:.2e}, gauges {gauge:.2e}, both <= 1e-8")


def test_criterion_05_closed_system_limit():
    """Closed evolution approaches the adiabatic gate prediction on the
    computational block: distance non-increasing over T = 20, 50, 100, 200
    and below 0.02 at T = 200."""
    # limit state: the transported dark pair, i.e. the inverse rotation of
    # the gate matrix applied to the input qubit (the shipped loop sweeps
    # the solid angle clockwise)
    psi = models.initial_state(X, Y)
    gate = models.holonomy_gate(DPHI)
    out2 = dag(gate) @ psi[:2]
    target = np.outer(out2, np.conj(out2))

    dists = []
    for T in (20.0, 50.0, 100.0, 200.0):
        ctx = runner.holonomy_context(DPHI, SPLIT, Gauge.NORTH_POLE_REGULAR,
                                      T, 0.01, X, Y)
        exact = propagate_piecewise_exp(ctx.exact_generator(0.0), ctx.initial_components(),
                                        ctx.dt, ctx.T)
        block = ctx.to_lab(exact).final_state()[:2, :2]
        dists.append(frobenius(block - target))
    monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    ok = monotone and dists[-1] < 0.02
    report(5, "closed-system-limit", ok,
           "computational-block distances " +
           ", ".join(f"{d:.4f}" for d in dists) + " non-increasing, final < 0.02")


def test_criterion_06_decoherence_orderings(fig_fidelity_rows):
    """Losses increase with the coupling at T = 100; the normalized fidelity
    rises with T per coupling; the two weak-coupling fidelity curves lie
    closer to each other than to the strong one at T = 100."""
    series = series_by_gamma(fig_fidelity_rows)
    gammas = sorted(series)
    at100 = {g: [r for r in series[g] if r["T"] == 100.0][0] for g in gammas}

    loss_ok = all(at100[a]["loss_exact"] < at100[b]["loss_exact"]
                  and at100[a]["loss_approx"] < at100[b]["loss_approx"]
                  for a, b in zip(gammas, gammas[1:]))
    fid_ok = all(all(y > x for x, y in zip(
        [r["fidelity_norm"] for r in series[g]],
        [r["fidelity_norm"] for r in series[g]][1:])) for g in gammas)
    d0, d1, d2 = (at100[g]["fidelity_norm"] for g in (0.0, 0.01, 0.1))
    close_ok = abs(d0 - d1) < min(abs(d0 - d2), abs(d1 - d2))
    report(6, "decoherence-orderings", loss_ok and fid_ok and close_ok,
           f"loss ordering {loss_ok}, D(T) monotone {fid_ok}, "
           f"|D0-D001|={abs(d0 - d1):.1e} < min gap to D01 {min(abs(d0 - d2), abs(d1 - d2)):.1e}")


def test_criterion_07_interior_minimum(random_sweep):
    """Max Hilbert-Schmidt error vs T has an interior minimum for every
    nonzero coupling of the random model and decreases throughout for the
    closed case; full sweep in under ten minutes."""
    rows, elapsed = random_sweep
    series = series_by_gamma(rows)
    ok = True
    details = []
    for gamma, pts in sorted(series.items()):
        errs = [r["max_hs_error"] for r in pts]
        if gamma == 0.0:
            good = all(b < a for a, b in zip(errs, errs[1:]))
            details.append(f"g=0 decreasing {good}")
        else:
            k = int(np.argmin(errs))
            good = 0 < k < len(errs) - 1
            details.append(f"g={gamma} min@T={pts[k]['T']:g}")
        ok = ok and good
    ok = ok and elapsed < 600.0
    report(7, "interior-minimum", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_08_resonance_tensor_oracle():
    """Holonomy tensor matches brute-force enumeration entry by entry and
    the delta/symmetry identities hold for both shipped models."""
    grid = np.linspace(0.0, 1.0, 201)
    path = models.build_orange_path(DPHI, SPLIT)
    fam_h = models.holonomy_family(path)
    t_h = compute_resonance_tensor(fam_h.spectrum, grid)
    energies = np.array([-1.0, 0.0, 1.0])
    ref = np.zeros((3, 3, 3, 3), dtype=bool)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for e in range(3):
                    ref[a, b, c, e] = abs(energies[a] - energies[b]
                                          - energies[c] + energies[e]) <= 1e-9
    match = np.array_equal(t_h.g, ref)
    coupled = bool(t_h.g[1, 2, 0, 1])  # (dark,+) with (-,dark)
    t_h.validate_identities()
    fam_r = models.make_random_model(7).family()
    t_r = compute_resonance_tensor(fam_r.spectrum, grid)
    t_r.validate_identities()
    report(8, "resonance-tensor-oracle", match and coupled,
           f"81-entry brute-force match {match}, coupled dark/bright pair {coupled}")


def test_criterion_09_integrator_robustness(step_halving_rows):
    """Halving dt from 0.01 to 0.005 moves every sweep metric by <= 1e-4."""
    coarse, fine = step_halving_rows[0.01], step_halving_rows[0.005]
    worst = 0.0
    for a, b in zip(coarse, fine):
        assert (a["gamma"], a["T"]) == (b["gamma"], b["T"])
        for col in cli.SWEEP_COLUMNS[4:]:
            worst = max(worst, abs(a[col] - b[col]))
    report(9, "integrator-robustness", worst <= 1e-4,
           f"max metric change {worst:.2e} <= 1e-4")


def test_criterion_10_invariants_and_autonomy(fig_element_rows,
                                              fig_fidelity_rows,
                                              random_sweep,
                                              step_halving_rows):
    """Trace, Hermiticity and positivity hold on every preset trajectory;
    the diagonal blocks are immune to off-diagonal initial perturbations."""
    all_rows = (list(fig_element_rows) + list(fig_fidelity_rows)
                + list(random_sweep[0]) + list(step_halving_rows[0.01])
                + list(step_halving_rows[0.005]))
    worst_trace = worst_herm = 0.0
    worst_eig = 0.0
    for row in all_rows:
        for _, (trace_dev, herm_dev, min_eig) in row["_invariants"].items():
            worst_trace = max(worst_trace, trace_dev)
            worst_herm = max(worst_herm, herm_dev)
            worst_eig = min(worst_eig, min_eig)
    inv_ok = worst_trace <= 1e-7 and worst_herm <= 1e-8 and worst_eig >= -1e-6

    # diagonal-block autonomy under off-diagonal perturbations
    T, gamma = 5.0, 0.2
    ctx = runner.holonomy_context(DPHI, SPLIT, Gauge.NORTH_POLE_REGULAR,
                                  T, 0.01, X, Y)
    # one block-generator build per chunk of midpoints, not per midpoint
    diag_gen = vectorized(functools.partial(
        rotated_block_generator, ctx.dissipator, ctx.tensor, ctx.frame, T, gamma,
        block_set="diagonal"))
    w0 = dag(ctx.frame.basis0) @ ctx.frame.u(0)
    rho_hat = w0 @ ctx.rho0 @ dag(w0)
    perturbed = rho_hat.copy()
    sl_dark, sl_plus = ctx.frame.block_slices[1], ctx.frame.block_slices[2]
    perturbed[sl_dark.start, sl_plus.start] += 0.05
    perturbed[sl_plus.start, sl_dark.start] += 0.05
    _, va = evolve_vector_piecewise_exp(diag_gen, vec(rho_hat), 0.01, T)
    _, vb = evolve_vector_piecewise_exp(diag_gen, vec(perturbed), 0.01, T)
    from adiabat.generators import block_component_indices
    idx = block_component_indices(ctx.frame, "diagonal")
    autonomy_dev = float(np.abs(va[:, idx] - vb[:, idx]).max())
    report(10, "invariant-suite",
           inv_ok and autonomy_dev <= 1e-12,
           f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, "
           f"min eig {worst_eig:.1e}, autonomy dev {autonomy_dev:.1e}")
