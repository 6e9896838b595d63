"""Per-layer spans for the traced benchmark run.

The tracer replaces the module and class attributes that the library's
callers actually bind (``from .linalg import sandwich_superop`` copies the
function into each importing module, so ``runner.sandwich_superop`` and
``generators.sandwich_superop`` are wrapped separately) with timing and
counting wrappers, and restores the originals on exit.

Spans nest on one stack.  Each span records its parent, so a layer's self
time is its duration minus the time its child spans cover.  Spans are
aggregated as they close, per layer and per (parent, child) edge, rather
than kept one by one: a traced job makes several hundred thousand calls.

Targets that a later version of the library no longer has are skipped and
listed in ``Tracer.missing``.  A metric whose layer has no target left
reads NaN, so that a vanished layer shows as a missing number rather than
as a zero that would read as a gain.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import time
import types
import weakref
from collections import defaultdict

# Layers whose self times partition the traced run; anything else (the
# sweep loop, run_point bookkeeping, the CLI's own code) is unattributed.
TIMED_LAYERS = {
    "spectral.frame": "spectral.frame_s",
    "spectral.geometric_term": "spectral.geometric_term_s",
    "resonance.tensor": "resonance.tensor_s",
    "generators.assembly": "generators.assembly_s",
    "linalg.sandwich": "linalg.sandwich_s",
    "linalg.expm": "linalg.expm_s",
    "propagation.step": "propagation.step_s",
    "propagation.metrics": "propagation.metrics_s",
    "runner.context": "runner.context_s",
    "runner.lab_rotation": "runner.lab_rotation_s",
    "cli.csv": "cli.csv_s",
}


def library_modules():
    """The ``adiabat`` modules whose attributes the tracer wraps."""
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"adiabat.{name}")
        for name in ("cli", "generators", "linalg", "propagation", "runner",
                     "spectral")})


class Tracer:
    """Install with ``with Tracer(modules) as tracer:``; read
    :meth:`metrics` afterwards."""

    def __init__(self, modules):
        self.m = modules
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.edges = defaultdict(int)
        self.missing = []
        self.installed = set()      # layers with at least one wrapper
        self._stack = []
        self._patches = []
        self._ctx_keys = {}
        self._points = set()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Time ``fn`` as a span of layer ``name``; ``after(args, result)``
        updates counts once it returns."""
        self.installed.add(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                self.edges[(parent, name)] += 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, key, fn):
        """Count calls without a span; the time stays with the caller."""
        self.installed.add(key)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, make):
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        # an inherited attribute is restored by deleting the override
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self):
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- counts hooked after a call returns ---------------------------------

    def _add(self, key, n):
        self.counts[key] += n

    def _remember_context(self, name):
        def after(args, ctx):
            self._ctx_keys[id(ctx)] = ((name, repr(args)), weakref.ref(ctx))
            self.counts["runner.contexts"] += 1
        return after

    def _point(self, args, result):
        ctx, gamma = args[0], args[1]
        entry = self._ctx_keys.get(id(ctx))
        if entry is not None and entry[1]() is ctx:
            key = entry[0]
        else:
            key = ("unknown", id(ctx))
        self._points.add((key, float(gamma)))

    def _csv_written(self, path_index, rows_of):
        def after(args, result):
            self.counts["cli.csv_rows"] += rows_of(args)
            self.counts["cli.csv_bytes"] += os.path.getsize(args[path_index])
        return after

    # -- installation -------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self):
        m = self.m
        span, patch = self._span, self._patch
        add = self._add

        frame_after = lambda a, r: add("spectral.frame_samples", len(a[1]))
        for mod in (m.runner, m.cli):
            patch(mod, "build_transport_frame",
                  lambda f: span("spectral.frame", f, frame_after))
        for mod in (m.generators, m.cli):
            patch(mod, "geometric_term",
                  lambda f: span("spectral.geometric_term", f))
        patch(m.spectral.HamiltonianFamily, "spectrum",
              lambda f: self._counter("spectral.spectrum_calls", f))

        for mod in (m.runner, m.cli):
            patch(mod, "compute_resonance_tensor",
                  lambda f: span("resonance.tensor", f))

        # rotated-frame generators are closures handed out by RunContext;
        # lab-frame ones are the callable classes of generators
        def wrap_factory(factory):
            @functools.wraps(factory)
            def make(*args, **kwargs):
                return span("generators.assembly", factory(*args, **kwargs))
            return make
        for attr in ("exact_generator", "approximate_generator"):
            patch(getattr(m.runner, "RunContext", None), attr, wrap_factory)
        for cls in ("ExactGenerator", "ApproximateGenerator"):
            patch(getattr(m.generators, cls, None), "__call__",
                  lambda f: span("generators.assembly", f))

        for mod in (m.runner, m.generators):
            patch(mod, "sandwich_superop", lambda f: span("linalg.sandwich", f))

        def expm_after(args, result):
            add("linalg.expm_matrices", 1 if args[0].ndim == 2 else args[0].shape[0])
        patch(m.propagation, "matrix_exponential",
              lambda f: span("linalg.expm", f, expm_after))

        def integration_after(rotated):
            def after(args, traj):
                add("propagation.integrations", 1)
                add("propagation.steps", len(traj.grid) - 1)
                if rotated:
                    add("rotated_integrations", 1)
            return after
        patch(m.runner, "propagate_piecewise_exp",
              lambda f: span("propagation.step", f, integration_after(True)))
        patch(m.cli, "propagate_piecewise_exp",
              lambda f: span("propagation.step", f, integration_after(False)))
        for attr in ("hs_error_max", "normalized_fidelity", "intensity_loss"):
            patch(m.runner, attr, lambda f: span("propagation.metrics", f))
        patch(m.cli, "intensity_loss", lambda f: span("propagation.metrics", f))
        for attr in ("traces", "hermiticity_defects", "min_eigenvalues", "purities"):
            patch(getattr(m.propagation, "Trajectory", None), attr,
                  lambda f: span("propagation.metrics", f))

        for attr in ("holonomy_context", "random_context"):
            patch(m.runner, attr, lambda f, a=attr: span(
                "runner.context", f, self._remember_context(a)))
        patch(getattr(m.runner, "RunContext", None), "to_lab",
              lambda f: span("runner.lab_rotation", f))
        patch(m.runner, "run_point", lambda f: span("runner.point", f, self._point))

        patch(m.cli, "write_sweep_csv", lambda f: span(
            "cli.csv", f, self._csv_written(1, lambda a: len(a[0]))))
        patch(m.cli, "write_trajectory_csv", lambda f: span(
            "cli.csv", f, self._csv_written(2, lambda a: len(a[0].grid))))

    # -- results ------------------------------------------------------------

    def metrics(self, run_s):
        """Per-layer numbers of one traced run lasting ``run_s`` seconds."""
        def seen(layer, value):
            return value if layer in self.installed else math.nan

        out = {metric: seen(layer, self.self_s[layer])
               for layer, metric in TIMED_LAYERS.items()}
        out["unattributed_s"] = run_s - sum(self.self_s[layer]
                                            for layer in TIMED_LAYERS)
        c = self.counts
        rotated = c["rotated_integrations"]
        out.update({
            "spectral.frame_samples": seen("spectral.frame",
                                           c["spectral.frame_samples"]),
            "spectral.geometric_term_calls": seen(
                "spectral.geometric_term", self.calls["spectral.geometric_term"]),
            "spectral.spectrum_calls": seen("spectral.spectrum_calls",
                                            c["spectral.spectrum_calls"]),
            "resonance.tensor_builds": seen("resonance.tensor",
                                            self.calls["resonance.tensor"]),
            "generators.assembly_calls": seen("generators.assembly",
                                              self.calls["generators.assembly"]),
            "linalg.sandwich_calls": seen("linalg.sandwich",
                                          self.calls["linalg.sandwich"]),
            "linalg.expm_calls": seen("linalg.expm", self.calls["linalg.expm"]),
            "linalg.expm_matrices": seen("linalg.expm", c["linalg.expm_matrices"]),
            "propagation.steps": seen("propagation.step", c["propagation.steps"]),
            "propagation.integrations": seen("propagation.step",
                                             c["propagation.integrations"]),
            "runner.contexts": seen("runner.context", c["runner.contexts"]),
            "runner.points": seen("runner.point", len(self._points)),
            "runner.useful_integration_ratio": seen(
                "runner.point", 2.0 * len(self._points) / rotated
                if rotated else math.nan),
            "cli.csv_bytes": seen("cli.csv", c["cli.csv_bytes"]),
            "cli.csv_rows": seen("cli.csv", c["cli.csv_rows"]),
        })
        return out

    def edge_table(self):
        """``[[parent, child, calls], ...]``: the recorded span tree."""
        return sorted([p or "", ch, n] for (p, ch), n in self.edges.items())
