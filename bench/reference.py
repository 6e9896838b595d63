"""Reference outputs and the correctness gate.

``reference/<key>/`` holds the outputs the seed commit wrote for one
workload input, with ``--no-timestamp``: small CSVs as they were written,
and the trajectory CSVs of ``holonomy-export`` as float64 tables in
``trajectories.npz`` (17-significant-digit text round-trips exactly).

Every output is compared with its reference column by column: numbers
within an absolute 1e-12, text exactly.  A job's unit of success is one
sweep point (a ``(gamma, T)`` row and its trajectory files) or one check
row; :func:`compare` returns the points attempted and those that failed.

    python3 bench/reference.py record   # writes missing references from this tree

Record only at the commit the benchmark was defined on; later commits are
compared against those files, never re-recorded.
"""
from __future__ import annotations

import csv
import os
import re
import shutil
import sys

import numpy as np

TOL = 1e-12
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_ROOT = os.path.join(HERE, "reference")
TRAJECTORIES = "trajectories.npz"
_TRAJ_NAME = re.compile(r"trajectory_(exact|approx)_g(.+)_T(.+)\.csv$")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _point_of(header, row):
    cells = dict(zip(header, row))
    if "check" in cells:
        return cells["check"]
    return (float(cells["gamma"]), float(cells["T"]))


def _cell_ok(out, ref):
    try:
        return abs(float(out) - float(ref)) <= TOL
    except ValueError:
        return out == ref


def compare(out_dir, ref_dir):
    """``(points, failed)``: every point the reference holds, and the set
    of those whose outputs are missing or deviate."""
    points, failed = [], set()
    for name in sorted(os.listdir(ref_dir)):
        if not name.endswith(".csv"):
            continue
        header, ref_rows = _read_csv(os.path.join(ref_dir, name))
        keys = [_point_of(header, r) for r in ref_rows]
        points.extend(keys)
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            failed.update(keys)
            continue
        out_header, out_rows = _read_csv(path)
        if out_header != header or len(out_rows) != len(ref_rows):
            failed.update(keys)
            continue
        for key, out, ref in zip(keys, out_rows, ref_rows):
            if len(out) != len(ref) or not all(map(_cell_ok, out, ref)):
                failed.add(key)

    npz = os.path.join(ref_dir, TRAJECTORIES)
    if os.path.isfile(npz):
        with np.load(npz) as tables:
            header = str(tables["header"])
            for name in tables.files:
                if name == "header":
                    continue
                m = _TRAJ_NAME.match(name)
                key = (float(m.group(2)), float(m.group(3)))
                if not _trajectory_ok(os.path.join(out_dir, name), header,
                                      tables[name]):
                    failed.add(key)
    return points, failed


def _trajectory_ok(path, header, ref):
    if not os.path.isfile(path):
        return False
    with open(path) as fh:
        if fh.readline().rstrip("\r\n") != header:
            return False
        try:
            out = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError:
            return False
    return out.shape == ref.shape and bool(np.all(np.abs(out - ref) <= TOL))


def store(out_dir, ref_dir):
    """Copy one job's outputs into ``ref_dir`` in reference form."""
    os.makedirs(ref_dir, exist_ok=True)
    tables, header = {}, None
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if _TRAJ_NAME.match(name):
            with open(path) as fh:
                header = fh.readline().rstrip("\r\n")
                tables[name] = np.loadtxt(fh, delimiter=",", ndmin=2)
        elif name.endswith(".csv"):
            shutil.copyfile(path, os.path.join(ref_dir, name))
    if tables:
        np.savez_compressed(os.path.join(ref_dir, TRAJECTORIES),
                            header=np.array(header), **tables)


def record():
    """Run every workload input the benchmark can ask for that has no
    reference yet, once, and store its outputs as the reference."""
    import workloads
    from run import Harness

    h = Harness(os.path.dirname(HERE))
    done = set()
    for smoke in (True, False):
        for wl in workloads.WORKLOADS.values():
            seeds = ([workloads.DEFAULT_SEED] if wl.name != "random-sweep"
                     else workloads.POOL + [workloads.HELD_OUT])
            for seed in seeds:
                inputs = wl.inputs(seed, smoke)
                key = wl.reference_key(inputs)
                ref_dir = os.path.join(REFERENCE_ROOT, key)
                if key in done or os.path.isdir(ref_dir):
                    continue
                done.add(key)
                with h.workdir(wl.name) as work:
                    job = h.job(wl, inputs, work)
                    if job["exit"] != 0:
                        raise SystemExit(f"{key}: the workload failed; nothing recorded")
                    store(job["out"], ref_dir)
                print(f"recorded {key}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit(__doc__)
    record()
