import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import pickle
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabat import cli, models, propagation, runner, spectral
from adiabat.errors import AssertionFailed, ConfigInvalid, StepTooLarge
from adiabat.generators import RotatedFrameGenerator
from adiabat.propagation import Trajectory


def write_config(tmp_path, **overrides):
    data = {
        "model": "holonomy",
        "gamma_list": [0.0, 0.1],
        "T_list": [2.0],
        "dt": 0.05,
        "outputs": str(tmp_path / "out"),
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestConfigValidation:
    def test_unknown_field_named(self, tmp_path):
        # checkpoints was a field once; nothing read it, so it is unknown now
        for name in ("bogus", "checkpoints"):
            path = write_config(tmp_path, **{name: 1})
            with pytest.raises(ConfigInvalid) as err:
                cli.run_config(str(path))
            assert err.value.field == name

    def test_unknown_model(self):
        with pytest.raises(ConfigInvalid):
            cli.ExperimentConfig.from_dict({"model": "spin-chain"})

    def test_dt_versus_runtime(self):
        with pytest.raises(ConfigInvalid):
            cli.ExperimentConfig.from_dict({"T_list": [1.0], "dt": 0.2})

    def test_dt_must_divide_every_runtime(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        path = write_config(tmp_path, T_list=[2.0, 1.05], dt=0.1)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "dt" in capsys.readouterr().err
        with pytest.raises(ConfigInvalid) as err:
            cli.ExperimentConfig.from_dict({"T_list": [1.05], "dt": 0.1})
        assert err.value.field == "dt"

    def test_dt_override_must_divide_preset_runtimes(self, tmp_path, capsys):
        # fig-element runs T = 20..200; 0.3 divides none of them
        assert cli.main(["run", "--preset", "fig-element", "--dt", "0.3",
                         "--out", str(tmp_path), "--workers", "1"]) == 2
        assert "dt" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.ExperimentConfig.from_dict({"gamma_list": [0.0, math.inf]})

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.ExperimentConfig.from_dict({"gamma_list": [-0.1]})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            cli.run_config(str(path))

    @pytest.mark.parametrize("text, field, message", [
        pytest.param(b'{"model": "holo\xffnomy"}', "config",
                     "config is not UTF-8 at byte 15", id="non-utf8-byte"),
        pytest.param(b"[" * 100_000, "config", "config is nested too deeply",
                     id="deep-nesting"),
        pytest.param(b'{"model": "holonomy", "T_list": [1.0], "dt": 0.1, "model": "x"}',
                     "model", "config gives 'model' twice", id="duplicate-name"),
    ])
    def test_malformed_config_text_exits_two(self, tmp_path, capsys, monkeypatch, text,
                                             field, message):
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err
        with pytest.raises(ConfigInvalid) as exc:
            cli.run_config(str(path))
        assert exc.value.field == field

    def test_negative_zero_gamma_runs_as_zero(self, tmp_path):
        # -0.0 would print as -0 in sweep.csv and in the file names
        files = []
        for gamma in (0.0, -0.0):
            out = tmp_path / repr(gamma)
            path = write_config(tmp_path, T_list=[1.0], dt=0.1, gamma_list=[gamma])
            assert cli.main(["run", "--config", str(path), "--out", str(out),
                             "--no-timestamp", "--workers", "1"]) == 0
            files.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert files[0] == files[1]

    def test_exit_code_two_from_main(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigInvalid):
            cli.run_preset("fig-nonexistent")

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["check", "bogus"])
        assert err.value.code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_env_exits_two(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("ADIABAT_THREADS", value)
        path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "ADIABAT_THREADS" in capsys.readouterr().err

    def test_bad_worker_flag_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("dt", "0.01"),
        ("gamma_list", 0.1),
        ("path", None),
        ("seed", "x"),
        ("dim", 0),
        pytest.param("dt", 10 ** 400, id="dt-beyond-float"),
    ])
    def test_badly_typed_field_exits_two(self, tmp_path, capsys, name, value):
        # the random model reads seed and dim, so a bad one cannot pass unused
        path = write_config(tmp_path, model="random_rotating", **{name: value})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("path", [
        pytest.param({"delta_phi": 7.0}, id="delta-phi-beyond-2pi"),
        pytest.param({"delta_phi": 0.5, "split": [0.5, 0.5, 0.5, 0]}, id="split-sum"),
        pytest.param({"delta_phi": 0.5, "split": [math.nan, 0.2, 0.4, 0.4]}, id="split-nan"),
        pytest.param({"split": [0.4, 0.2, 0.4, 0.0]}, id="no-delta-phi"),
    ])
    def test_bad_path_exits_two_before_running(self, tmp_path, capsys, monkeypatch, path):
        # rejected by validate, not by the model once the run has started
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        cfg = write_config(tmp_path, path=path)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "path" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, key", [
        ("path", {"delta_phi": 0.785, "splt": [0.25, 0.25, 0.25, 0.25]}, "splt"),
        ("initial_state", {"x": 0.6, "y": 2.4, "z": 0.0}, "z"),
    ])
    def test_unknown_nested_key_exits_two(self, tmp_path, capsys, monkeypatch,
                                          name, value, key):
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        cfg = write_config(tmp_path, **{name: value})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert f"unknown {name} field {key!r}" in capsys.readouterr().err

    def test_uncreatable_output_directory_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--out", str(blocker / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: cannot create out directory" in err and "Traceback" not in err
        cfg = write_config(tmp_path, outputs=str(blocker / "out"))
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "cannot create outputs directory" in capsys.readouterr().err

    # a directory where a CSV should go: open fails even for root
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fname", ["sweep.csv", "trajectory_exact_g0.1_T2.csv"])
    def test_unopenable_csv_exits_two(self, tmp_path, capsys, fname, workers):
        # two T slots, so that two workers make a pool and the trajectory
        # CSV is opened in a worker process
        cfg = write_config(tmp_path, T_list=[1.0, 2.0])
        (tmp_path / "out" / fname).mkdir(parents=True)
        assert cli.main(["run", "--config", str(cfg), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot open outputs file {str(tmp_path / 'out' / fname)!r}" in err
        assert "Traceback" not in err
        out = tmp_path / "o2"
        (out / fname).mkdir(parents=True)
        assert cli.main(["run", "--config", str(cfg), "--workers", workers,
                         "--out", str(out)]) == 2
        assert f"cannot open out file {str(out / fname)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, fname", [("check-gauge", "gauge_check.csv"),
                                             ("check-lindblad", "lindblad_check.csv")])
    def test_unopenable_check_csv_exits_two(self, tmp_path, capsys, monkeypatch,
                                            name, fname):
        monkeypatch.setattr(cli, "gauge_check_rows", lambda *args: [
            {"check": "direct-vs-rotated", "value": 0.0, "bound": 1e-8}])
        (tmp_path / fname).mkdir()
        assert cli.main(["check", name, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot open out file {str(tmp_path / fname)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fields", [
        pytest.param(dict(model="random_rotating", T_list=[100.0], dt=10.0), id="random"),
        pytest.param(dict(T_list=[1e300], dt=1e299), id="holonomy-huge-T"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_over_budget_exits_two(self, tmp_path, capsys, fields):
        cfg = write_config(tmp_path, **fields)
        assert cli.main(["run", "--config", str(cfg), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert "config error: dt=" in err and "Traceback" not in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_frame_jump_exits_two(self, tmp_path, capsys, workers):
        # at dt 0.1 the T = 1 slot's frame jumps between its first two
        # samples, and the T = 2 slot runs; two T slots, so that two
        # workers make a pool
        cfg = write_config(tmp_path, model="random_rotating", dim=16, T_list=[1.0, 2.0],
                           gamma_list=[0.0, 0.1], dt=0.1)
        assert cli.main(["run", "--config", str(cfg), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert "config error: dt=0.1 is too large: frame jump" in err
        assert "Traceback" not in err

    def test_step_count_over_budget_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        # 6000 / 0.01 = 600,000 steps
        cfg = write_config(tmp_path, T_list=[2.0, 6000.0], dt=0.01)
        assert cli.main(["run", "--config", str(cfg), "--workers", "1"]) == 2
        assert "config error: dt=" in capsys.readouterr().err
        with pytest.raises(ConfigInvalid) as err:
            cli.ExperimentConfig.from_dict({"T_list": [6000.0], "dt": 0.01})
        assert err.value.field == "dt"
        cli.ExperimentConfig.from_dict({"T_list": [4000.0], "dt": 0.01})

    def test_step_count_over_budget_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        # fig-element runs T up to 200: 2,000,000 steps at dt 1e-4
        assert cli.main(["run", "--preset", "fig-element", "--dt", "1e-4",
                         "--out", str(tmp_path / "out"), "--workers", "1"]) == 2
        assert "config error: dt=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_six_gammas_at_dim_16_validate(self, tmp_path, monkeypatch):
        # an export streams its rows to disk, so the number of gammas times
        # the steps is not bounded by memory: six gammas at 500,000 steps
        # and d = 16 (24.6 GB of lab trajectories, were they kept) validate
        tasks = []
        monkeypatch.setattr(runner, "sweep", lambda t, *a, **k: tasks.extend(t) or [])
        six = dict(model="random_rotating", T_list=[5000.0], dt=0.01,
                   gamma_list=[0.0, 0.001, 0.002, 0.003, 0.004, 0.005])
        cfg = write_config(tmp_path, dim=16, **six)
        assert cli.main(["run", "--config", str(cfg), "--workers", "1"]) == 0
        assert [(t["dim"], len(t["gamma_list"])) for t in tasks] == [(16, 6)]
        cli.ExperimentConfig.from_dict(dict(six, dim=16, gamma_list=six["gamma_list"] + [0.006]))

    @pytest.mark.parametrize("name, values", [
        ("T_list", [2.0, 2.0]),
        ("gamma_list", [0.01, 0.01]),
        ("gamma_list", [0.0, 0.1, -0.0]),
    ])
    def test_repeated_value_exits_two(self, tmp_path, capsys, monkeypatch, name, values):
        # a repeat would integrate one sweep point twice and write its rows
        # and trajectory files twice
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        cfg = write_config(tmp_path, model="random_rotating", **{name: values})
        assert cli.main(["run", "--config", str(cfg), "--workers", "2"]) == 2
        assert name in capsys.readouterr().err
        with pytest.raises(ConfigInvalid) as err:
            cli.ExperimentConfig.from_dict({name: values})
        assert err.value.field == name

    @pytest.mark.parametrize("name, values, dt", [
        ("gamma_list", [0.1, 0.10000001], 0.01),
        ("T_list", [100000.0, 100000.5], 0.5),
    ])
    def test_values_sharing_a_file_name_exit_two(self, tmp_path, capsys, monkeypatch,
                                                 name, values, dt):
        # trajectory files print gamma and T with %g: these would share files
        monkeypatch.setattr(runner, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
        cfg = write_config(tmp_path, **{"T_list": [1.0], "dt": dt, name: values})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {name} has two values that share a trajectory file name" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_gauge_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gauge="south_pole")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "config error: unknown gauge 'south_pole'" in capsys.readouterr().err

    def test_dim_bounded(self, tmp_path, capsys):
        cli.ExperimentConfig.from_dict({"model": "random_rotating", "dim": 16})
        cfg = write_config(tmp_path, model="random_rotating", dim=17)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "dim" in capsys.readouterr().err

    def test_errors_survive_pickling(self):
        exc = pickle.loads(pickle.dumps(AssertionFailed("x", 1.0, 1e-7)))
        assert (exc.name, exc.measured, exc.bound) == ("x", 1.0, 1e-7)
        assert str(exc) == str(AssertionFailed("x", 1.0, 1e-7))
        exc = pickle.loads(pickle.dumps(ConfigInvalid("bad dt", field="dt")))
        assert exc.field == "dt" and str(exc) == "bad dt"


_FIELDS = sorted(cli.ExperimentConfig().__dict__)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 300, 10 ** 400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["x", "y", "delta_phi", "split", "other"]),
                      inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=6), _JSON_VALUES,
                       max_size=6))
def test_config_fuzz_passes_or_names_field(data):
    # validation alone: it either accepts or raises ConfigInvalid naming a
    # known field or the unknown key, never anything else
    try:
        cli.ExperimentConfig.from_dict(data).validate()
    except ConfigInvalid as exc:
        assert exc.field in set(_FIELDS) | set(data)


@st.composite
def tiny_configs(draw):
    """Small run configs, most of them valid: ``T`` <= 2, ``dt`` >= 0.05."""
    dt = draw(st.sampled_from([0.05, 0.1]))
    runtime = st.integers(10, round(2.0 / dt)).map(lambda n: n * dt) | st.floats(0.01, 2.0)
    split = st.sampled_from([(0.4, 0.2, 0.4, 0.0), (0.25, 0.25, 0.25, 0.25)]) | st.lists(
        st.sampled_from([0.0, 0.1, 0.2, 0.5]), min_size=3, max_size=4)
    return {"model": draw(st.sampled_from(["holonomy", "random_rotating"])),
            "gamma_list": draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2)),
            "T_list": draw(st.lists(runtime, min_size=1, max_size=2)),
            "dt": dt,
            "dim": draw(st.integers(2, 4)),
            "seed": draw(st.integers(0, 2 ** 32)),
            "gauge": draw(st.sampled_from(["north_pole", "equator"])),
            "path": {"delta_phi": draw(st.floats(0.0, 7.0)), "split": draw(split)}}


@settings(max_examples=25, deadline=None)
@given(tiny_configs())
def test_tiny_runs_end_with_an_exit_code(config):
    # a whole run, in-process: whatever the config, main returns 0, 1 or 2
    # and never lets a traceback out
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(dict(config, outputs=os.path.join(tmp, "out")), fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", path, "--no-timestamp", "--workers", "1"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    path = write_config(tmp_path)
    code = cli.main(["run", "--config", str(path), "--no-timestamp"])
    assert code == 0
    return tmp_path / "out"


class TestRunConfig:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "sweep.csv").exists()
        assert (run_dir / "trajectory_exact_g0_T2.csv").exists()
        assert (run_dir / "trajectory_approx_g0.1_T2.csv").exists()

    def test_sweep_schema_and_rows(self, run_dir):
        rows = read_rows(run_dir / "sweep.csv")
        assert list(rows[0]) == cli.SWEEP_COLUMNS
        assert len(rows) == 2
        gammas = [float(r["gamma"]) for r in rows]
        assert gammas == sorted(gammas)

    def test_trajectory_schema(self, run_dir):
        rows = read_rows(run_dir / "trajectory_exact_g0_T2.csv")
        assert len(rows) == 41  # T/dt + 1 samples
        assert set(rows[0]) >= {"s", "trace", "loss", "purity", "re_0", "im_15"}
        # closed run: loss stays small and trace stays one
        for row in rows:
            assert abs(float(row["trace"]) - 1.0) < 1e-7

    def test_deterministic_output(self, run_dir, tmp_path):
        path = write_config(tmp_path, outputs=str(tmp_path / "o2"))
        assert cli.main(["run", "--config", str(path), "--no-timestamp"]) == 0
        for name in ("sweep.csv", "trajectory_approx_g0.1_T2.csv"):
            a = (run_dir / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b

    def test_trajectory_ends_at_one(self, tmp_path):
        # 73 / 0.005 is 14,600 steps, whose sizes do not add up to 1 exactly:
        # 14,601 samples, the last at s = 1
        path = write_config(tmp_path, model="random_rotating", dim=2, T_list=[73.0],
                            dt=0.005, gamma_list=[0.0], outputs=str(tmp_path / "o73"))
        assert cli.main(["run", "--config", str(path), "--no-timestamp",
                         "--workers", "1"]) == 0
        for name in ("exact", "approx"):
            lines = (tmp_path / "o73" / f"trajectory_{name}_g0_T73.csv").read_text().splitlines()
            assert len(lines) == 14602
            assert lines[-1].split(",")[0] == "1"

    def test_timestamp_header_togglable(self, tmp_path):
        path = write_config(tmp_path, T_list=[1.0], dt=0.1, gamma_list=[0.0],
                            outputs=str(tmp_path / "o3"))
        assert cli.main(["run", "--config", str(path)]) == 0
        first = (tmp_path / "o3" / "sweep.csv").read_text().splitlines()[0]
        assert first.startswith("# generated ")

    def test_dt_override_robustness(self, tmp_path):
        # halving the default step leaves every reported metric in place
        outputs = {}
        for dt, name in ((0.01, "base"), (0.005, "half")):
            path = write_config(tmp_path, dt=0.01,
                                outputs=str(tmp_path / name))
            assert cli.main(["run", "--config", str(path), "--no-timestamp",
                             "--dt", str(dt)]) == 0
            outputs[name] = read_rows(tmp_path / name / "sweep.csv")
        for a, b in zip(outputs["base"], outputs["half"]):
            for col in cli.SWEEP_COLUMNS[4:]:
                assert abs(float(a[col]) - float(b[col])) <= 1e-4


    def test_each_point_integrated_once(self, tmp_path, monkeypatch):
        # one pass per T slot steps both equations of both gammas
        calls = []
        propagate = runner.propagate_piecewise_exp

        def counting(generator, rho0, *args, **kwargs):
            calls.append((len(rho0), kwargs["gammas"]))
            return propagate(generator, rho0, *args, **kwargs)
        monkeypatch.setattr(runner, "propagate_piecewise_exp", counting)
        path = write_config(tmp_path, T_list=[1.0, 2.0], dt=0.1)
        code, rows = cli.run_config(str(path), {"workers": 1, "no_timestamp": True})
        assert code == 0 and len(rows) == 4
        assert calls == 2 * [(4, [0.0, 0.1])]     # the exact and approximate pair of each
        assert len(list((tmp_path / "out").glob("trajectory_*.csv"))) == 2 * len(rows)

    def test_pool_writes_same_files(self, tmp_path):
        # trajectories are written inside the workers
        path = write_config(tmp_path, T_list=[1.0, 2.0], dt=0.1)
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert cli.main(["run", "--config", str(path), "--out", str(out),
                             "--no-timestamp", "--workers", str(workers)]) == 0
            files[workers] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(files[1]) == 9 and files[1] == files[2]

    def test_invariant_failure_writes_no_sweep(self, tmp_path, monkeypatch):
        def failing(rows):
            raise AssertionFailed("trace[forced]", 1.0, 1e-7)
        monkeypatch.setattr(cli, "_assert_invariants", failing)
        path = write_config(tmp_path, T_list=[1.0], dt=0.1)
        code, rows = cli.run_config(str(path), {"workers": 1, "no_timestamp": True})
        assert code == 1 and rows is None
        assert not (tmp_path / "out" / "sweep.csv").exists()
        assert not list((tmp_path / "out").glob("trajectory_*.csv"))

    def test_failed_point_leaves_no_file(self, tmp_path, monkeypatch):
        # the point at gamma = 0.1 fails its invariants once the pass is
        # done: the point before it is in place, none of its files is left
        check = cli._assert_invariants

        def failing(rows):
            if any(row["gamma"] == 0.1 for row in rows):
                raise AssertionFailed("trace[forced]", 1.0, 1e-7)
            check(rows)
        monkeypatch.setattr(cli, "_assert_invariants", failing)
        path = write_config(tmp_path, T_list=[1.0], dt=0.1)
        code, rows = cli.run_config(str(path), {"workers": 1, "no_timestamp": True})
        assert code == 1 and rows is None
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [
            "trajectory_approx_g0_T1.csv", "trajectory_exact_g0_T1.csv"]

    def test_pass_stopped_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        # StepTooLarge once the pass has appended its first lab block to
        # the four .partial files: the run exits 2 naming dt, no file left
        propagate, sizes = runner.propagate_piecewise_exp, []

        def stopping(*args, sink, **kwargs):
            def stop(i, states):
                sink(i, states)
                if sink.start:
                    sizes.extend(f.stat().st_size for f in (tmp_path / "out").iterdir())
                    raise StepTooLarge("step times generator norm is 9.9e+01")
            return propagate(*args, sink=stop, **kwargs)
        monkeypatch.setattr(runner, "propagate_piecewise_exp", stopping)
        path = write_config(tmp_path, T_list=[2.0], dt=0.01)
        assert cli.main(["run", "--config", str(path), "--workers", "1"]) == 2
        assert "config error: dt=0.01 is too large" in capsys.readouterr().err
        assert len(sizes) == 4 and min(sizes) > 128 * 400     # a block of 128 rows each
        assert not list((tmp_path / "out").iterdir())


# the tiling test's runs: both models, two T slots, a gamma = 0 and a
# gamma > 0 point in each
TILING_CONFIGS = {model: dict(model=model, seed=3, T_list=[1.0, 2.0], gamma_list=[0.0, 0.1],
                              dt=0.01) for model in ("holonomy", "random_rotating")}


def tiled_outputs(tmp_path):
    """Every file of the tiling runs by path, and the gauge check's rows."""
    files = {}
    for model, config in TILING_CONFIGS.items():
        out = tmp_path / model
        path = write_config(tmp_path, outputs=str(out), **config)
        assert cli.main(["run", "--config", str(path), "--no-timestamp",
                         "--workers", "1"]) == 0
        files.update({f"{model}/{f.name}": f.read_bytes() for f in out.iterdir()})
    return files, cli.gauge_check_rows(T=0.2, gamma=0.1, dt=1e-3)


@pytest.fixture(scope="module")
def default_tiling(tmp_path_factory):
    return tiled_outputs(tmp_path_factory.mktemp("tiling"))


@pytest.mark.parametrize("module, name, scale", [
    (spectral, "_WINDOW_BYTES", 1 / 8), (spectral, "_WINDOW_BYTES", 4),
    (propagation, "_CHUNK_BYTES", 1 / 32), (propagation, "_CHUNK_BYTES", 4)])
def test_outputs_do_not_depend_on_tiling(tmp_path, monkeypatch, default_tiling, module,
                                         name, scale):
    # frame windows change no byte.  Chunks change none at gamma = 0, but
    # the action rule takes its Taylor degree from each chunk's largest
    # norm, so gamma > 0 values move at the rounding level: chunks x4 move
    # both holonomy trajectory_exact_g0.1 files
    monkeypatch.setattr(module, name, int(getattr(module, name) * scale))
    files, rows = tiled_outputs(tmp_path)
    want_files, want_rows = default_tiling
    assert sorted(files) == sorted(want_files)
    exact = module is spectral
    for path, data in files.items():
        if exact or "_g0_" in path:
            assert data == want_files[path], path
            continue
        tables = [list(csv.reader(io.StringIO(text.decode()))) for text in (data, want_files[path])]
        for row, want in zip(*tables, strict=True):
            for cell, want_cell in zip(row, want, strict=True):
                assert cell == want_cell or abs(float(cell) - float(want_cell)) <= 1e-15, path
    for row, want in zip(rows, want_rows, strict=True):
        assert row == want if exact else abs(row["value"] - want["value"]) <= 1e-15


class TestCsvFormat:
    """The bytes of the CSV tables: header order, column-stacked state
    components, 17 significant digits, csv's line ends, and the timestamp
    line only when asked for."""

    TRAJECTORY = (
        b"s,trace,loss,purity,re_0,re_1,re_2,re_3,im_0,im_1,im_2,im_3\r\n"
        b"0,0.33333333333333331,0.66666666666666674,0.1111111111111111,"
        b"0.33333333333333331,0,0.10000000000000001,-0,0,1e-300,0,0\r\n"
        b"0.33333333333333331,1,0.90000000000000002,1.0422222222222224,"
        b"0.10000000000000001,0,-0,0.90000000000000002,"
        b"0,0.33333333333333331,-0.33333333333333331,0\r\n")

    def write_trajectory(self, path, timestamp):
        grid = np.array([0.0, 1 / 3])
        states = np.array([[[1 / 3, 0.1], [1e-300j, -0.0]],
                           [[0.1, -1j / 3], [1j / 3, 0.9]]])
        # the export's writer creates the file with its header lines, then
        # appends each block's rows: here two blocks of one sample
        cli._write_table(cli._trajectory_columns(2), (), str(path), timestamp)
        for i in range(2):
            cli.write_trajectory_csv(Trajectory(grid[i:i + 1], states[i:i + 1]),
                                     np.diag([1.0, 0.0]).astype(complex), str(path))
        return path.read_bytes()

    def test_trajectory_bytes(self, tmp_path):
        assert self.write_trajectory(tmp_path / "t.csv", False) == self.TRAJECTORY

    def test_timestamp_line_only_when_asked(self, tmp_path):
        first, rest = self.write_trajectory(tmp_path / "t.csv", True).split(b"\n", 1)
        assert first.startswith(b"# generated ") and not first.endswith(b"\r")
        assert rest == self.TRAJECTORY

    def test_gauge_table_mixes_floats_and_text(self, tmp_path, monkeypatch):
        rows = [{"check": "direct-vs-rotated", "value": 1 / 3, "bound": 0.5},
                {"check": "gauge-equivalence", "value": -0.0, "bound": 1e-300},
                {"check": "equator-gauge-discontinuity-detected", "value": 1.0,
                 "bound": "must raise"}]
        monkeypatch.setattr(cli, "gauge_check_rows", lambda *args: rows)
        code, _ = cli.run_preset("check-gauge", {"out": str(tmp_path),
                                                 "no_timestamp": True})
        assert code == 0
        assert (tmp_path / "gauge_check.csv").read_bytes() == (
            b"check,value,bound\r\n"
            b"direct-vs-rotated,0.33333333333333331,0.5\r\n"
            b"gauge-equivalence,-0,1e-300\r\n"
            b"equator-gauge-discontinuity-detected,1,must raise\r\n")

    def test_writer_memory_is_one_block(self):
        # 100,000 samples of d = 4: a 29 MB float table, written a block of
        # rows at a time, so the writer's peak is one block's, not the table's
        rng = np.random.default_rng(0)
        states = rng.standard_normal((100_000, 4, 4)) + 1j * rng.standard_normal((100_000, 4, 4))
        traj = Trajectory(grid=np.linspace(0.0, 1.0, len(states)), states=states)
        tracemalloc.start()
        try:
            cli.write_trajectory_csv(traj, np.eye(4, dtype=complex), os.devnull)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def per_value(table):
    """The reference rendering: each value through Python's own ``%.17g``."""
    return b"".join((",".join("%.17g" % v for v in row) + "\r\n").encode()
                    for row in np.asarray(table, dtype=float).tolist())


def edge_values():
    """Both signs of: zero, the ends of the subnormal and normal ranges,
    10^k and its two neighbours for k in -320..308 (the largest double
    below each power is the one that could round up to it; none does at
    17 digits), the %g switch points near 1e-5, 1e-4, 1e16 and 1e17, and
    exact ties at the 18th digit, which round half to even."""
    fi = np.finfo(float)
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    switch = [9.99995e-5, 1.00005e-4, 0.000123456789, 9.999999999999999e15,
              1.2345678901234567e16, 9.8765432109876543e16, 1.5e17, 12345678.9]
    ties = [1000000000000000.25, 131073 / 131072, 26215 / 262144, 5243 / 524288]
    values = np.concatenate([
        [0.0, fi.smallest_subnormal, fi.tiny, np.nextafter(fi.tiny, 0.0), fi.max],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), switch, ties])
    return np.concatenate([values, -values])


class TestFloatFormatter:
    """``cli._csv_lines`` gives exactly the bytes of ``'%.17g' % v``, with
    ``,`` between values and ``\\r\\n`` after each row."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
           st.integers(1, 4))
    def test_bit_patterns(self, bits, rows):
        # arbitrary doubles: NaNs and infinities included
        table = np.array(bits * rows, dtype=np.uint64).view(float).reshape(rows, -1)
        assert cli._csv_lines(table) == per_value(table)

    def test_edge_table(self):
        table = edge_values()[:, None]
        assert cli._csv_lines(table) == per_value(table)

    def test_scaled_and_rounded_values(self):
        rng = np.random.default_rng(5)
        scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-40, 40, 20_000)
        rounded = [round(v, k) for v, k in zip(rng.standard_normal(2_000).tolist(),
                                               rng.integers(0, 17, 2_000).tolist())]
        table = np.concatenate([scaled, rounded]).reshape(-1, 11)
        assert cli._csv_lines(table) == per_value(table)

    def test_exact_path_alone_gives_the_same_bytes(self, monkeypatch):
        # the guard of a long double with fewer than 64 mantissa bits
        monkeypatch.setattr(cli, "_FAST_DIGITS", False)
        rng = np.random.default_rng(6)
        table = np.concatenate([edge_values(), rng.standard_normal(1_000)])[:, None]
        assert cli._csv_lines(table) == per_value(table)

    def test_no_rows(self):
        assert cli._csv_lines(np.empty((0, 3))) == b""


class TestRunner:
    def test_off_grid_s_raises(self):
        ctx = runner.holonomy_context(math.pi / 4, (0.4, 0.2, 0.4, 0.0),
                                      models.Gauge.NORTH_POLE_REGULAR, 1.0, 0.1,
                                      math.pi / 5, 3 * math.pi / 4)
        gen = ctx.exact_generator(0.1)
        assert gen(0.05).shape == (16, 16)      # a step midpoint
        for s in (0.07, -0.05, 1.05):
            with pytest.raises(KeyError):
                gen(s)

    def test_gauge_check_integrates_only_the_approximate_equation(self, monkeypatch):
        # each gauge steps its assembly's approximate pieces as the one-gamma pencil
        assembled, stepped = [], []
        pieces = RotatedFrameGenerator.pieces

        def recording(generator, s, kinds, dissipative=True):
            assembled.append((id(generator), tuple(kinds)))
            return pieces(generator, s, kinds, dissipative)
        monkeypatch.setattr(RotatedFrameGenerator, "pieces", recording)
        propagate = runner.propagate_piecewise_exp

        def counting(generator, *args, **kwargs):
            stepped.append(kwargs.get("gammas"))
            return propagate(generator, *args, **kwargs)
        monkeypatch.setattr(runner, "propagate_piecewise_exp", counting)
        rows = cli.gauge_check_rows(T=0.2, gamma=0.1, dt=1e-3)
        assert stepped == [[0.1]] * 2       # one per gauge
        assert {kinds for _, kinds in assembled} == {(True,)}
        assert len({generator for generator, _ in assembled}) == 2
        assert [r["check"] for r in rows][:2] == ["direct-vs-rotated",
                                                  "gauge-equivalence"]

    def test_gauge_check_keeps_checkpoint_states_only(self, monkeypatch):
        # its three integrations hand their states to a sink, and only the
        # ten checkpoint states of each gauge are rotated to the lab frame
        sinks, rotated = [], []
        for module in (runner, cli):
            def recording(*args, propagate=module.propagate_piecewise_exp, **kwargs):
                sinks.append(kwargs.get("sink"))
                return propagate(*args, **kwargs)
            monkeypatch.setattr(module, "propagate_piecewise_exp", recording)
        to_lab = runner.RunContext.to_lab

        def counting(ctx, trajectory):
            rotated.append(trajectory.states.shape)
            return to_lab(ctx, trajectory)
        monkeypatch.setattr(runner.RunContext, "to_lab", counting)
        cli.gauge_check_rows(T=0.2, gamma=0.1, dt=1e-3)
        assert len(sinks) == 3 and all(callable(sink) for sink in sinks)
        assert rotated == [(10, 4, 4)] * 2

    def test_pool_bounded_by_tasks_and_cpus(self, monkeypatch):
        started, mapped = [], []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                mapped.append([t["T"] / t["dt"] for t in tasks])
                return [[] for _ in tasks]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        task = {"T": 1.0, "dt": 0.1}
        runner.sweep([task] * 3, workers=64)
        runner.sweep([task] * 10, workers=64)
        runner.sweep([task] * 10, workers=2)
        monkeypatch.setenv("ADIABAT_THREADS", "1000")
        runner.sweep([task] * 10)
        assert started == [3, 4, 2, 4]
        # the slot with the most steps first
        runner.sweep([task, {"T": 4.0, "dt": 0.1}, {"T": 2.0, "dt": 0.01}], workers=2)
        assert mapped[-1] == [200.0, 40.0, 10.0]


class TestRandomConfig:
    def test_random_model_config(self, tmp_path):
        path = write_config(tmp_path, model="random_rotating", seed=11,
                            gamma_list=[0.004], T_list=[4.0], dt=0.05,
                            outputs=str(tmp_path / "rnd"))
        assert cli.main(["run", "--config", str(path), "--no-timestamp"]) == 0
        rows = read_rows(tmp_path / "rnd" / "sweep.csv")
        assert rows[0]["model"] == "random_rotating"
        # identity reference subspace: no intensity loss by construction
        assert abs(float(rows[0]["loss_exact"])) < 1e-10

    def test_seed_changes_output(self, tmp_path):
        metrics = []
        for seed, name in ((11, "s11"), (12, "s12")):
            path = write_config(tmp_path, model="random_rotating", seed=seed,
                                gamma_list=[0.004], T_list=[4.0], dt=0.05,
                                outputs=str(tmp_path / name))
            assert cli.main(["run", "--config", str(path), "--no-timestamp"]) == 0
            rows = read_rows(tmp_path / name / "sweep.csv")
            metrics.append(float(rows[0]["max_hs_error"]))
        assert metrics[0] != metrics[1]


class TestPresets:
    def test_fig_loss_assertions_on_reduced_ladder(self, tmp_path):
        # exercise the preset's embedded assertions on a short T ladder
        cfg = cli.ExperimentConfig(T_list=(20.0, 100.0))
        rows = cli.PRESETS["fig-loss"][0](cfg, str(tmp_path), False, 1)
        assert (tmp_path / "sweep.csv").exists()
        zero_rows = [r for r in rows if r["gamma"] == 0.0]
        assert all(abs(r["loss_approx"]) <= 1e-10 for r in zero_rows)

    def test_worker_pool_matches_serial(self, tmp_path):
        from adiabat import runner
        cfg = cli.ExperimentConfig(T_list=(1.0, 2.0), dt=0.05,
                                   gamma_list=(0.0, 0.1))
        serial = runner.sweep(cfg.tasks(), workers=1)
        pooled = runner.sweep(cfg.tasks(), workers=2)
        assert [r["max_hs_error"] for r in serial] == \
               [r["max_hs_error"] for r in pooled]

    def test_thread_env_override(self, monkeypatch):
        from adiabat import runner
        monkeypatch.setenv("ADIABAT_THREADS", "3")
        assert runner.worker_count() == 3
        monkeypatch.delenv("ADIABAT_THREADS")
        assert runner.worker_count() >= 1

    def test_check_lindblad(self, tmp_path):
        code = cli.main(["check", "check-lindblad", "--out", str(tmp_path),
                         "--no-timestamp"])
        assert code == 0
        rows = read_rows(tmp_path / "lindblad_check.csv")
        assert len(rows) == 20
        assert all(float(r["reconstruction_error"]) <= 1e-9 for r in rows)
        assert all(float(r["lambda_min"]) >= -1e-10 for r in rows)

    def test_assertion_failure_exit_code(self, tmp_path, monkeypatch):
        # force an embedded assertion to trip and check the exit path
        def broken_rows(*args):
            return [{"model": "holonomy", "s": 0.5,
                     "reconstruction_error": 1.0, "lambda_min": 0.0}]
        monkeypatch.setattr(cli, "_lindblad_check_rows", broken_rows)
        code, rows = cli.run_preset("check-lindblad",
                                    {"out": str(tmp_path), "no_timestamp": True})
        assert code == 1 and rows is None

    def test_check_presets_take_overrides(self, tmp_path, monkeypatch):
        seen = {}

        def recorder(name):
            def record(*args):
                seen[name] = args
                return []
            return record
        monkeypatch.setattr(cli, "gauge_check_rows", recorder("gauge"))
        monkeypatch.setattr(cli, "_lindblad_check_rows", recorder("lindblad"))
        overrides = {"out": str(tmp_path), "no_timestamp": True, "dt": 2e-4, "seed": 5}
        for name in ("check-gauge", "check-lindblad"):
            assert cli.run_preset(name, overrides)[0] == 0
        assert seen == {"gauge": (2.0, 0.1, 2e-4), "lindblad": (5,)}

    @pytest.mark.parametrize("dt", ["3", "0.5"])
    def test_check_gauge_dt_measured_against_its_own_runtime(self, tmp_path, capsys,
                                                             monkeypatch, dt):
        # check-gauge runs T = 2, so dt is at most 0.2
        monkeypatch.setattr(cli, "gauge_check_rows", lambda *a: pytest.fail("check ran"))
        assert cli.main(["run", "--preset", "check-gauge", "--dt", dt,
                         "--out", str(tmp_path)]) == 2
        assert "config error: dt must be at most min(T)/10" in capsys.readouterr().err

    def test_preset_configs_validate(self):
        for name, (_, make_cfg) in cli.PRESETS.items():
            make_cfg().validate()
