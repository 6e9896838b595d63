import csv
import json
import math
import pickle

import pytest

from adiabat import cli, models, runner
from adiabat.errors import AssertionFailed, ConfigInvalid


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

    def test_errors_survive_pickling(self):
        exc = pickle.loads(pickle.dumps(AssertionFailed("x", 1.0, 1e-7)))
        assert (exc.name, exc.measured, exc.bound) == ("x", 1.0, 1e-7)
        assert str(exc) == str(AssertionFailed("x", 1.0, 1e-7))
        exc = pickle.loads(pickle.dumps(ConfigInvalid("bad dt", field="dt")))
        assert exc.field == "dt" and str(exc) == "bad dt"


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
        calls = []
        propagate = runner.propagate_piecewise_exp

        def counting(*args, **kwargs):
            calls.append(kwargs["metadata"]["gamma"])
            return propagate(*args, **kwargs)
        monkeypatch.setattr(runner, "propagate_piecewise_exp", counting)
        path = write_config(tmp_path, T_list=[1.0, 2.0], dt=0.1)
        code, rows = cli.run_config(str(path), {"workers": 1, "no_timestamp": True})
        assert code == 0 and len(rows) == 4
        assert len(calls) == 2 * len(rows)
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

    def test_pool_bounded_by_tasks_and_cpus(self, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [[] for _ in tasks]

        monkeypatch.setattr(runner, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        runner.sweep([{}] * 3, workers=64)
        runner.sweep([{}] * 10, workers=64)
        runner.sweep([{}] * 10, workers=2)
        monkeypatch.setenv("ADIABAT_THREADS", "1000")
        runner.sweep([{}] * 10)
        assert started == [3, 4, 2, 4]


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
        def broken_rows():
            return [{"model": "holonomy", "s": 0.5,
                     "reconstruction_error": 1.0, "lambda_min": 0.0}]
        monkeypatch.setattr(cli, "_lindblad_check_rows", broken_rows)
        code, rows = cli.run_preset("check-lindblad",
                                    {"out": str(tmp_path), "no_timestamp": True})
        assert code == 1 and rows is None

    def test_preset_configs_validate(self):
        for name, (_, make_cfg) in cli.PRESETS.items():
            make_cfg().validate()
