import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from nfisac import cli, geometry, harness, lp
from nfisac.errors import ConfigError, OptimizationAbort, PlacementError
from tests.conftest import desk_config


class TestBuildScenario:
    def test_user_centers_match_reference_arithmetic(self):
        sc = harness.build_scenario(desk_config(dtk=30.0))
        assert sc.user_regions[0].center[0] == pytest.approx(-3 - 30 / math.sqrt(2), rel=1e-12)
        assert sc.user_regions[0].center[0] == pytest.approx(-24.213, abs=5e-4)
        assert sc.user_regions[1].center[0] == pytest.approx(-3 + 30 / math.sqrt(2), rel=1e-12)
        for region in sc.user_regions:
            assert region.center[1] == 1.5
            assert region.center[2] == pytest.approx(30 / math.sqrt(2), rel=1e-12)

    def test_wavelength_from_carrier(self):
        sc = harness.build_scenario(desk_config())
        assert sc.lam == pytest.approx(0.01)
        np.testing.assert_allclose(sc.target, [10.0, 1.5, 10.0])

    def test_zero_dtk_rejected(self):
        with pytest.raises(ConfigError):
            harness.build_scenario(desk_config(dtk=0.0))

    def test_zf_overload_rejected(self):
        cfg = desk_config(n_t=4, n_u=4, schemes=("ZF-MA",), preset="weights")
        with pytest.raises(ConfigError):
            cfg.validate()

    # highest reachable gamma0 = rho_s^2 n_r n_t / sigma_z^2 at the default
    # geometry, and whether the profile's own gamma0 lies below it
    @pytest.mark.parametrize("profile, bound, default_ok", [
        ("full", 5.7e-13, False), ("trend", 7.13e-5, True), ("desk", 1.43e-4, True)])
    def test_unreachable_gamma0_rejected(self, profile, bound, default_ok):
        cfg = harness.apply_profile(harness.ExperimentConfig(), profile)
        with pytest.raises(ConfigError, match=f"highest reachable gamma0 is {bound:.3g}"):
            harness.build_scenario(replace(cfg, gamma0=1.01 * bound))
        harness.build_scenario(replace(cfg, gamma0=0.99 * bound))
        if default_ok:
            harness.build_scenario(cfg)
        else:
            with pytest.raises(ConfigError):
                harness.build_scenario(cfg)


class TestInitialPlacement:
    def test_seed_repeatability(self, scenario):
        p1 = harness.initial_placement(scenario, harness.trial_rng(9, 4))
        p2 = harness.initial_placement(scenario, harness.trial_rng(9, 4))
        np.testing.assert_array_equal(p1.t, p2.t)
        for a, b in zip(p1.q, p2.q):
            np.testing.assert_array_equal(a, b)

    def test_placements_valid_and_distinct_across_trials(self, scenario):
        p1 = harness.initial_placement(scenario, harness.trial_rng(9, 0))
        p2 = harness.initial_placement(scenario, harness.trial_rng(9, 1))
        p1.validate(scenario)
        p2.validate(scenario)
        assert not np.array_equal(p1.t, p2.t)

    def test_single_antenna_always_feasible(self):
        sc = harness.build_scenario(desk_config(n_t=1, n_u=1))
        pl = harness.initial_placement(sc, harness.trial_rng(1, 0))
        assert pl.t.shape == (1, 3)

    def test_dense_packing_accepted(self):
        # four antennas at 0.5 cm spacing in a 15 cm square: acceptance should
        # be nearly certain over many seeds
        sc = harness.build_scenario(desk_config(n_u=4, n_t=8))
        failures = 0
        for trial in range(300):
            try:
                harness.initial_placement(sc, harness.trial_rng(13, trial))
            except PlacementError:
                failures += 1
        assert failures <= 3

    def test_impossible_packing_rejected(self):
        sc = harness.build_scenario(desk_config(d_min=0.2))  # 20 cm in a 15 cm box
        with pytest.raises(PlacementError):
            harness.initial_placement(sc, harness.trial_rng(1, 0))


class TestConfig:
    def test_parse_round_trip(self):
        text = """
        # comment line
        preset = weights
        trials = 3
        seed = 42
        gamma0 = 2e-5
        schemes = LP-MA, ZF-MA
        """
        values = harness.parse_config_text(text)
        assert values["preset"] == "weights"
        assert values["trials"] == 3
        assert values["gamma0"] == 2e-5
        assert values["schemes"] == ("LP-MA", "ZF-MA")

    def test_every_config_field_parses_to_its_type(self):
        from dataclasses import fields
        samples = {str: "json", int: "7", float: "2.5", tuple: "1, 2"}
        cfg_fields = fields(harness.ExperimentConfig)
        text = "\n".join(f"{f.name} = {samples[type(f.default)]}" for f in cfg_fields)
        values = harness.parse_config_text(text)
        expect = {str: "json", int: 7, float: 2.5, tuple: ("1", "2")}
        for f in cfg_fields:
            kind = type(f.default)
            assert type(values[f.name]) is kind, f.name
            want = (1.0, 2.0) if f.name == "sweep" else expect[kind]
            assert values[f.name] == want, f.name

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            harness.parse_config_text("bogus_key = 1")

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("trials = 7\nseed = 1\n")
        cfg = harness.load_config(str(path), {"seed": 99})
        assert cfg.trials == 7
        assert cfg.seed == 99

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ConfigError):
            harness.load_config(None, {"schemes": ("MANY-MA",)})

    def test_weights_grid_condition(self):
        cfg = desk_config(preset="weights")
        for w1 in cfg.sweep_grid():
            assert 0 < w1 < 1  # w2 = 1 - w1 stays a valid weight pair

    # model values no trial can use, each rejected with its own message
    # before any trial runs; the last two reach the model through the sweep
    @pytest.mark.parametrize("overrides, message", [
        ({"n_u": 0}, "n_u must be >= 1"),
        ({"lam": -0.01}, "lam must be finite and positive"),
        ({"n_t": 0}, "n_t must be >= 1"),
        ({"p_max": math.inf}, "p_max must be finite and positive"),
        ({"zeta": -0.5}, "zeta must be finite and >= 0"),
        ({"preset": "gradcheck", "gradcheck_configs": 0}, "gradcheck_configs must be >= 1"),
        ({"preset": "power", "sweep": (0.5, math.inf)}, "p_max must be finite and positive"),
        ({"preset": "nk", "sweep": (0.0, 1.0)}, "n_u must be >= 1"),
    ])
    def test_unusable_model_value_rejected(self, monkeypatch, overrides, message):
        with pytest.raises(ConfigError, match=message):
            harness.load_config(None, {"profile": "trend", **overrides})
        started = []
        monkeypatch.setattr(harness, "run_trial", started.append)
        with pytest.raises(ConfigError, match=message):
            harness.run_preset(desk_config(workers=1, **overrides))
        assert started == []

    # NaN fails every comparison, so each check is written to fail on it;
    # gradcheck sweeps nothing, so the config's own value is the one that runs
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["dtk", "gamma0", "d_min"])
    def test_non_finite_model_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            harness.load_config(None, {"profile": "trend", "preset": "gradcheck",
                                       field: value})

    def test_n_users_is_not_a_config_key(self):
        # build_scenario always places two users
        with pytest.raises(ConfigError, match="unknown key 'n_users'"):
            harness.parse_config_text("n_users = 2")
        with pytest.raises(ConfigError):
            harness.load_config(None, {"n_users": 2})

    # each sweep point is checked at the value its trials run: the preset's
    # field, in that field's type
    def test_nk_sweep_point_must_be_whole(self):
        with pytest.raises(ConfigError, match="sweep value 1.5 is not a valid n_u"):
            harness.load_config(None, {"profile": "trend", "preset": "nk",
                                       "schemes": ("LP-FIX",), "sweep": (1.5,)})

    def test_weights_sweep_point_checked_as_w1(self):
        with pytest.raises(ConfigError, match=r"w1 must lie in \[0, 1\]"):
            harness.load_config(None, {"profile": "trend", "preset": "weights",
                                       "sweep": (0.5, 1.5)})

    def test_zf_rule_checked_at_each_nk_point(self):
        base = {"profile": "trend", "preset": "nk", "schemes": ("ZF-MA",)}
        assert harness.load_config(None, {**base, "sweep": (1.0, 2.0)}).n_t == 4
        with pytest.raises(ConfigError, match="sweep value 2.5 is not a valid n_u"):
            harness.load_config(None, {**base, "sweep": (2.5,)})
        with pytest.raises(ConfigError, match=r"got 2\*3 > 4"):
            harness.load_config(None, {**base, "sweep": (1.0, 3.0)})


class TestEmit:
    ROWS = [
        {"preset": "weights", "scheme": "LP-MA", "sweep": 0.5, "trial": 0,
         "seed": 7, "wsr_bits": 3.25, "gamma_s": 1.5e-5, "ps_db": -231.0,
         "iters": 9, "wall_ms": 123.456},
        {"preset": "weights", "scheme": "ZF-FIX", "sweep": 0.5, "trial": 1,
         "seed": 7, "wsr_bits": float("nan"), "gamma_s": float("nan"),
         "ps_db": float("nan"), "iters": -1, "wall_ms": 4.2},
    ]

    def test_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        harness.emit(self.ROWS, str(path), "csv")
        first = path.read_text().splitlines()[0]
        assert first == "preset,scheme,sweep,trial,seed,wsr_bits,gamma_s,ps_db,iters,wall_ms"

    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        harness.emit([], str(path), "csv")
        assert path.read_text() == harness.CSV_HEADER + "\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        harness.emit(self.ROWS, str(path), "csv")
        back = harness.parse_csv(str(path))
        assert back[0]["scheme"] == "LP-MA"
        assert back[0]["wsr_bits"] == 3.25
        assert back[1]["iters"] == -1
        assert math.isnan(back[1]["wsr_bits"])

    def test_json_format(self, tmp_path):
        path = tmp_path / "r.json"
        harness.emit(self.ROWS[:1], str(path), "json")
        data = json.loads(path.read_text())
        assert data[0]["scheme"] == "LP-MA"
        assert data[0]["iters"] == 9

    def test_bits_conversion(self):
        # one nat recorded by a run appears as 1/ln2 bits in the row
        assert 1.0 / harness.LN2 == pytest.approx(1.4427, abs=1e-4)

    def test_unwritable_path(self):
        with pytest.raises(ConfigError):
            harness.emit(self.ROWS, "/nonexistent-dir/x.csv", "csv")


def _tiny_cfg(tmp_path, **over):
    base = dict(profile="trend", preset="weights", schemes=("LP-FIX",),
                trials=2, seed=5, out=str(tmp_path / "out.csv"),
                sweep=(0.5,), workers=1)
    base.update(over)
    return harness.load_config(None, base)


class TestRunPreset:
    def test_rows_schema_and_count(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        rows, trace_rows, n_failed = harness.run_preset(cfg)
        assert len(rows) == 2
        assert n_failed == 0
        for row in rows:
            assert set(row) == set(harness.CSV_HEADER.split(","))
            assert row["wsr_bits"] >= 0
            assert row["gamma_s"] >= 0

    def test_determinism_byte_identical(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        rows1, _, _ = harness.run_preset(cfg)
        rows2, _, _ = harness.run_preset(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit(rows1, str(p1), "csv")
        harness.emit(rows2, str(p2), "csv")

        def strip_wall(path):
            lines = path.read_text().splitlines()
            return ["," .join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(p1) == strip_wall(p2)

    def test_worker_count_irrelevant(self, tmp_path):
        rows1, _, _ = harness.run_preset(_tiny_cfg(tmp_path, workers=1))
        rows2, _, _ = harness.run_preset(_tiny_cfg(tmp_path, workers=2))
        for a, b in zip(rows1, rows2):
            assert a["wsr_bits"] == b["wsr_bits"]
            assert a["gamma_s"] == b["gamma_s"]

    def test_fix_ma_share_initial_placement(self):
        # the placement depends only on (seed, trial), never the scheme
        sc = harness.build_scenario(desk_config())
        p_fix = harness.initial_placement(sc, harness.trial_rng(5, 0))
        p_ma = harness.initial_placement(sc, harness.trial_rng(5, 0))
        np.testing.assert_array_equal(p_fix.t, p_ma.t)

    def test_convergence_preset_emits_trace(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, preset="convergence", sweep=(30.0,), trials=1)
        rows, trace_rows, _ = harness.run_preset(cfg)
        assert trace_rows
        assert {"iteration", "block", "wsr_bits"} <= set(trace_rows[0])

    def test_unreachable_sweep_point_rejected_before_any_trial(self, tmp_path, monkeypatch):
        # trend reaches gamma0 <= 7.1e-5, so the second point of {1e-5, 1e-4} fails
        def no_trials(spec):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        cfg = _tiny_cfg(tmp_path, preset="gamma0", sweep=(1e-5, 1e-4))
        with pytest.raises(ConfigError, match="gamma0=0.0001 is unreachable"):
            harness.run_preset(cfg)

    def test_failed_trial_keeps_its_reason_outside_the_schema(self, tmp_path, monkeypatch):
        def abort(*args, **kwargs):
            raise OptimizationAbort("two consecutive failed AO loops at iteration 2")

        monkeypatch.setattr(lp, "run_lp", abort)
        cfg = _tiny_cfg(tmp_path)
        rows, _, n_failed = harness.run_preset(cfg)
        assert n_failed == 2
        for row in rows:
            assert row["iters"] == -1
            assert row["error"] == ("OptimizationAbort: two consecutive failed AO "
                                    "loops at iteration 2")
            assert set(row) - set(harness.CSV_HEADER.split(",")) == {"error"}
        for fmt in ("csv", "json"):
            path = tmp_path / f"failed.{fmt}"
            harness.emit(rows, str(path), fmt)
            assert "error" not in path.read_text()
            assert "OptimizationAbort" not in path.read_text()

    def test_gradcheck_preset_rows(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, preset="gradcheck", gradcheck_configs=1)
        rows, _, n_failed = harness.run_preset(cfg)
        assert n_failed == 0
        assert {r["check"] for r in rows} >= {"lp_deficit_grad_bs", "zf_deficit_grad_bs"}


class _InProcessPool:
    """Stand-in for ``multiprocessing.Pool`` that records the process count
    it was asked for and maps in this process, so no process starts."""

    def __init__(self, started, processes=None):
        started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestWorkers:
    @pytest.fixture
    def started(self, monkeypatch):
        import multiprocessing

        started = []
        monkeypatch.setattr(multiprocessing, "Pool",
                            lambda processes=None: _InProcessPool(started, processes))
        monkeypatch.setattr(harness, "run_trial", lambda spec: (
            {"trial": spec.trial, "iters": 1}, []))
        return started

    @pytest.mark.parametrize("workers", [0, 2, 3, 64])
    def test_pool_never_exceeds_the_trials(self, tmp_path, started, workers):
        cfg = _tiny_cfg(tmp_path, workers=workers, trials=3)
        rows, _, n_failed = harness.run_preset(cfg)
        assert [r["trial"] for r in rows] == [0, 1, 2] and n_failed == 0
        auto = min(8, os.cpu_count() or 1)
        expect = min(workers or auto, 3)
        assert started == ([expect] if expect > 1 else [])

    def test_negative_workers_rejected(self, tmp_path, started):
        with pytest.raises(ConfigError, match="workers"):
            _tiny_cfg(tmp_path, workers=-1)
        rc = cli.main(["--profile", "trend", "--preset", "weights", "--scheme", "LP-FIX",
                       "--trials", "1", "--workers", "-1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert started == []


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = cli.main(["--preset", "weights", "--trials", "0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unusable_model_value_exit_code(self, tmp_path, capsys):
        out = tmp_path / "nu0.csv"
        rc = cli.main(["--profile", "trend", "--nu", "0", "--out", str(out)])
        assert rc == 2
        assert "config error: n_u must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_full_profile_exit_code(self, tmp_path, capsys):
        out = tmp_path / "full.csv"
        rc = cli.main(["--profile", "full", "--preset", "weights", "--trials", "1",
                       "--out", str(out)])
        assert rc == 2
        assert "highest reachable gamma0" in capsys.readouterr().err
        assert not out.exists()

    def test_small_run_exit_zero(self, tmp_path):
        out = tmp_path / "cli.csv"
        rc = cli.main(["--profile", "trend", "--preset", "gradcheck",
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == harness.GRADCHECK_HEADER

    def test_wrong_gradient_exit_code(self, tmp_path, capsys, monkeypatch):
        real = lp.grad_bs_sinr_deficit_lp
        monkeypatch.setattr(lp, "grad_bs_sinr_deficit_lp",
                            lambda *args: 2.0 * real(*args))
        out = tmp_path / "grad.csv"
        rc = cli.main(["--profile", "trend", "--preset", "gradcheck",
                       "--seed", "1", "--out", str(out)])
        assert rc == 3
        lines = out.read_text().splitlines()
        failed = [line for line in lines[1:] if line.endswith(",False")]
        assert failed and all(line.startswith("lp_deficit_grad_bs,") for line in failed)
        err = capsys.readouterr().err
        assert f"{len(failed)}/{len(lines) - 1} gradient check rows failed" in err

    def test_failure_classes_counted_on_stderr(self, tmp_path, capsys, monkeypatch):
        def abort(*args, **kwargs):
            raise OptimizationAbort("stub")

        monkeypatch.setattr(lp, "run_lp", abort)
        out = tmp_path / "failed.csv"
        rc = cli.main(["--profile", "trend", "--preset", "weights", "--scheme", "LP-FIX",
                       "--trials", "1", "--workers", "1", "--out", str(out)])
        assert rc == 3                      # one trial per weight, all failed
        err = capsys.readouterr().err
        assert "failed trials by class: OptimizationAbort 5" in err
        assert out.read_text().splitlines()[0] == harness.CSV_HEADER

    @pytest.mark.parametrize("flag, value, field, expect", [
        ("--profile", "trend", "profile", "trend"),
        ("--preset", "weights", "preset", "weights"),
        ("--scheme", "LP-FIX", "schemes", ("LP-FIX",)),
        ("--trials", "3", "trials", 3),
        ("--seed", "7", "seed", 7),
        ("--out", "elsewhere.csv", "out", "elsewhere.csv"),
        ("--format", "json", "format", "json"),
        ("--dtk", "25", "dtk", 25.0),
        ("--pmax", "0.5", "p_max", 0.5),
        ("--gamma0", "2e-5", "gamma0", 2e-5),
        ("--nu", "1", "n_u", 1),
        ("--weights", "0.3", "w1", 0.3),
        ("--workers", "1", "workers", 1),
    ])
    def test_each_flag_reaches_its_field(self, monkeypatch, flag, value, field, expect):
        seen = []

        def stop(cfg):
            seen.append(cfg)
            raise ConfigError("stop before any trial")

        monkeypatch.setattr(harness, "run_preset", stop)
        assert cli.main([flag, value]) == 2
        cfg, = seen
        assert getattr(cfg, field) == expect
        # every other field keeps the value it has without the flag
        default = harness.load_config(None, {"profile": cfg.profile})
        assert replace(cfg, **{field: getattr(default, field)}) == default

    def test_unknown_flag_value_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["--preset", "nonsense"])
