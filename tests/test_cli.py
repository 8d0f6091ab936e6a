"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import archadapt as aa
from archadapt.cli import (
    CONFIG_KEYS,
    _parse_bool,
    _parse_floats,
    _parse_ints,
    _parse_scenario,
    build_run_config,
    main,
    parse_config_file,
)

FAST_CONFIG = """\
# toy setup small enough for test runtime
plan.scenario = class_growth
plan.steps = 2,4,8
plan.seed = 3

space.n_units = 2
space.depth_choices = 2,3
space.kernel_choices = 3,5
space.expansion_choices = 3
space.input_resolution = 32
space.stem_channels = 16
space.unit_out_channels = 16,24
space.unit_strides = 2,2

surrogate.bump_width = 0.1
surrogate.opt_intercept = 0.55
surrogate.opt_slope = 0.4
surrogate.depth_penalty = 0.0

gate.epsilon = 0.0

trainer.iterations = 40
trainer.learning_rate = 0.005
trainer.hidden_size = 16
trainer.encoder_hidden = 16
trainer.arch_embed_dim = 8
trainer.shift_embed_dim = 4
trainer.token_embed_dim = 8
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG)
    return path


def _write_features(path, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    aa.save_features_csv(path, rng.normal(size=(200, 4)) + shift)


class TestDistance:
    def test_identical_file_zero(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        _write_features(path, 0)
        assert main(["distance", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("d=0.000000")

    def test_separated_positive(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_features(a, 0)
        _write_features(b, 0, shift=5.0)
        assert main(["distance", str(a), str(b)]) == 0
        d = float(capsys.readouterr().out.split("=")[1])
        assert d > 50.0

    def test_js_flag(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_features(a, 0)
        _write_features(b, 0, shift=50.0)
        assert main(["distance", str(a), str(b), "--js",
                     "--samples", "2000"]) == 0
        out = capsys.readouterr().out.strip()
        assert " js=" in out
        js = float(out.split("js=")[1])
        assert js >= 0.99

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["distance", str(tmp_path / "no.csv"),
                     str(tmp_path / "no.csv")]) == 2


class TestSimulate:
    def test_writes_snapshots(self, tmp_path, config_file):
        out = tmp_path / "snaps"
        assert main(["simulate", "--config", str(config_file),
                     "--out", str(out)]) == 0
        for i in range(3):
            assert (out / f"snapshot_{i:03d}.csv").exists()
            assert (out / f"snapshot_{i:03d}.meta").exists()
        snap = aa.load_snapshot(out / "snapshot_002.csv")
        assert snap.meta.n_classes == 8


class TestGate:
    def test_identical_snapshots_hold(self, tmp_path, config_file, capsys):
        out = tmp_path / "snaps"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        snap = str(out / "snapshot_001.csv")
        assert main(["gate", snap, snap, "--config", str(config_file),
                     "--set", "gate.epsilon=0.02"]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "H_t=0.0000 adapt=false"

    def test_engineered_shift_adapts(self, tmp_path, config_file, capsys):
        out = tmp_path / "snaps"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["gate", str(out / "snapshot_000.csv"),
                     str(out / "snapshot_002.csv"),
                     "--config", str(config_file)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("H_t=")
        assert line.endswith("adapt=true")

    # The first two used to escape cli.main as a ValueError traceback and
    # exit 1; the class counts exited 1 as a config error, and the last two
    # gated with exit 0.
    @pytest.mark.parametrize("key, value, message", [
        ("n_classes", "abc", "meta key 'n_classes' must be int, got 'abc'"),
        ("volume_fraction", "nan", "snapshot_001.meta: meta key 'volume_fraction' must be in (0, 1], got nan"),
        ("max_classes", "1", "snapshot_001.meta: meta key 'max_classes' must be >= 2, got 1"),
        ("n_classes", "0", "snapshot_001.meta: meta key 'n_classes' must be >= 1, got 0"),
        ("volume_fraction", "-5", "snapshot_001.meta: meta key 'volume_fraction' must be in (0, 1], got -5"),
        ("n_classes", "99", "snapshot_001.meta: meta key 'n_classes' must be <= max_classes 8, got 99"),
    ], ids=["n_classes", "volume_fraction", "max_classes_1", "n_classes_0", "volume_fraction_-5",
            "n_classes_99"])
    def test_bad_sidecar_value_exits_2(self, tmp_path, config_file, capsys, key, value, message):
        out = tmp_path / "snaps"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        sidecar = out / "snapshot_001.meta"
        sidecar.write_text(re.sub(f"(?m)^{key}=.*$", f"{key}={value}", sidecar.read_text()))
        assert main(["gate", str(out / "snapshot_000.csv"), str(out / "snapshot_001.csv"),
                     "--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    # A one-class plan used to write max_classes=1, which gate rejects (exit 2).
    @pytest.mark.parametrize("sets", [
        ["plan.scenario=volume_growth", "plan.steps=0.5,1.0", "plan.n_classes=1"],
        ["plan.steps=1,1"],
    ], ids=["volume", "class"])
    def test_one_class_plan_gates(self, tmp_path, config_file, sets):
        out = tmp_path / "snaps"
        set_args = [arg for item in sets for arg in ("--set", item)]
        assert main(["simulate", "--config", str(config_file), *set_args, "--out", str(out)]) == 0
        assert aa.load_snapshot(out / "snapshot_001.csv").meta.max_classes == 2
        assert main(["gate", str(out / "snapshot_000.csv"), str(out / "snapshot_001.csv"),
                     "--config", str(config_file)]) == 0
        assert main(["adapt", "--config", str(config_file), *set_args,
                     "--out", str(tmp_path / "run")]) == 0


class TestAdapt:
    def test_records_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["adapt", "--config", str(config_file),
                         "--seed", "5", "--out", str(out)]) == 0
        b1 = (out1 / "records.json").read_bytes()
        b2 = (out2 / "records.json").read_bytes()
        assert b1 == b2

    def test_report_renders(self, tmp_path, config_file, capsys):
        out = tmp_path / "r"
        main(["adapt", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out / "records.json")]) == 0
        text = capsys.readouterr().out
        assert "t" in text and "adapted" in text
        rows = json.loads((out / "records.json").read_text())["records"]
        for row in rows:
            assert row["new_arch"] in text


class TestOracle:
    def test_matches_direct_call(self, tmp_path, config_file, capsys):
        assert main(["oracle", "--config", str(config_file),
                     "--step", "1", "--lam", "0.001", "--shift", "2.0"]) == 0
        line = capsys.readouterr().out.strip()

        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=3)
        space = aa.SpaceConfig(
            n_units=2, depth_choices=(2, 3), kernel_choices=(3, 5),
            expansion_choices=(3,), input_resolution=32, stem_channels=16,
            unit_out_channels=(16, 24), unit_strides=(2, 2))
        scfg = aa.SurrogateConfig(bump_width=0.1, opt_intercept=0.55,
                                  opt_slope=0.4, depth_penalty=0.0)
        meta = aa.gen_snapshot(plan, 1).meta
        arch, v, cost = aa.oracle_best(space, meta, scfg, lam=0.001, shift=2.0)
        assert line == f"arch={aa.encode(arch)} v={v:.4f} madds={cost:.3f}"


    def test_reads_the_meta_without_drawing(self, config_file, capsys, monkeypatch):
        # Every draw of a snapshot starts with the plan's class prototypes.
        draws = []
        real = aa.datagen.gen_prototypes
        monkeypatch.setattr(aa.datagen, "gen_prototypes",
                            lambda *args: draws.append(args) or real(*args))
        assert main(["oracle", "--config", str(config_file), "--step", "2"]) == 0
        assert main(["oracle", "--config", str(config_file), "--step", "99"]) == 1
        assert "--step: step 99 outside plan of 3 steps" in capsys.readouterr().err
        assert draws == []


class TestSweeps:
    def test_sweep_lambda_table(self, tmp_path, config_file, capsys):
        assert main(["sweep-lambda", "--config", str(config_file),
                     "--lambdas", "0,0.001"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 2
        assert all(l.startswith("lam=") for l in lines)

    def test_sweep_lambda_out_writes_the_rows(self, tmp_path, config_file, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-lambda", "--config", str(config_file),
                     "--lambdas", "0,0.001", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = json.loads((out / "sweep.json").read_text())
        assert [row["lam"] for row in rows] == [0.0, 0.001]
        assert lines[:2] == [
            f"lam={row['lam']:g} v={row['v']:.4f} madds={row['madds']:.3f} arch={row['arch']}"
            for row in rows]
        assert lines[2] == f"sweep written to {out / 'sweep.json'}"

    def test_ablate_wd_writes_both(self, tmp_path, config_file):
        out = tmp_path / "ab"
        assert main(["ablate-wd", "--config", str(config_file),
                     "--out", str(out)]) == 0
        assert (out / "with" / "records.json").exists()
        assert (out / "without" / "records.json").exists()


_RECORD = {
    "t": 1, "shift": 0.5, "drop": 0.1, "adapted": True, "prev_arch": "a", "new_arch": "b",
    "v_prev": 0.5, "v_new": 0.6, "madds_prev": 1.0, "madds_new": 2.0, "trace_file": None,
}


def _records_with(**fields):
    """A records.json of one record with every field, some of them replaced."""
    return json.dumps({"records": [{**_RECORD, **fields}]}) + "\n"


# A record with every field, but a text shift.
_MISTYPED_RECORDS = _records_with(shift="0.5")


class TestErrors:
    def test_unknown_key_names_it(self, tmp_path, config_file, capsys):
        assert main(["adapt", "--config", str(config_file),
                     "--set", "trainer.bogus=1",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "trainer.bogus" in err

    def test_bad_value_names_key_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("plan.scenario = class_growth\nplan.steps = two,four\n")
        assert main(["adapt", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "plan.steps" in err
        assert "bad.cfg:2" in err

    ZERO_SHIFT_CONFIG = (
        # Both steps round to the same 200 rows: d_t = 0, yet the gate fires.
        "plan.scenario = volume_growth\nplan.steps = 0.2,0.2004\n"
        "gate.epsilon = 0.0\nspace.n_units = 2\n"
        "space.depth_choices = 2,3\nspace.kernel_choices = 3,5\n"
        "space.expansion_choices = 3\nspace.input_resolution = 32\n"
        "space.unit_out_channels = 16,24\nspace.unit_strides = 2,2\n")

    def test_adapted_zero_shift_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(self.ZERO_SHIFT_CONFIG)
        assert main(["adapt", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "step 1" in capsys.readouterr().err

    def test_sweep_lambda_zero_shift_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(self.ZERO_SHIFT_CONFIG)
        assert main(["sweep-lambda", "--config", str(cfg), "--lambdas", "0,0.001"]) == 2
        captured = capsys.readouterr()
        assert "step 1" in captured.err
        assert captured.out == ""

    # A lambda the trainer rejects, then text that is no list of floats.
    @pytest.mark.parametrize("lambdas", ["0,-0.001", "0,nan", "abc", ","],
                             ids=["-0.001", "nan", "abc", "comma"])
    def test_sweep_lambda_bad_lambda_exits_1(self, config_file, capsys, lambdas):
        assert main(["sweep-lambda", "--config", str(config_file), "--lambdas", lambdas]) == 1
        err = capsys.readouterr().err
        assert "lam" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text",
        ["not json\n", '{"rows": []}\n', "[1, 2]\n", '{"records": 5}\n',
         '{"records": [{"t": 1}]}\n', '{"records": [[1, 2]]}\n', _MISTYPED_RECORDS,
         # A JSON boolean used to pass as the number 1 or 0 (bool is an int).
         _records_with(t=True), _records_with(shift=False), _records_with(v_new=True)],
        ids=["not-json", "no-records-key", "not-an-object", "records-not-a-list",
             "entry-missing-field", "entry-not-an-object", "entry-mistyped-field",
             "bool-t", "bool-shift", "bool-v_new"])
    def test_report_on_a_file_that_is_no_records_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "records.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not a records.json")
        assert len(captured.err.splitlines()) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["adapt", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "x")]) in (1, 2)

    def test_invalid_scenario_is_config_error(self, tmp_path, config_file,
                                              capsys):
        assert main(["adapt", "--config", str(config_file),
                     "--set", "plan.scenario=shrink",
                     "--out", str(tmp_path / "x")]) == 1

    def test_bad_set_value_names_key(self, tmp_path, config_file, capsys):
        assert main(["adapt", "--config", str(config_file),
                     "--set", "trainer.use_adam=maybe",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "--set: config key trainer.use_adam" in err

    @pytest.mark.parametrize("key", [
        "trainer.learning_rate", "trainer.weight_decay", "trainer.entropy_weight",
        "trainer.lam", "surrogate.peak_height", "surrogate.bump_width",
        "surrogate.opt_intercept", "surrogate.opt_slope", "surrogate.depth_penalty",
        "plan.sigma", "plan.proto_radius",
    ])
    def test_nonfinite_set_value_names_key(self, tmp_path, config_file, capsys, key):
        # NaN used to get through: the gate held silently, or the run
        # failed only after its setup, and records.json held NaN.
        out = tmp_path / "x"
        assert main(["adapt", "--config", str(config_file),
                     "--set", f"{key}=nan", "--out", str(out)]) == 1
        section, field = key.split(".")
        err = capsys.readouterr().err
        assert f"config section {section}: {field} must be finite" in err
        assert not out.exists()

    def test_trainer_seed_is_not_settable(self, tmp_path, config_file, capsys):
        # Every adapted step trains with a seed derived from the master seed.
        assert main(["adapt", "--config", str(config_file),
                     "--set", "trainer.seed=12345",
                     "--out", str(tmp_path / "x")]) == 1
        assert "unknown config key 'trainer.seed'" in capsys.readouterr().err

    def test_bad_initial_arch_is_config_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "x"
        assert main(["adapt", "--config", str(config_file),
                     "--set", "run.initial_arch=k3e3,k3e3",
                     "--out", str(out)]) == 1
        assert "run.initial_arch" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_gate_arch_is_usage_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "snaps"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["gate", str(out / "snapshot_000.csv"), str(out / "snapshot_001.csv"),
                     "--config", str(config_file), "--arch", "k3e3"]) == 1
        assert "--arch: expected 2 units, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["3", "-1"])
    def test_oracle_step_outside_plan_is_usage_error(self, config_file, capsys, step):
        assert main(["oracle", "--config", str(config_file), "--step", step]) == 1
        assert f"--step: step {step} outside plan of 3 steps" in capsys.readouterr().err

    # A NaN lam or shift used to print the first architecture in encoding
    # order and exit 0, and an infinite shift the lam = 0 maximizer.
    @pytest.mark.parametrize("flags, code, message", [
        (["--lam", "nan"], 1, "config error: lam must be finite and >= 0, got nan"),
        (["--lam", "-0.001"], 1, "config error: lam must be finite and >= 0, got -0.001"),
        (["--lam", "0.001", "--shift", "nan"], 2,
         "error: shift must be positive when lam != 0, got nan"),
        (["--lam", "0.001", "--shift", "inf"], 2,
         "error: shift must be finite when lam != 0, got inf"),
    ], ids=["nan-lam", "negative-lam", "nan-shift", "inf-shift"])
    def test_oracle_bad_lam_or_shift(self, config_file, capsys, flags, code, message):
        assert main(["oracle", "--config", str(config_file), "--step", "1", *flags]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"

    # A negative seed used to die in numpy with a ValueError traceback. The
    # master seed is kept to 32 bits by derive_seed: adapt --seed -1 used to
    # exit 0 with the records of --seed 4294967295.
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--set", "plan.seed=-1"],
         "config error: config section plan: seed must be >= 0, got -1"),
        (["adapt", "--set", "plan.seed=-1"],
         "config error: config section plan: seed must be >= 0, got -1"),
        (["simulate", "--set", "plan.seed=4294967296"],
         "config error: config section plan: seed must be < 2**32, got 4294967296"),
        (["simulate", "--seed", "-1"], "config error: --seed: seed must be >= 0, got -1"),
        (["adapt", "--seed", "-1"], "config error: --seed: seed must be >= 0, got -1"),
        (["adapt", "--seed", "4294967296"], "config error: --seed: seed must be < 2**32, got 4294967296"),
        (["adapt", "--set", "run.master_seed=-1"],
         "config error: config key run.master_seed: seed must be >= 0, got -1"),
    ], ids=["simulate-plan-seed", "adapt-plan-seed", "plan-seed-past-32-bits", "simulate-seed", "adapt-seed",
            "adapt-seed-past-32-bits", "adapt-master-seed-key"])
    def test_negative_plan_seed_exits_1(self, tmp_path, config_file, capsys, argv, message):
        out = tmp_path / "x"
        assert main([*argv, "--config", str(config_file), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", ["nan", "inf"])
    def test_non_finite_class_count_exits_1(self, tmp_path, config_file, capsys, count):
        # It used to print the ValueError or OverflowError of int().
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config_file), "--set", f"plan.steps=2,{count}",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: config section plan: class counts must be positive ints")
        assert not out.exists()

    def test_distance_negative_seed_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        _write_features(path, 0)
        assert main(["distance", str(path), str(path), "--js", "--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "archadapt distance: argument --seed: must be >= 0, got -3\n"

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_distance_nonpositive_samples_is_usage_error(self, tmp_path, capsys, samples):
        # It used to exit 2 with "error: n_samples must be positive".
        path = tmp_path / "x.csv"
        _write_features(path, 0)
        assert main(["distance", str(path), str(path), "--js", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"archadapt distance: argument --samples: must be >= 1, got {samples}\n"

    def test_set_item_without_equals(self, tmp_path, config_file, capsys):
        assert main(["adapt", "--config", str(config_file), "--set", "plan.seed",
                     "--out", str(tmp_path / "x")]) == 1
        assert "--set: expected key=value, got 'plan.seed'" in capsys.readouterr().err

    def test_max_classes_below_two_names_the_key(self, tmp_path, config_file, capsys):
        assert main(["adapt", "--config", str(config_file), "--set", "plan.steps=1,1",
                     "--set", "plan.max_classes=1", "--out", str(tmp_path / "x")]) == 1
        assert "plan: max_classes must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_without_scenario(self, tmp_path, capsys):
        path = tmp_path / "no_scenario.cfg"
        path.write_text("plan.steps = 2,4\n")
        assert main(["adapt", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "config must set plan.scenario and plan.steps" in capsys.readouterr().err

    def test_bad_reference_arch_is_config_error(self, tmp_path):
        path = tmp_path / "ref.cfg"
        path.write_text(BASE_CONFIG + "surrogate.reference_arch = k9e3,k3e3\n")
        with pytest.raises(aa.InvalidConfig, match="surrogate.reference_arch"):
            build_run_config(parse_config_file(path))


def test_readme_example_config_parses(tmp_path):
    # Its trailing "# or volume_growth" comments were once part of the values.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = build_run_config(parse_config_file(path))
    assert cfg.plan.scenario == aa.CLASS_GROWTH and cfg.plan.steps == (2, 4, 8)
    assert cfg.trainer.lam == 0.05 and cfg.initial_arch == "oracle"



def test_compare_distances_script_seed_changes_the_table():
    # --seed picks the three plan seeds averaged over, so two seeds print two tables.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}

    def table(seed):
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "compare_distances.py"),
             "--samples", "200", "--seed", str(seed)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout

    first, other = table(0), table(5)
    assert first.splitlines()[0].split() == ["step", "wd", "js"]
    assert len(first.splitlines()) == len(other.splitlines()) == 4
    assert first != other

# The table the keys were once kept in by hand: key order and parsers.
HAND_TABLE = [
    ("plan.scenario", _parse_scenario),
    ("plan.steps", _parse_floats),
    ("plan.feature_dim", int),
    ("plan.sigma", float),
    ("plan.seed", int),
    ("plan.base_samples", int),
    ("plan.n_classes", int),
    ("plan.max_classes", int),
    ("plan.proto_radius", float),
    ("space.n_units", int),
    ("space.depth_choices", _parse_ints),
    ("space.kernel_choices", _parse_ints),
    ("space.expansion_choices", _parse_ints),
    ("space.input_resolution", int),
    ("space.stem_channels", int),
    ("space.unit_out_channels", _parse_ints),
    ("space.unit_strides", _parse_ints),
    ("surrogate.peak_height", float),
    ("surrogate.floor", float),
    ("surrogate.bump_width", float),
    ("surrogate.opt_intercept", float),
    ("surrogate.opt_slope", float),
    ("surrogate.depth_penalty", float),
    ("surrogate.reference_arch", str),
    ("gate.epsilon", float),
    ("trainer.learning_rate", float),
    ("trainer.weight_decay", float),
    ("trainer.iterations", int),
    ("trainer.entropy_weight", float),
    ("trainer.lam", float),
    ("trainer.baseline_decay", float),
    ("trainer.use_baseline", _parse_bool),
    ("trainer.use_adam", _parse_bool),
    ("trainer.batch_size", int),
    ("trainer.bucket_count", int),
    ("trainer.bucket_edges", _parse_floats),
    ("trainer.hidden_size", int),
    ("trainer.encoder_hidden", int),
    ("trainer.arch_embed_dim", int),
    ("trainer.shift_embed_dim", int),
    ("trainer.token_embed_dim", int),
    ("run.initial_arch", str),
    ("run.master_seed", int),
]

BASE_CONFIG = "plan.scenario = class_growth\nplan.steps = 1,1\n"
MIN_ARCH = "k3e3,k3e3;k3e3,k3e3;k3e3,k3e3;k3e3,k3e3;k3e3,k3e3"

# key -> (text, value it must land as, extra lines the value needs)
SETTINGS = {
    "plan.scenario": ("volume", aa.VOLUME_GROWTH),
    "plan.steps": ("1,2", (1, 2)),
    "plan.feature_dim": ("3", 3),
    "plan.sigma": ("0.5", 0.5),
    "plan.seed": ("7", 7),
    "plan.base_samples": ("50", 50),
    "plan.n_classes": ("4", 4),
    "plan.max_classes": ("20", 20),
    "plan.proto_radius": ("2.5", 2.5),
    "space.n_units": ("2", 2, "space.unit_out_channels = 16,24\nspace.unit_strides = 2,2"),
    "space.depth_choices": ("1,2", (1, 2)),
    "space.kernel_choices": ("3", (3,)),
    "space.expansion_choices": ("2,4", (2, 4)),
    "space.input_resolution": ("64", 64),
    "space.stem_channels": ("8", 8),
    "space.unit_out_channels": ("8,16,32,64,128", (8, 16, 32, 64, 128)),
    "space.unit_strides": ("2,2,2,2,2", (2, 2, 2, 2, 2)),
    "surrogate.peak_height": ("0.3", 0.3),
    "surrogate.floor": ("0.4", 0.4),
    "surrogate.bump_width": ("0.2", 0.2),
    "surrogate.opt_intercept": ("0.5", 0.5),
    "surrogate.opt_slope": ("0.5", 0.5),
    "surrogate.depth_penalty": ("0.01", 0.01),
    "surrogate.reference_arch": (MIN_ARCH, aa.min_arch(aa.SpaceConfig())),
    "gate.epsilon": ("0.5", 0.5),
    "trainer.learning_rate": ("0.01", 0.01),
    "trainer.weight_decay": ("0.001", 0.001),
    "trainer.iterations": ("10", 10),
    "trainer.entropy_weight": ("0.001", 0.001),
    "trainer.lam": ("0.5", 0.5),
    "trainer.baseline_decay": ("0.5", 0.5),
    "trainer.use_baseline": ("false", False),
    "trainer.use_adam": ("no", False),
    "trainer.batch_size": ("2", 2),
    "trainer.bucket_count": ("3", 3),
    "trainer.bucket_edges": ("1,2,3,4,5,6,7", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),
    "trainer.hidden_size": ("8", 8),
    "trainer.encoder_hidden": ("8", 8),
    "trainer.arch_embed_dim": ("4", 4),
    "trainer.shift_embed_dim": ("4", 4),
    "trainer.token_embed_dim": ("4", 4),
    "run.initial_arch": (MIN_ARCH, MIN_ARCH),
    "run.master_seed": ("7", 7),
}


def _field(cfg, key):
    section, name, _ = CONFIG_KEYS[key]
    return getattr(cfg if section == "run" else getattr(cfg, section), name)


class TestConfigKeys:
    def test_matches_the_hand_table(self):
        assert [(key, parser) for key, (_, _, parser) in CONFIG_KEYS.items()] == HAND_TABLE
        for key, (section, name, _) in CONFIG_KEYS.items():
            assert key == f"{section}.{name}"

    def test_keys_are_the_leaf_fields_but_the_train_seed(self):
        hints = typing.get_type_hints(aa.RunConfig)
        leaves = set()
        for f in dataclasses.fields(aa.RunConfig):
            if dataclasses.is_dataclass(hints[f.name]):
                leaves |= {f"{f.name}.{g.name}" for g in dataclasses.fields(hints[f.name])}
            else:
                leaves.add(f"run.{f.name}")
        assert set(CONFIG_KEYS) == leaves - {"trainer.seed"}

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_value_lands_in_its_field(self, key, tmp_path):
        text, expected, *extra = SETTINGS[key]
        base = tmp_path / "base.cfg"
        base.write_text(BASE_CONFIG)
        path = tmp_path / "set.cfg"
        path.write_text(BASE_CONFIG + "\n".join([f"{key} = {text}", *extra]) + "\n")
        assert _field(build_run_config(parse_config_file(base)), key) != expected
        assert _field(build_run_config(parse_config_file(path)), key) == expected
