"""Golden outputs: today's bytes must equal the files pinned in tests/data.

Criterion 9 only checks that a run matches itself, so a refactor that
silently changed the numbers would still pass it. These tests compare
against files written by an earlier commit instead:

- ``archadapt adapt`` on the criteria 7/9/10 toy config at two seeds:
  ``records.json`` and every ``trace_t*.csv``, byte for byte;
- ``lambda_sweep`` on the default space at 20 iterations: the rows;
- ``archadapt adapt`` on a small volume-growth plan whose gate holds at
  every step: ``records.json``, and the sha256 of each ``gen_snapshot``
  step's feature bytes;
- the sha256 of each step's feature bytes of a small class-growth plan,
  one of whose steps repeats the one before;
- ``compare_distance_metrics`` on a small volume plan over two seeds and
  on a small class plan: the rows, as JSON bytes;
- ``lockstep.sha256``: the digests of sequential ``train`` calls that
  ``tests/test_controller.py``'s ``TestLockstep`` checks lockstep training
  against.

An intended change to these bytes re-pins them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import archadapt as aa
from archadapt import orchestrator
from archadapt.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data" / "golden"

ADAPT_SEEDS = (1, 2)
SWEEP_SEED = 0
LAMBDAS = (0.0, 1e-4, 1e-3, 1e-2)

# Criterion 9's config: 2-unit 128-px space, plateau surrogate, epsilon 0.
TOY_CONFIG = """\
plan.scenario = class_growth
plan.steps = 2,4,8
space.n_units = 2
space.depth_choices = 2,3
space.kernel_choices = 3,5
space.expansion_choices = 3
space.input_resolution = 128
space.stem_channels = 16
space.unit_out_channels = 16,24
space.unit_strides = 2,2
surrogate.bump_width = 0.3
surrogate.opt_intercept = 0.55
surrogate.opt_slope = 0.4
surrogate.depth_penalty = 0.0
gate.epsilon = 0.0
trainer.iterations = 120
trainer.learning_rate = 0.005
trainer.lam = 0.05
trainer.hidden_size = 16
trainer.encoder_hidden = 16
trainer.arch_embed_dim = 8
trainer.shift_embed_dim = 4
trainer.token_embed_dim = 8
"""

VOLUME_SEED = 3

# Volume growth on the toy space; epsilon 1 holds at every step (V lies in
# [0, 1] and the gate is strict), so the records pin the data side: row
# counts, shifts, drops and the bootstrap oracle.
VOLUME_CONFIG = """\
plan.scenario = volume_growth
plan.steps = 0.2,0.333,0.7,1.0
plan.feature_dim = 6
plan.base_samples = 400
plan.n_classes = 5
space.n_units = 2
space.depth_choices = 2,3
space.kernel_choices = 3,5
space.expansion_choices = 3
space.input_resolution = 128
space.stem_channels = 16
space.unit_out_channels = 16,24
space.unit_strides = 2,2
gate.epsilon = 1.0
"""


def _run_adapt(seed, work_dir, config_text=TOY_CONFIG, name="adapt"):
    """Pinned outputs of one ``archadapt adapt`` run, by file name."""
    config = work_dir / f"{name}.cfg"
    config.write_text(config_text)
    out = work_dir / f"{name}_seed{seed}"
    code = cli_main(["adapt", "--config", str(config), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    names = ["records.json"] + sorted(p.name for p in out.glob("trace_t*.csv"))
    return {name: (out / name).read_bytes() for name in names}


def _run_sweep():
    space = aa.SpaceConfig()
    plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=SWEEP_SEED)
    cfg = aa.RunConfig(
        plan=plan,
        space=space,
        surrogate=aa.SurrogateConfig(
            bump_width=0.3, opt_intercept=0.55, opt_slope=0.4, depth_penalty=0.0
        ),
        gate=aa.GateConfig(epsilon=0.0),
        trainer=aa.TrainerConfig(
            learning_rate=0.005, iterations=20, hidden_size=32, encoder_hidden=32,
            arch_embed_dim=16, shift_embed_dim=8, token_embed_dim=16,
            entropy_weight=2e-4, seed=SWEEP_SEED,
        ),
        master_seed=SWEEP_SEED,
        initial_arch=aa.encode(aa.min_arch(space)),
    )
    rows = aa.lambda_sweep(cfg, LAMBDAS)
    return (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("seed", ADAPT_SEEDS)
def test_adapt_matches_golden(seed, tmp_path):
    produced = _run_adapt(seed, tmp_path)
    golden_dir = DATA / f"adapt_seed{seed}"
    pinned = sorted(p.name for p in golden_dir.iterdir())
    assert sorted(produced) == pinned
    assert any(name.startswith("trace_t") for name in pinned)
    for name in pinned:
        assert produced[name] == (golden_dir / name).read_bytes(), name


VOLUME_PLAN = aa.GrowthPlan(
    scenario=aa.VOLUME_GROWTH, steps=(0.2, 0.333, 0.7, 1.0), feature_dim=6,
    base_samples=400, n_classes=5, seed=VOLUME_SEED,
)

CLASS_SEED = 3
CLASS_PLAN = aa.GrowthPlan(
    scenario=aa.CLASS_GROWTH, steps=(2, 3, 3, 6), feature_dim=5,
    base_samples=50, seed=CLASS_SEED,
)

# compare_distance_metrics inputs, by golden file name: plan, seeds, draws.
DISTANCE_RUNS = {
    "distances_volume.json": (
        aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.55, 0.7, 0.85, 1.0),
                      feature_dim=6, base_samples=900, seed=9),
        (4, 5), 700,
    ),
    "distances_class.json": (
        aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), feature_dim=4,
                      base_samples=400, seed=7),
        (0,), 2000,
    ),
}


def _digest_lines(snapshots):
    """One ``step sha256`` line per snapshot, of its feature bytes."""
    lines = []
    for i, snap in enumerate(snapshots):
        assert snap.features.dtype == "float64"
        lines.append(f"{i} {hashlib.sha256(snap.features.tobytes()).hexdigest()}\n")
    return "".join(lines).encode()


def _snapshot_digests(plan=VOLUME_PLAN):
    """The digest lines of each ``gen_snapshot`` step of the plan."""
    return _digest_lines(aa.gen_snapshot(plan, i) for i in range(plan.n_steps))


def _distances(name):
    plan, seeds, n_samples = DISTANCE_RUNS[name]
    rows = aa.compare_distance_metrics(plan, seeds=seeds, n_samples=n_samples)
    return (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()


def test_lambda_sweep_matches_golden():
    assert _run_sweep() == (DATA / f"sweep_seed{SWEEP_SEED}.json").read_bytes()


def test_volume_growth_matches_golden(tmp_path):
    golden_dir = DATA / f"volume_seed{VOLUME_SEED}"
    produced = _run_adapt(VOLUME_SEED, tmp_path, VOLUME_CONFIG, "volume")
    assert sorted(produced) == ["records.json"]
    records = json.loads(produced["records.json"])["records"]
    assert [r["adapted"] for r in records] == [False] * 3
    assert produced["records.json"] == (golden_dir / "records.json").read_bytes()
    assert _snapshot_digests() == (golden_dir / "snapshots.sha256").read_bytes()


@pytest.mark.parametrize("plan, name", [
    (VOLUME_PLAN, f"volume_seed{VOLUME_SEED}"), (CLASS_PLAN, f"class_seed{CLASS_SEED}"),
], ids=["volume", "class"])
def test_drawn_snapshots_match_golden(plan, name):
    # gen_snapshot of each step, and the row-prefix views of one draw of the plan.
    pinned = (DATA / name / "snapshots.sha256").read_bytes()
    assert _snapshot_digests(plan) == pinned
    assert _digest_lines(orchestrator._snapshots(plan)) == pinned


@pytest.mark.parametrize("name", sorted(DISTANCE_RUNS))
def test_distance_rows_match_golden(name):
    assert _distances(name) == (DATA / name).read_bytes()


def regenerate():
    """Rewrite every golden file from the current code."""
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in ADAPT_SEEDS:
            target = DATA / f"adapt_seed{seed}"
            target.mkdir(exist_ok=True)
            for old in target.iterdir():
                old.unlink()
            for name, raw in _run_adapt(seed, Path(tmp)).items():
                (target / name).write_bytes(raw)
        volume = DATA / f"volume_seed{VOLUME_SEED}"
        volume.mkdir(exist_ok=True)
        produced = _run_adapt(VOLUME_SEED, Path(tmp), VOLUME_CONFIG, "volume")
        (volume / "records.json").write_bytes(produced["records.json"])
    (volume / "snapshots.sha256").write_bytes(_snapshot_digests())
    (DATA / f"class_seed{CLASS_SEED}").mkdir(exist_ok=True)
    (DATA / f"class_seed{CLASS_SEED}" / "snapshots.sha256").write_bytes(
        _snapshot_digests(CLASS_PLAN)
    )
    for name in DISTANCE_RUNS:
        (DATA / name).write_bytes(_distances(name))
    (DATA / f"sweep_seed{SWEEP_SEED}.json").write_bytes(_run_sweep())
    # A sibling test module: importable when this file runs as a script.
    from test_controller import LOCKSTEP_PINS, TestLockstep

    LOCKSTEP_PINS.write_text(TestLockstep.pins())


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
