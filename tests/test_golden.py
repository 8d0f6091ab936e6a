"""Golden outputs: today's bytes must equal the files pinned in tests/data.

Criterion 9 only checks that a run matches itself, so a refactor that
silently changed the numbers would still pass it. These tests compare
against files written by an earlier commit instead:

- ``archadapt adapt`` on the criteria 7/9/10 toy config at two seeds:
  ``records.json`` and every ``trace_t*.csv``, byte for byte;
- ``lambda_sweep`` on the default space at 20 iterations: the rows.

An intended change to these bytes re-pins them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

import archadapt as aa
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


def _run_adapt(seed, work_dir):
    """Pinned outputs of one ``archadapt adapt`` run, by file name."""
    config = work_dir / "run.cfg"
    config.write_text(TOY_CONFIG)
    out = work_dir / f"adapt_seed{seed}"
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


def test_lambda_sweep_matches_golden():
    assert _run_sweep() == (DATA / f"sweep_seed{SWEEP_SEED}.json").read_bytes()


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
    (DATA / f"sweep_seed{SWEEP_SEED}.json").write_bytes(_run_sweep())


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
