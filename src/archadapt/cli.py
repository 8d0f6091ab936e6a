"""Command-line interface. All numerics live in the library modules.

Config files are flat ``key=value`` lines with dotted section prefixes
(plan.*, space.*, surrogate.*, gate.*, trainer.*, run.*), one key per
field of RunConfig and its section dataclasses; blank lines and lines
starting with ``#`` are ignored, and a ``#`` after a value is part of it.
``--set key=value`` overrides file values.
Exit codes: 0 success, 1 usage or config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from . import orchestrator
from .datagen import CLASS_GROWTH, VOLUME_GROWTH, load_snapshot, save_snapshot, snapshot_meta
from .errors import ArchAdaptError, InvalidConfig
from .evaluator import make_evaluator, oracle_best
from .gaussian import fit_gaussian, js_divergence_mc, load_features_csv, wasserstein2_gaussian
from .gate import accuracy_drop, should_adapt
from .search_space import SpaceConfig, decode, encode

__all__ = ["main", "entry", "parse_config_file", "build_run_config", "CONFIG_KEYS"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() controls the exit code
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_scenario(text: str) -> str:
    aliases = {
        "volume_growth": VOLUME_GROWTH,
        "volume": VOLUME_GROWTH,
        "class_growth": CLASS_GROWTH,
        "class": CLASS_GROWTH,
    }
    key = text.strip().lower()
    if key not in aliases:
        raise ValueError(f"unknown scenario {text!r}")
    return aliases[key]


_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    tuple[int, ...]: _parse_ints,
    tuple[float, ...]: _parse_floats,
}
# Fields whose type does not name their parser.
_EXPLICIT = {
    "plan.scenario": _parse_scenario,
    "plan.steps": _parse_floats,
    "surrogate.reference_arch": str,  # decoded against the space in build_run_config
}
# Every run overwrites it with derive_seed(master_seed, step, "train").
_NOT_SETTABLE = {"trainer.seed"}
_RUN_HINTS = typing.get_type_hints(orchestrator.RunConfig)


def _parser_for(hint):
    if isinstance(hint, types.UnionType):  # X | None parses as X
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    return _PARSERS[hint]


def _config_keys() -> dict:
    keys = {}
    for run_field in fields(orchestrator.RunConfig):
        hint = _RUN_HINTS[run_field.name]
        if is_dataclass(hint):
            section, hints = run_field.name, typing.get_type_hints(hint)
            leaves = [(f.name, hints[f.name]) for f in fields(hint)]
        else:
            section, leaves = "run", [(run_field.name, hint)]
        for name, leaf_hint in leaves:
            key = f"{section}.{name}"
            if key not in _NOT_SETTABLE:
                keys[key] = (section, name, _EXPLICIT.get(key) or _parser_for(leaf_hint))
    return keys


# key -> (section, field, parser), one per settable leaf field of RunConfig
CONFIG_KEYS = _config_keys()


def _parse_item(item: str, source: str) -> tuple[str, object]:
    """One parsed key=value item; errors name the source (file:line or --set)."""
    if "=" not in item:
        raise InvalidConfig(f"{source}: expected key=value, got {item!r}")
    key, _, text = item.partition("=")
    key = key.strip()
    if key not in CONFIG_KEYS:
        raise InvalidConfig(f"{source}: unknown config key {key!r}")
    try:
        return key, CONFIG_KEYS[key][2](text.strip())
    except (ValueError, TypeError) as exc:
        raise InvalidConfig(f"{source}: config key {key}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Flat key=value config, parsed; unknown keys and bad lines name their source."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, value = _parse_item(line, f"{path}:{lineno}")
            values[key] = value
    return values


def _apply_sets(values: dict, sets: list[str]) -> dict:
    for item in sets or []:
        key, value = _parse_item(item, "--set")
        values[key] = value
    return values


def _checked(source: str, error: type[Exception], convert, *values, **named):
    """convert(*values, **named); a library error is re-raised as error, naming its source."""
    try:
        return convert(*values, **named)
    except ArchAdaptError as exc:
        raise error(f"{source}: {exc}") from exc


def build_run_config(values: dict, seed: int | None = None) -> orchestrator.RunConfig:
    """Assemble a RunConfig from parsed config values; --seed wins for the master seed."""
    sections: dict[str, dict] = {}
    for key, value in values.items():
        section, name, _ = CONFIG_KEYS[key]
        sections.setdefault(section, {})[name] = value
    run = sections.pop("run", {})
    plan = sections.get("plan", {})
    if "scenario" not in plan or "steps" not in plan:
        raise InvalidConfig("config must set plan.scenario and plan.steps")
    if seed is not None:
        run["master_seed"] = seed
    space = _checked("config section space", InvalidConfig, SpaceConfig, **sections.pop("space", {}))
    surrogate = sections.get("surrogate", {})
    if "reference_arch" in surrogate:
        surrogate["reference_arch"] = _checked(
            "config key surrogate.reference_arch", InvalidConfig,
            decode, surrogate["reference_arch"], space,
        )
    if run.get("initial_arch", "oracle") != "oracle":
        _checked("config key run.initial_arch", InvalidConfig, decode, run["initial_arch"], space)
    built = {
        name: _checked(f"config section {name}", InvalidConfig, _RUN_HINTS[name], **kwargs)
        for name, kwargs in sections.items()
    }
    source = "--seed" if seed is not None else "config key run.master_seed"
    return _checked(source, InvalidConfig, orchestrator.RunConfig, space=space, **built, **run)


def _load_config(args) -> orchestrator.RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    values = _apply_sets(values, getattr(args, "set", None))
    return build_run_config(values, seed=getattr(args, "seed", None))


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    plan = cfg.plan
    if args.seed is not None:
        plan = _checked("--seed", InvalidConfig, replace, plan, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, snap in enumerate(orchestrator._snapshots(plan)):
        csv_path = out / f"snapshot_{i:03d}.csv"
        save_snapshot(snap, csv_path)
        print(f"{csv_path} rows={snap.meta.n_samples} classes={snap.meta.n_classes}")
    return 0


def _cmd_distance(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"archadapt distance: argument --seed: must be >= 0, got {args.seed}")
    if args.samples < 1:
        raise _UsageError(f"archadapt distance: argument --samples: must be >= 1, got {args.samples}")
    g1 = fit_gaussian(load_features_csv(args.first))
    g2 = fit_gaussian(load_features_csv(args.second))
    d = wasserstein2_gaussian(g1, g2)
    line = f"d={d:.6f}"
    if args.js:
        js = js_divergence_mc(g1, g2, n_samples=args.samples, seed=args.seed)
        line += f" js={js:.6f}"
    print(line)
    return 0


def _cmd_gate(args) -> int:
    cfg = _load_config(args)
    prev_snap = load_snapshot(args.prev)
    cur_snap = load_snapshot(args.cur)
    evaluate = make_evaluator(cfg.surrogate, cfg.space)
    if args.arch:
        arch = _checked("--arch", _UsageError, decode, args.arch, cfg.space)
    else:
        arch, _, _ = oracle_best(cfg.space, prev_snap.meta, cfg.surrogate)
    drop = accuracy_drop(arch, prev_snap.meta, cur_snap.meta, evaluate)
    print(f"H_t={drop:.4f} adapt={_fmt_bool(should_adapt(drop, cfg.gate))}")
    return 0


def _cmd_adapt(args) -> int:
    cfg = _load_config(args)
    records = orchestrator.run_adaptation(cfg, out_dir=args.out)
    for rec in records:
        print(
            f"t={rec.t} d={rec.shift:.4f} H={rec.drop:.4f} "
            f"adapted={_fmt_bool(rec.adapted)} arch={rec.new_arch} "
            f"v={rec.v_new:.4f} madds={rec.madds_new:.3f}"
        )
    print(f"records written to {Path(args.out) / 'records.json'}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args)
    meta = _checked("--step", _UsageError, snapshot_meta, cfg.plan, args.step)
    arch, v, cost = oracle_best(cfg.space, meta, cfg.surrogate, lam=args.lam, shift=args.shift)
    print(f"arch={encode(arch)} v={v:.4f} madds={cost:.3f}")
    return 0


def _cmd_sweep_lambda(args) -> int:
    cfg = _load_config(args)
    rows = orchestrator.lambda_sweep(cfg, args.lambdas)
    for row in rows:
        print(f"lam={row['lam']:g} v={row['v']:.4f} madds={row['madds']:.3f} arch={row['arch']}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"sweep written to {out / 'sweep.json'}")
    return 0


def _cmd_ablate_wd(args) -> int:
    cfg = _load_config(args)
    results = orchestrator.wd_ablation(cfg)
    out = Path(args.out)
    orchestrator.write_records(results["with"], out / "with")
    orchestrator.write_records(results["without"], out / "without")
    for rec_with, rec_without in zip(results["with"], results["without"]):
        print(
            f"t={rec_with.t} madds_with={rec_with.madds_new:.3f} "
            f"madds_without={rec_without.madds_new:.3f} "
            f"dv={rec_without.v_new - rec_with.v_new:+.4f}"
        )
    print(f"ablation written to {out}")
    return 0


def _cmd_report(args) -> int:
    records = orchestrator.load_records(args.records)
    header = f"{'t':>3} {'shift':>12} {'drop':>8} {'adapted':>8} {'v_new':>7} {'madds_new':>10}  arch"
    print(header)
    print("-" * len(header))
    for rec in records:
        print(
            f"{rec['t']:>3} {rec['shift']:>12.6f} {rec['drop']:>8.4f} "
            f"{_fmt_bool(rec['adapted']):>8} {rec['v_new']:>7.4f} "
            f"{rec['madds_new']:>10.3f}  {rec['new_arch']}"
        )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="archadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, with_out=False, out_required=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        if with_out:
            p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("simulate", help="write the plan's snapshots as CSV plus meta sidecars")
    add_config_flags(p, with_out=True, out_required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("distance", help="squared Wasserstein distance between two feature CSVs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--js", action="store_true", help="also estimate Jensen-Shannon divergence")
    p.add_argument("--samples", type=int, default=20000, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("gate", help="evaluate the adaptation gate between two snapshots")
    p.add_argument("prev", help="previous snapshot CSV (with .meta sidecar)")
    p.add_argument("cur", help="current snapshot CSV (with .meta sidecar)")
    p.add_argument("--arch", help="incumbent encoding; default: oracle on the previous snapshot")
    add_config_flags(p)
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("adapt", help="run the full adaptation loop over the plan")
    add_config_flags(p, with_out=True, out_required=True)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("oracle", help="brute-force best architecture for one snapshot")
    p.add_argument("--step", type=int, default=0, help="plan step index")
    p.add_argument("--lam", type=float, default=0.0, help="cost penalty weight")
    p.add_argument("--shift", type=float, default=1.0, help="shift scaling the penalty")
    add_config_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep-lambda", help="one adaptation step per lambda, shared seed")
    p.add_argument(
        "--lambdas", type=_parse_floats, default="0,5e-05,0.00025", help="comma-separated lambda values"
    )
    add_config_flags(p, with_out=True)
    p.set_defaults(func=_cmd_sweep_lambda)

    p = sub.add_parser("ablate-wd", help="paired runs with and without the cost penalty")
    add_config_flags(p, with_out=True, out_required=True)
    p.set_defaults(func=_cmd_ablate_wd)

    p = sub.add_parser("report", help="render a records.json as a table")
    p.add_argument("records", help="path to records.json")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArchAdaptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
