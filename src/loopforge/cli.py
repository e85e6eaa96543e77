"""Command-line entry points: train, eval, render, ablate.

Configuration is a flat key=value file plus flag overrides (flags win).
Every run writes into its own directory: a manifest with the resolved
config and a content hash of the dataset, a metrics stream, and
checkpoints.  Exit codes: 0 ok, 2 config error, 3 data error,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import model as md
from .corruption import BetaSchedule, CorruptionError, NoiseSchedule
from .inference import (InferenceError, collect_predictions, generate_remask,
                        pass_at_k)
from .render import render_trajectory
from .seeding import rng_for
from .tasks import (SYNTHETIC_FAMILIES, DeskDataset, TaskError, build_dataset,
                    dataset_hash, from_template, generate_synthetic,
                    load_arc_json)
from .training import (DENOISE_OBJECTIVES, DivergenceError, TrainConfig,
                       TrainingError, run_training, window_plan)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MANIFEST_NAME = "manifest.json"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config file handling


def _bool(s):
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _opt(parse):
    return lambda s: None if s.strip().lower() in ("none", "null", "") else parse(s)


def _at_least(lo):
    def parse(s):
        n = int(s)
        if n < lo:
            raise ValueError(f"must be >= {lo}, got {n}")
        return n
    return parse


def _family(s):
    name = s.strip()
    if name not in SYNTHETIC_FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from "
                         + ", ".join(SYNTHETIC_FAMILIES))
    return name


def _defaults(instance, parsers: dict) -> dict:
    return {k: (getattr(instance, k), parse) for k, parse in parsers.items()}


# the config dataclasses' fields that a config names, with their parsers;
# make_configs passes each one through under its own name
MODEL_KEYS = {
    "hidden_size": int, "num_heads": int, "num_layers": int,
    "expansion": int, "inner_steps": int, "cycles_per_window": int,
    "single_z": _bool, "max_halt_steps": int}
TRAIN_KEYS = {
    "objective": str.strip, "lr": float, "task_embedding_lr": float,
    "weight_decay": float, "warmup_steps": int, "batch_size": int,
    "ema_decay": float, "gradient_cycles": int,
    "warmup_cycles": _opt(int), "epochs": int}

# every run-affecting knob, with its default and parser; model and
# training defaults are the config dataclasses' own
CONFIG_KEYS = {
    **_defaults(md.ModelConfig(), MODEL_KEYS),
    **_defaults(TrainConfig(), TRAIN_KEYS),
    # data and run shape
    "seed": (0, int),
    "data": (None, _opt(str.strip)),
    "family": ("recolor_map", _family),
    "grid": (8, int),
    "tasks": (16, _at_least(1)),
    "augmentations": (4, _at_least(1)),
    "template_h": (None, _opt(_at_least(1))),
    "template_w": (None, _opt(_at_least(1))),
    "steps": (None, _opt(_at_least(1))),
    # 0 writes only the final checkpoint
    "checkpoint_interval": (1000, _at_least(0)),
    "num_denoise_steps": (16, _at_least(1)),
    # corruption schedules
    "noise.kind": ("cosine", str.strip),
    "noise.sigmoid_a": (10.0, float),
    "sprm.beta_start": (1e-4, float),
    "sprm.beta_end": (0.02, float),
    "sprm.num_steps": (1000, int),
}


def default_config() -> dict:
    return {k: v for k, (v, _) in CONFIG_KEYS.items()}


def _parse_key(key: str, raw):
    """The value of one config key.  raw is a config-file value, or a JSON
    value from a manifest, which is parsed as its JSON text."""
    if not isinstance(raw, str):
        raw = json.dumps(raw)
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}; valid keys: "
                          + ", ".join(sorted(CONFIG_KEYS)))
    _, parse = CONFIG_KEYS[key]
    try:
        return parse(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from e


def load_config_file(path) -> dict:
    cfgmap = default_config()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        cfgmap[key] = _parse_key(key, raw)
    return cfgmap


def resolve_config(args) -> dict:
    cfgmap = (load_config_file(args.config) if getattr(args, "config", None)
              else default_config())
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise ConfigError(f"--set takes key=value, got {kv!r}")
        key, raw = (part.strip() for part in kv.split("=", 1))
        cfgmap[key] = _parse_key(key, raw)
    for key in ("objective", "seed", "steps", "grid", "family",
                "augmentations", "num_denoise_steps", "data"):
        value = getattr(args, key, None)
        if value is not None:
            cfgmap[key] = _parse_key(key, value)
    return cfgmap


# ---------------------------------------------------------------------------
# assembly


def build_desk_dataset(cfgmap: dict) -> DeskDataset:
    if cfgmap["data"]:
        tasks = load_arc_json(cfgmap["data"])
        default_template = 30
    else:
        try:
            tasks = generate_synthetic(cfgmap["family"], cfgmap["grid"],
                                       cfgmap["tasks"], cfgmap["seed"])
        except TaskError as e:
            # grid's valid range depends on the family, so tasks checks it
            raise ConfigError(f"bad value for grid: {e}") from e
        default_template = max(12, cfgmap["grid"])
    th = cfgmap["template_h"] or default_template
    tw = cfgmap["template_w"] or default_template
    side = 4 if cfgmap["family"] == "mini_sudoku4" else cfgmap["grid"]
    for key, size in (("template_h", th), ("template_w", tw)):
        if not cfgmap["data"] and size < side:
            raise ConfigError(f"bad value for {key}: {size} is smaller than "
                              f"the {side}x{side} synthetic grid")
    return build_dataset(tasks, cfgmap["augmentations"], th, tw, cfgmap["seed"])


def make_configs(cfgmap: dict, dataset: DeskDataset):
    """Model and training configs.  The model config's cycles_per_window
    is the window training runs, which window_plan maps to itself, so a
    checkpoint carries the window that inference replays; the stacked
    baselines get one weight set per application of it."""
    tcfg = TrainConfig(max_halt_steps=cfgmap["max_halt_steps"],
                       **{k: cfgmap[k] for k in TRAIN_KEYS})
    cfg = md.ModelConfig(seq_len=dataset.seq_len, num_tasks=dataset.num_rows,
                         **{k: cfgmap[k] for k in MODEL_KEYS})
    warm, grad = window_plan(cfg, tcfg)
    cfg = replace(cfg, cycles_per_window=warm + grad)
    if tcfg.objective.startswith("stacked"):
        cfg = replace(cfg, untied_depth=(warm + grad) * cfg.apps_per_cycle)
    return cfg, tcfg, (warm, grad)


def _schedules(cfgmap: dict):
    noise = NoiseSchedule(kind=cfgmap["noise.kind"],
                          sigmoid_a=cfgmap["noise.sigmoid_a"])
    beta = BetaSchedule(beta_start=cfgmap["sprm.beta_start"],
                        beta_end=cfgmap["sprm.beta_end"],
                        num_steps=cfgmap["sprm.num_steps"])
    return noise, beta


def _claim_run_dir(out_dir: Path) -> None:
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ConfigError(f"run directory {out_dir} already exists; refusing "
                          "to overwrite")
    out_dir.mkdir(parents=True, exist_ok=True)


def _write_manifest(out_dir: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    md.write_atomic(out_dir / MANIFEST_NAME, [text.encode("utf-8")])


# what eval and render read from a manifest
MANIFEST_KEYS = ("config", "seed", "objective", "dataset_hash")


def read_manifest(run_dir: Path) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise TaskError(f"{run_dir} has no {MANIFEST_NAME}; not a run directory")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        raise TaskError(f"{path}: unreadable manifest ({e})") from e
    for key in MANIFEST_KEYS:
        if not isinstance(manifest, dict) or key not in manifest:
            raise TaskError(f"{path}: manifest has no {key}")
    if not isinstance(manifest["config"], dict):
        raise TaskError(f"{path}: manifest config is not a JSON object")
    if "steps_run" not in manifest:
        raise TaskError(f"{run_dir}: the run did not finish (its manifest has "
                        "no steps_run)")
    return manifest


def build_run(cfgmap: dict):
    """The dataset, configs, window and schedules a run of cfgmap trains
    with: a config value that any of them rejects raises here."""
    dataset = build_desk_dataset(cfgmap)
    cfg, tcfg, window = make_configs(cfgmap, dataset)
    noise, beta = _schedules(cfgmap)
    return dataset, cfg, tcfg, window, noise, beta


def execute_training(cfgmap: dict, built, out_dir: Path, progress=None):
    """Shared train core for cmd_train and ablate; built = build_run(cfgmap)."""
    dataset, cfg, tcfg, (warm, grad), noise, beta = built
    _claim_run_dir(out_dir)
    (out_dir / "checkpoints").mkdir()
    manifest = {
        "config": cfgmap,
        "seed": cfgmap["seed"],
        "objective": tcfg.objective,
        "dataset_hash": dataset_hash(dataset.tasks),
        "resolved": {"seq_len": cfg.seq_len, "num_rows": dataset.num_rows,
                     "untied_depth": cfg.untied_depth,
                     "warmup_cycles": warm, "gradient_cycles": grad},
        "metrics": "metrics.jsonl",
        "checkpoints": [],
    }
    _write_manifest(out_dir, manifest)

    result = run_training(
        dataset, cfg, tcfg, cfgmap["seed"],
        noise_schedule=noise, beta_schedule=beta,
        metrics_path=out_dir / "metrics.jsonl",
        checkpoint_path=out_dir / "checkpoints" / "step_{step:06d}.ltrm",
        checkpoint_every=cfgmap["checkpoint_interval"],
        max_steps=cfgmap["steps"], progress=progress)

    manifest["checkpoints"] = sorted(
        p.name for p in (out_dir / "checkpoints").glob("*.ltrm"))
    manifest["steps_run"] = len(result.history)
    _write_manifest(out_dir, manifest)
    return result, tcfg, manifest


def _load_run(run_dir: Path):
    """The manifest, with its config and seed parsed as config-file lines
    are; the regenerated dataset it was trained on; and the model config
    and noise schedule that training built from them.  A manifest whose
    values cannot build these is data, like any other bad manifest."""
    manifest = read_manifest(run_dir)
    cfgmap = default_config()
    try:
        for key, value in manifest["config"].items():
            cfgmap[key] = _parse_key(key, value)
        manifest["seed"] = _parse_key("seed", manifest["seed"])
        dataset, cfg, _, _, noise, _ = build_run(cfgmap)
    except (ConfigError, TrainingError, md.ModelError, CorruptionError) as e:
        raise TaskError(f"{run_dir}: manifest {e}") from e
    if dataset_hash(dataset.tasks) != manifest["dataset_hash"]:
        raise TaskError(f"{run_dir}: regenerated dataset does not match the "
                        "manifest hash")
    return manifest, cfgmap, dataset, cfg, noise


def _checkpoint_paths(run_dir: Path) -> list[Path]:
    paths = sorted((Path(run_dir) / "checkpoints").glob("*.ltrm"))
    if not paths:
        raise TaskError(f"{run_dir} holds no checkpoints")
    return paths


def _load_weights(path: Path, cfg: md.ModelConfig, objective: str):
    """A run's checkpoint as (inference weights, objective): the EMA
    weights when it holds them, and its own objective, else the run's.
    A checkpoint whose config is not the run's is refused."""
    ck_cfg, params, ema, meta = md.load_checkpoint(path)
    want, got = asdict(cfg), asdict(ck_cfg)
    diff = [f"{k} {got[k]} (run: {want[k]})" for k in want if got[k] != want[k]]
    if diff:
        raise TaskError(f"{path}: checkpoint config differs from the run's: "
                        + ", ".join(diff))
    return (ema if ema is not None else params), meta.get("objective", objective)


def _restrict_augmentations(dataset: DeskDataset, trained: int,
                            want: int | None) -> DeskDataset:
    """The eval cases of the first `want` augmentations; all without it."""
    if want in (None, trained):
        return dataset
    if want > trained:
        raise ConfigError(f"eval over {want} augmentations, but only {trained} "
                          "have trained task rows")
    keep = [c for c in dataset.eval_cases if c.row % trained < want]
    return DeskDataset(dataset.tasks, dataset.train_examples, keep,
                       dataset.num_rows, dataset.template)


def _flag_or_run(cfgmap: dict, key: str, flag):
    """A flag's value, parsed as its config key is, or the run's own."""
    return cfgmap[key] if flag is None else _parse_key(key, flag)


def pooled_eval(run_dir: Path, *, ks, augmentations=None, num_steps=None,
                seed=None):
    """Vote pool over every saved checkpoint x augmentation, then score."""
    manifest, cfgmap, dataset, cfg, noise = _load_run(run_dir)
    dataset = _restrict_augmentations(
        dataset, cfgmap["augmentations"],
        _flag_or_run(cfgmap, "augmentations", augmentations))
    seed = manifest["seed"] if seed is None else seed
    num_steps = _flag_or_run(cfgmap, "num_denoise_steps", num_steps)

    entries = []
    for idx, path in enumerate(_checkpoint_paths(run_dir)):
        weights, objective = _load_weights(path, cfg, manifest["objective"])
        sub_seed = int(rng_for(seed, "ckpt", idx).integers(2 ** 31))
        entries.extend(collect_predictions(
            dataset, weights, cfg, objective, sub_seed,
            num_denoise_steps=num_steps, schedule=noise))
    return pass_at_k(dataset, entries, ks), manifest


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> None:
    cfgmap = resolve_config(args)
    out_dir = Path(args.out)
    last = [0]

    def progress(metrics):
        if metrics.step - last[0] >= 200:
            last[0] = metrics.step
            print(f"step {metrics.step}: ce {metrics.ce_loss:.4f} "
                  f"acc {metrics.token_accuracy:.3f} em {metrics.exact_match_rate:.3f}")

    result, tcfg, _ = execute_training(cfgmap, build_run(cfgmap), out_dir, progress)
    final = result.history[-1]
    print(f"{tcfg.objective}: {len(result.history)} steps, final ce {final.ce_loss:.4f} "
          f"token acc {final.token_accuracy:.3f} exact match "
          f"{final.exact_match_rate:.3f}")
    print(f"run directory: {out_dir}")


def cmd_eval(args) -> None:
    ks = sorted(set(args.k or [2]))
    report, _ = pooled_eval(Path(args.run_dir), ks=ks,
                            augmentations=args.augmentations,
                            num_steps=args.num_denoise_steps, seed=args.seed)
    out = Path(args.out) if args.out else Path(args.run_dir) / "eval_report.json"
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    md.write_atomic(out, [text.encode("utf-8")])
    parts = [f"pass@{k} {report.accuracy(k):.3f}" for k in dict.fromkeys([2, *ks])]
    parts.append(f"pass@pool {report.accuracy():.3f}")
    print("  ".join(parts))
    print(f"report: {out}")


def cmd_render(args) -> None:
    run_dir = Path(args.run_dir)
    manifest, cfgmap, dataset, cfg, noise = _load_run(run_dir)
    weights, objective = _load_weights(_checkpoint_paths(run_dir)[-1], cfg,
                                       manifest["objective"])
    if objective not in DENOISE_OBJECTIVES:
        raise ConfigError(
            f"checkpoint was trained with {objective!r}; the renderer "
            "covers generate-and-remask inference only (halting models expose "
            "per-window decodes instead)")

    task_id = args.task or dataset.tasks[0].task_id
    by_id = {t.task_id: i for i, t in enumerate(dataset.tasks)}
    if task_id not in by_id:
        raise ConfigError(f"task {task_id!r} not in this run's dataset")
    t_idx = by_id[task_id]
    case = next(c for c in dataset.eval_cases
                if c.task_index == t_idx and c.test_index == 0)

    num_steps = _flag_or_run(cfgmap, "num_denoise_steps", args.num_denoise_steps)
    seed = manifest["seed"] if args.seed is None else args.seed

    trace: list = []
    generate_remask(case.input_tokens, case.loss_mask, case.row, weights, cfg,
                    num_steps, rng_for(seed, "render"), schedule=noise,
                    trace=trace)

    th, tw = dataset.template
    dy, dx = case.aug.offset
    frames = [(from_template(f["prediction"], *case.shape, th, tw, case.aug.offset),
               [(i // tw - dy, i % tw - dx) for i in f["remasked"]],
               f["q"], f["timestep"]) for f in trace]
    out_dir = Path(args.out) if args.out else run_dir / "render"
    task = dataset.tasks[t_idx]
    render_trajectory(task.test_pairs[0][0], case.target_grid, frames, out_dir)
    print(f"wrote {len(frames)} frames to {out_dir}")


# each ablation suite's variants: a name and the config keys it overrides
SUITES = {
    # warmup_cycles=None lets each objective's own default apply
    "k_sweep": [(f"{obj}_k{k}", {"objective": obj, "gradient_cycles": k,
                                 "warmup_cycles": None})
                for obj in ("drm", "trm") for k in (1, 2, 3, 4)],
    "warmup_sweep": [(f"warm{w}", {"objective": "drm", "warmup_cycles": w})
                     for w in (0, 1, 2)],
    "schedule_sweep": [(kind, {"objective": "drm", "noise.kind": kind})
                       for kind in ("linear", "sigmoid", "cosine")],
    "single_z": [("paired_state", {"single_z": False}),
                 ("single_state", {"single_z": True})],
}


def cmd_ablate(args) -> None:
    base = resolve_config(args)
    out_dir = Path(args.out)
    # every variant builds before the suite directory is made
    cfgmaps = {name: {**base, **overrides} for name, overrides in SUITES[args.suite]}
    built = {name: build_run(cfgmap) for name, cfgmap in cfgmaps.items()}
    _claim_run_dir(out_dir)
    rows = []
    for name, cfgmap in cfgmaps.items():
        print(f"[{args.suite}] {name}")
        result, tcfg, manifest = execute_training(cfgmap, built[name], out_dir / name)
        # scored as `loopforge eval` scores the variant's run directory
        report, _ = pooled_eval(out_dir / name, ks=(2,))
        tail = result.history[-min(50, len(result.history)):]
        rows.append((name, tcfg.objective, tcfg.gradient_cycles,
                     manifest["resolved"]["warmup_cycles"], len(result.history),
                     float(np.mean([m.ce_loss for m in tail])),
                     float(np.mean([m.token_accuracy for m in tail])),
                     float(np.mean([m.exact_match_rate for m in tail])),
                     report.accuracy(2)))

    header = ("variant", "objective", "k", "warm", "steps", "ce",
              "token_acc", "exact_match", "pass2")
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))
    (out_dir / "summary.tsv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"summary: {out_dir / 'summary.tsv'}")


# ---------------------------------------------------------------------------
# argument wiring


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--objective")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--family")
    p.add_argument("--augmentations", type=int)
    p.add_argument("--num-denoise-steps", dest="num_denoise_steps", type=int)
    p.add_argument("--data", help="ARC-format JSON file or directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopforge",
        description="looped-transformer training and evaluation on grid tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one objective into a run directory")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="run directory (must not exist)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="pooled vote evaluation of a run")
    p.add_argument("run_dir")
    p.add_argument("--augmentations", type=int)
    p.add_argument("--num-denoise-steps", dest="num_denoise_steps", type=int)
    p.add_argument("--k", action="append", type=int,
                   help="report pass@k (repeatable; 2 is always computed)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report path (default: run_dir/eval_report.json)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("render", help="render a denoising trajectory as SVG")
    p.add_argument("run_dir")
    p.add_argument("--task", help="task id (default: first task)")
    p.add_argument("--num-denoise-steps", dest="num_denoise_steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (default: run_dir/render)")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("ablate", help="run an ablation suite")
    p.add_argument("suite", choices=SUITES)
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="suite directory (must not exist)")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
        return EXIT_OK
    except DivergenceError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, TrainingError, md.ModelError, CorruptionError,
            InferenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TaskError, md.CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
