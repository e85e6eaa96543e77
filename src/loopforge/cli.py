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
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import model as md
from .corruption import BetaSchedule, CorruptionError, NoiseSchedule
from .inference import (InferenceError, collect_predictions, evaluate,
                        generate_remask, pass_at_k)
from .render import RenderError, StepFrame, render_trajectory
from .seeding import rng_for
from .tasks import (DeskDataset, TaskError, build_dataset, dataset_hash,
                    generate_synthetic, load_arc_json)
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


def _int(s):
    return int(s)


def _float(s):
    return float(s)


def _bool(s):
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _opt(parse):
    def inner(s):
        return None if s.strip().lower() in ("none", "null", "") else parse(s)
    return inner


def _str(s):
    return s.strip()


def _defaults(instance, parsers: dict) -> dict:
    return {k: (getattr(instance, k), parse) for k, parse in parsers.items()}


# every run-affecting knob, with its default and parser; model and
# training defaults are the config dataclasses' own
CONFIG_KEYS = {
    **_defaults(md.ModelConfig(), {
        "hidden_size": _int, "num_heads": _int, "num_layers": _int,
        "expansion": _int, "inner_steps": _int, "cycles_per_window": _int,
        "single_z": _bool, "max_halt_steps": _int}),
    **_defaults(TrainConfig(), {
        "objective": _str, "lr": _float, "task_embedding_lr": _float,
        "weight_decay": _float, "warmup_steps": _int, "batch_size": _int,
        "ema_decay": _float, "gradient_cycles": _int,
        "warmup_cycles": _opt(_int), "epochs": _int}),
    # data and run shape
    "seed": (0, _int),
    "data": (None, _opt(_str)),
    "family": ("recolor_map", _str),
    "grid": (8, _int),
    "tasks": (16, _int),
    "augmentations": (4, _int),
    "template_h": (None, _opt(_int)),
    "template_w": (None, _opt(_int)),
    "steps": (None, _opt(_int)),
    "checkpoint_interval": (1000, _int),
    "num_denoise_steps": (16, _int),
    # corruption schedules
    "noise.kind": ("cosine", _str),
    "noise.sigmoid_a": (10.0, _float),
    "sprm.beta_start": (1e-4, _float),
    "sprm.beta_end": (0.02, _float),
    "sprm.num_steps": (1000, _int),
}


def default_config() -> dict:
    return {k: v for k, (v, _) in CONFIG_KEYS.items()}


def _set_key(cfgmap: dict, key: str, raw: str) -> None:
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}; valid keys: "
                          + ", ".join(sorted(CONFIG_KEYS)))
    _, parse = CONFIG_KEYS[key]
    try:
        cfgmap[key] = parse(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from e


def load_config_file(path) -> dict:
    cfgmap = default_config()
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        _set_key(cfgmap, key, raw)
    return cfgmap


def resolve_config(args) -> dict:
    cfgmap = (load_config_file(args.config) if getattr(args, "config", None)
              else default_config())
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise ConfigError(f"--set takes key=value, got {kv!r}")
        key, raw = (part.strip() for part in kv.split("=", 1))
        _set_key(cfgmap, key, raw)
    for flag, key in (("objective", "objective"), ("seed", "seed"),
                      ("steps", "steps"), ("grid", "grid"),
                      ("family", "family"), ("augmentations", "augmentations"),
                      ("num_denoise_steps", "num_denoise_steps"),
                      ("data", "data")):
        value = getattr(args, flag, None)
        if value is not None:
            cfgmap[key] = value
    return cfgmap


# ---------------------------------------------------------------------------
# assembly


def build_desk_dataset(cfgmap: dict) -> DeskDataset:
    if cfgmap["data"]:
        tasks = load_arc_json(cfgmap["data"])
        default_template = 30
    else:
        tasks = generate_synthetic(cfgmap["family"], cfgmap["grid"],
                                   cfgmap["tasks"], cfgmap["seed"])
        default_template = max(12, cfgmap["grid"])
    th = cfgmap["template_h"] or default_template
    tw = cfgmap["template_w"] or default_template
    return build_dataset(tasks, cfgmap["augmentations"], th, tw, cfgmap["seed"])


def make_configs(cfgmap: dict, dataset: DeskDataset):
    """Model and training configs, with the window plan resolved and the
    untied stack depth derived for the stacked baselines."""
    tcfg = TrainConfig(objective=cfgmap["objective"], lr=cfgmap["lr"],
                       task_embedding_lr=cfgmap["task_embedding_lr"],
                       weight_decay=cfgmap["weight_decay"],
                       warmup_steps=cfgmap["warmup_steps"],
                       batch_size=cfgmap["batch_size"],
                       ema_decay=cfgmap["ema_decay"],
                       max_halt_steps=cfgmap["max_halt_steps"],
                       gradient_cycles=cfgmap["gradient_cycles"],
                       warmup_cycles=cfgmap["warmup_cycles"],
                       epochs=cfgmap["epochs"])
    cfg = md.ModelConfig(hidden_size=cfgmap["hidden_size"],
                         num_heads=cfgmap["num_heads"],
                         num_layers=cfgmap["num_layers"],
                         expansion=cfgmap["expansion"],
                         seq_len=dataset.seq_len,
                         inner_steps=cfgmap["inner_steps"],
                         cycles_per_window=cfgmap["cycles_per_window"],
                         max_halt_steps=cfgmap["max_halt_steps"],
                         single_z=cfgmap["single_z"],
                         num_tasks=dataset.num_rows)
    warm, grad = window_plan(cfg, tcfg)
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
    (out_dir / MANIFEST_NAME).write_text(json.dumps(payload, indent=2,
                                                    sort_keys=True) + "\n")


def read_manifest(run_dir: Path) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise TaskError(f"{run_dir} has no {MANIFEST_NAME}; not a run directory")
    return json.loads(path.read_text())


def execute_training(cfgmap: dict, out_dir: Path, progress=None):
    """Shared train core for cmd_train and the ablation suites."""
    dataset = build_desk_dataset(cfgmap)
    cfg, tcfg, (warm, grad) = make_configs(cfgmap, dataset)
    noise, beta = _schedules(cfgmap)

    steps = cfgmap["steps"]
    if steps is not None:
        per_epoch = math.ceil(len(dataset.train_examples) / tcfg.batch_size)
        tcfg = replace(tcfg, epochs=max(tcfg.epochs, math.ceil(steps / per_epoch)))

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
        max_steps=steps, progress=progress)

    manifest["checkpoints"] = sorted(
        p.name for p in (out_dir / "checkpoints").glob("*.ltrm"))
    manifest["steps_run"] = result.steps
    _write_manifest(out_dir, manifest)
    return result, dataset, cfg, tcfg, manifest


def _load_run(run_dir: Path):
    manifest = read_manifest(run_dir)
    cfgmap = default_config()
    cfgmap.update(manifest["config"])
    dataset = build_desk_dataset(cfgmap)
    if dataset_hash(dataset.tasks) != manifest["dataset_hash"]:
        raise TaskError(f"{run_dir}: regenerated dataset does not match the "
                        "manifest hash")
    return manifest, cfgmap, dataset


def _checkpoint_paths(run_dir: Path) -> list[Path]:
    paths = sorted((Path(run_dir) / "checkpoints").glob("*.ltrm"))
    if not paths:
        raise TaskError(f"{run_dir} holds no checkpoints")
    return paths


def _restrict_augmentations(dataset: DeskDataset, trained: int, want: int) -> DeskDataset:
    if want > trained:
        raise ConfigError(f"eval over {want} augmentations, but only {trained} "
                          "have trained task rows")
    if want == trained:
        return dataset
    keep = [c for c in dataset.eval_cases if c.row % trained < want]
    return DeskDataset(dataset.tasks, dataset.train_examples, keep,
                       dataset.num_rows, dataset.template)


def pooled_eval(run_dir: Path, *, ks, augmentations=None, num_steps=None,
                seed=None, batch_size=32):
    """Vote pool over every saved checkpoint x augmentation, then score."""
    manifest, cfgmap, dataset = _load_run(run_dir)
    dataset = _restrict_augmentations(dataset, cfgmap["augmentations"],
                                     augmentations or cfgmap["augmentations"])
    noise, _ = _schedules(cfgmap)
    cycles = (manifest["resolved"]["warmup_cycles"]
              + manifest["resolved"]["gradient_cycles"])
    seed = manifest["seed"] if seed is None else seed
    num_steps = num_steps or cfgmap["num_denoise_steps"]

    entries = []
    for idx, path in enumerate(_checkpoint_paths(run_dir)):
        ck_cfg, params, ema, meta = md.load_checkpoint(path)
        sub_seed = int(rng_for(seed, "ckpt", idx).integers(2 ** 31))
        entries.extend(collect_predictions(
            dataset, ema if ema is not None else params, ck_cfg,
            meta.get("objective", manifest["objective"]), sub_seed,
            num_denoise_steps=num_steps, schedule=noise, cycles=cycles,
            batch_size=batch_size))
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

    result, _, _, tcfg, _ = execute_training(cfgmap, out_dir, progress)
    final = result.history[-1]
    print(f"{tcfg.objective}: {result.steps} steps, final ce {final.ce_loss:.4f} "
          f"token acc {final.token_accuracy:.3f} exact match "
          f"{final.exact_match_rate:.3f}")
    print(f"run directory: {out_dir}")


def cmd_eval(args) -> None:
    ks = sorted(set(args.k or [2]))
    report, _ = pooled_eval(Path(args.run_dir), ks=ks,
                            augmentations=args.augmentations,
                            num_steps=args.num_denoise_steps, seed=args.seed)
    out = Path(args.out) if args.out else Path(args.run_dir) / "eval_report.json"
    out.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    parts = [f"pass@2 {report.pass2_accuracy:.3f}"]
    parts += [f"pass@{k} {report.passk_accuracy[k]:.3f}" for k in ks if k != 2]
    parts.append(f"pass@pool {report.pool_accuracy:.3f}")
    print("  ".join(parts))
    print(f"report: {out}")


def cmd_render(args) -> None:
    run_dir = Path(args.run_dir)
    manifest, cfgmap, dataset = _load_run(run_dir)
    path = _checkpoint_paths(run_dir)[-1]
    cfg, params, ema, meta = md.load_checkpoint(path)
    if meta["objective"] not in DENOISE_OBJECTIVES:
        raise ConfigError(
            f"checkpoint was trained with {meta['objective']!r}; the renderer "
            "covers generate-and-remask inference only (halting models expose "
            "per-window decodes instead)")

    task_id = args.task or dataset.tasks[0].task_id
    by_id = {t.task_id: i for i, t in enumerate(dataset.tasks)}
    if task_id not in by_id:
        raise ConfigError(f"task {task_id!r} not in this run's dataset")
    t_idx = by_id[task_id]
    case = next(c for c in dataset.eval_cases
                if c.task_index == t_idx and c.test_index == 0)

    noise, _ = _schedules(cfgmap)
    cycles = (manifest["resolved"]["warmup_cycles"]
              + manifest["resolved"]["gradient_cycles"])
    num_steps = args.num_denoise_steps or cfgmap["num_denoise_steps"]
    seed = manifest["seed"] if args.seed is None else args.seed

    trace: list = []
    generate_remask(case.input_tokens, case.loss_mask, case.row,
                    ema if ema is not None else params, cfg, num_steps,
                    rng_for(seed, "render"), schedule=noise, cycles=cycles,
                    trace=trace)

    th, tw = dataset.template
    dy, dx = case.aug.offset
    h, w = case.shape
    frames = []
    for f in trace:
        grid = f["prediction"].reshape(th, tw)[dy:dy + h, dx:dx + w]
        cells = [(i // tw - dy, i % tw - dx) for i in f["remasked"]]
        frames.append(StepFrame(grid=grid, remasked=cells, q=f["q"],
                                timestep=f["timestep"]))
    out_dir = Path(args.out) if args.out else run_dir / "render"
    task = dataset.tasks[t_idx]
    paths = render_trajectory(task.test_pairs[0][0], case.target_grid,
                              frames, out_dir)
    print(f"wrote {len(paths)} frames to {out_dir}")


SUITES = ("k_sweep", "warmup_sweep", "schedule_sweep", "single_z")


def _suite_variants(suite: str, base: dict) -> list[tuple[str, dict]]:
    if suite == "k_sweep":
        # warmup_cycles=None lets each objective's own default apply
        return [(f"{obj}_k{k}", {"objective": obj, "gradient_cycles": k,
                                 "warmup_cycles": None})
                for obj in ("drm", "trm") for k in (1, 2, 3, 4)]
    if suite == "warmup_sweep":
        return [(f"warm{w}", {"objective": "drm", "warmup_cycles": w})
                for w in (0, 1, 2)]
    if suite == "schedule_sweep":
        return [(kind, {"objective": "drm", "noise.kind": kind})
                for kind in ("linear", "sigmoid", "cosine")]
    if suite == "single_z":
        return [("paired_state", {"single_z": False}),
                ("single_state", {"single_z": True})]
    raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")


def cmd_ablate(args) -> None:
    base = resolve_config(args)
    out_dir = Path(args.out)
    _claim_run_dir(out_dir)
    rows = []
    for name, overrides in _suite_variants(args.suite, base):
        cfgmap = {**base, **overrides}
        print(f"[{args.suite}] {name}")
        result, dataset, cfg, tcfg, manifest = execute_training(
            cfgmap, out_dir / name)
        noise, _ = _schedules(cfgmap)
        cycles = (manifest["resolved"]["warmup_cycles"]
                  + manifest["resolved"]["gradient_cycles"])
        report = evaluate(dataset, result.ema, cfg, tcfg.objective,
                          cfgmap["seed"], schedule=noise, cycles=cycles,
                          num_denoise_steps=cfgmap["num_denoise_steps"])
        tail = result.history[-min(50, len(result.history)):]
        rows.append((name, tcfg.objective, tcfg.gradient_cycles,
                     manifest["resolved"]["warmup_cycles"], result.steps,
                     float(np.mean([m.ce_loss for m in tail])),
                     float(np.mean([m.token_accuracy for m in tail])),
                     float(np.mean([m.exact_match_rate for m in tail])),
                     report.pass2_accuracy))

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
            InferenceError, RenderError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TaskError, md.CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
