"""Command wiring: config resolution, run directories, exit codes."""

import json
import math
import re
import shutil
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopforge import cli
from loopforge import model as md
from loopforge.corruption import CorruptionError, mask_fraction
from loopforge.seeding import rng_for
from loopforge.tasks import build_dataset, generate_synthetic
from loopforge.training import DivergenceError, TrainingError


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def train_args(out, objective="drm", steps=12, **extra):
    sets = {"tasks": 2, "augmentations": 2, "template_h": 4, "template_w": 4,
            "hidden_size": 16, "num_heads": 2, "num_layers": 1,
            "inner_steps": 2, "cycles_per_window": 2, "batch_size": 8,
            "checkpoint_interval": 6, "max_halt_steps": 3, "warmup_steps": 3,
            "num_denoise_steps": 2, **extra}
    argv = ["train", "--out", out, "--objective", objective, "--family",
            "copy", "--grid", 3, "--seed", 5, "--steps", steps]
    for k, v in sets.items():
        argv += ["--set", f"{k}={v}"]
    return argv


@pytest.fixture(scope="module")
def drm_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "drm"
    assert run_cli(*train_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def trm_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "trm"
    assert run_cli(*train_args(out, objective="trm")) == 0
    return out


# ---------------------------------------------------------------------------
# config resolution


class TestConfig:
    def test_defaults_cover_every_key(self):
        cfgmap = cli.default_config()
        assert set(cfgmap) == set(cli.CONFIG_KEYS)

    def test_file_then_set_then_flags(self, tmp_path):
        cfile = tmp_path / "c.cfg"
        cfile.write_text("# comment line\n"
                         "lr = 0.005\n"
                         "objective = sprm   # trailing comment\n"
                         "warmup_cycles = none\n"
                         "\n"
                         "grid=6\n")
        args = cli.build_parser().parse_args(
            ["train", "--out", "x", "--config", str(cfile),
             "--set", "lr=0.007", "--grid", "9"])
        cfgmap = cli.resolve_config(args)
        assert cfgmap["lr"] == 0.007          # --set beats the file
        assert cfgmap["grid"] == 9            # flag beats everything
        assert cfgmap["objective"] == "sprm"
        assert cfgmap["warmup_cycles"] is None

    def test_unknown_key_lists_valid_ones(self, tmp_path):
        cfile = tmp_path / "c.cfg"
        cfile.write_text("learning_rate = 1\n")
        with pytest.raises(cli.ConfigError, match="hidden_size"):
            cli.load_config_file(cfile)

    def test_bad_value_reports_key(self, tmp_path):
        cfile = tmp_path / "c.cfg"
        cfile.write_text("batch_size = many\n")
        with pytest.raises(cli.ConfigError, match="batch_size"):
            cli.load_config_file(cfile)

    def test_malformed_line_rejected(self, tmp_path):
        cfile = tmp_path / "c.cfg"
        cfile.write_text("just words\n")
        with pytest.raises(cli.ConfigError, match="key=value"):
            cli.load_config_file(cfile)

    def test_every_dataclass_key_reaches_its_field(self):
        # each value differs from its default, so a key dropped on the way
        # to its dataclass shows as the default
        raw = {"hidden_size": ("24", 24), "num_heads": ("2", 2),
               "num_layers": ("3", 3), "expansion": ("2", 2),
               "inner_steps": ("3", 3), "cycles_per_window": ("4", 4),
               "single_z": ("true", True), "max_halt_steps": ("5", 5),
               "objective": ("sprm", "sprm"), "lr": ("0.003", 0.003),
               "task_embedding_lr": ("0.02", 0.02),
               "weight_decay": ("0.05", 0.05), "warmup_steps": ("7", 7),
               "batch_size": ("9", 9), "ema_decay": ("0.99", 0.99),
               "gradient_cycles": ("2", 2), "warmup_cycles": ("1", 1),
               "epochs": ("3", 3)}
        assert set(raw) == set(cli.MODEL_KEYS) | set(cli.TRAIN_KEYS)
        argv = ["train", "--out", "x"]
        for key, (text, _) in raw.items():
            argv += ["--set", f"{key}={text}"]
        cfgmap = cli.resolve_config(cli.build_parser().parse_args(argv))
        dataset = build_dataset(generate_synthetic("copy", 3, 2, seed=0), 1, 4, 4, seed=0)
        cfg, tcfg, _ = cli.make_configs(cfgmap, dataset)
        defaults = cli.default_config()
        for keys, made in ((cli.MODEL_KEYS, cfg), (cli.TRAIN_KEYS, tcfg)):
            for key in keys:
                want = raw[key][1]
                assert defaults[key] != want, key
                if key != "cycles_per_window":
                    assert getattr(made, key) == want, key
        assert tcfg.max_halt_steps == 5
        # the model config holds the window training runs: the explicit
        # warm-up cycles plus the gradient cycles; without warmup_cycles,
        # sprm warms cycles_per_window - gradient_cycles: the window is the key
        assert cfg.cycles_per_window == 1 + 2
        cfg, _, _ = cli.make_configs({**cfgmap, "warmup_cycles": None}, dataset)
        assert cfg.cycles_per_window == 4

    def test_non_utf8_file_exits_config(self, tmp_path, capsys):
        cfile = tmp_path / "c.cfg"
        cfile.write_bytes("objective = drm  # caf\xe9\n".encode("latin-1"))
        assert run_cli("train", "--out", tmp_path / "x",
                       "--config", cfile) == cli.EXIT_CONFIG
        assert_one_error_line(capsys)


# config text: integers, floats with their edge cases, and words that some
# keys accept
CONFIG_TEXT = (st.integers(-3, 10 ** 6).map(str) | st.floats().map(repr)
               | st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "1e-300", "5e-324"])
               | st.sampled_from(["none", "true", "drm", "trm", "sigmoid", "copy", "x"]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(cli.CONFIG_KEYS)), CONFIG_TEXT, max_size=3))
def test_config_values_build_or_exit_config(drawn):
    # a config either raises an exception that exits 2, or builds configs
    # whose floats are all finite and a noise schedule that masks a
    # fraction in [0, 1]
    cfgmap = cli.default_config()
    dataset = build_dataset(generate_synthetic("copy", 3, 2, seed=0), 1, 4, 4, seed=0)
    try:
        for key, raw in drawn.items():
            cfgmap[key] = cli._parse_key(key, raw)
        cfg, tcfg, _ = cli.make_configs(cfgmap, dataset)
        noise, beta = cli._schedules(cfgmap)
    except (cli.ConfigError, TrainingError, md.ModelError, CorruptionError):
        return
    values = (*cfgmap.values(), *asdict(tcfg).values(), *asdict(noise).values(),
              *asdict(beta).values())
    assert all(math.isfinite(v) for v in values if isinstance(v, float)), drawn
    for tau in (0.0, 0.5, 1.0):
        assert 0.0 <= mask_fraction(noise, tau) <= 1.0, (drawn, tau)


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_run_directory_layout(self, drm_run):
        manifest = json.loads((drm_run / "manifest.json").read_text())
        assert manifest["objective"] == "drm"
        assert manifest["steps_run"] == 12
        assert manifest["checkpoints"] == ["step_000006.ltrm", "step_000012.ltrm"]
        assert len(manifest["dataset_hash"]) == 64
        assert manifest["resolved"]["warmup_cycles"] == 2
        metrics = (drm_run / "metrics.jsonl").read_text().splitlines()
        assert len(metrics) == 12
        assert set(json.loads(metrics[0])) == {
            "step", "objective", "ce_loss", "q_loss", "token_accuracy",
            "exact_match_rate", "halt_histogram", "grad_norm", "skipped_updates"}
        assert list(json.loads(metrics[0])) == [
            "step", "objective", "ce_loss", "q_loss", "token_accuracy",
            "exact_match_rate", "halt_histogram", "grad_norm", "skipped_updates"]

    def test_checkpoints_carry_the_trained_window(self, tmp_path):
        # drm warms two cycles ahead of its gradient cycles, whatever
        # cycles_per_window says, and inference replays what training ran
        run = tmp_path / "run"
        assert run_cli(*train_args(run, steps=6, gradient_cycles=2)) == 0
        paths = list((run / "checkpoints").glob("*.ltrm"))
        assert paths
        for path in paths:
            assert md.load_checkpoint(path)[0].cycles_per_window == 2 + 2

    def test_never_overwrites(self, drm_run, capsys):
        assert run_cli(*train_args(drm_run)) == cli.EXIT_CONFIG
        assert "refusing" in capsys.readouterr().err

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*train_args(a, steps=6)) == 0
        assert run_cli(*train_args(b, steps=6)) == 0
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()

    def test_unknown_objective_exits_config(self, tmp_path):
        code = run_cli(*train_args(tmp_path / "x", objective="zesty"))
        assert code == cli.EXIT_CONFIG

    def test_unknown_set_key_exits_config(self, tmp_path):
        code = run_cli("train", "--out", tmp_path / "x", "--set", "nope=1")
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("task", [
        {"train": 5, "test": []},
        {"train": [{"input": [[1, 2], [3]], "output": [[1, 2], [3, 4]]}],
         "test": [{"input": [[1]], "output": [[1]]}]},
        "not_utf8",
        "too_deep",
    ], ids=["train_not_a_list", "ragged_grid", "not_utf8", "too_deep"])
    def test_malformed_task_file_exits_data(self, tmp_path, capsys, task):
        data = tmp_path / "task.json"
        if task == "not_utf8":
            data.write_bytes('{"caf\xe9": 1}'.encode("latin-1"))
        elif task == "too_deep":
            data.write_text("[" * 100_000)
        else:
            data.write_text(json.dumps(task))
        assert run_cli("train", "--out", tmp_path / "x", "--data", data) == cli.EXIT_DATA
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_non_positive_steps_exits_config(self, tmp_path, capsys, steps):
        out = tmp_path / "x"
        assert run_cli(*train_args(out, steps=steps)) == cli.EXIT_CONFIG
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--augmentations", 0), ("--augmentations", -1), ("--family", "nope"),
        ("--set", "num_denoise_steps=0"), ("--set", "num_heads=0"), ("--set", "num_heads=-4"),
        ("--set", "hidden_size=0"), ("--set", "lr=nan"), ("--set", "lr=inf"),
        ("--set", "task_embedding_lr=nan"), ("--set", "weight_decay=nan"),
        ("--set", "noise.sigmoid_a=0"), ("--set", "noise.sigmoid_a=nan"),
        ("--set", "template_h=0"), ("--set", "template_w=0"), ("--set", "template_h=-4"),
        ("--set", "checkpoint_interval=-1"), ("--grid", 0), ("--grid", 13),
        ("--family", "translate_object", "--grid", 4), ("--set", "tasks=0"),
        ("--set", "tasks=-1"), ("--set", "template_h=2"), ("--set", "template_w=2"),
    ], ids=["augmentations_0", "augmentations_-1", "family_nope", "denoise_steps_0",
            "num_heads_0", "num_heads_-4", "hidden_size_0", "lr_nan", "lr_inf",
            "task_embedding_lr_nan", "weight_decay_nan", "sigmoid_a_0", "sigmoid_a_nan",
            "template_h_0", "template_w_0", "template_h_-4", "checkpoint_interval_-1",
            "grid_0", "grid_13", "translate_object_grid_4", "tasks_0", "tasks_-1",
            "template_h_below_grid", "template_w_below_grid"])
    def test_rejected_value_exits_config(self, tmp_path, capsys, flags):
        # the later flag or --set wins over the one train_args gives, and
        # the error names the key that was set
        out = tmp_path / "x"
        assert run_cli(*train_args(out), *flags) == cli.EXIT_CONFIG
        key = flags[-1].split("=")[0] if flags[-2] == "--set" else flags[-2][2:]
        err = assert_one_error_line(capsys)
        assert re.search(rf"\b{key.split('.')[-1]}\b", err), err
        assert not out.exists()

    def test_rejected_value_exits_config_before_any_variant(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert run_cli("ablate", "warmup_sweep", "--out", out,
                       "--set", "num_denoise_steps=0") == cli.EXIT_CONFIG
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_numeric(self, tmp_path):
        code = run_cli(*train_args(tmp_path / "x", objective="trm",
                                   lr=1000, warmup_steps=1))
        assert code == cli.EXIT_NUMERIC


# ---------------------------------------------------------------------------
# eval


def _bad_json(ck):
    ck.write_bytes(ck.read_bytes()[:12] + b"{not json")


def _nan_weight(ck):
    cfg, params, ema, meta = md.load_checkpoint(ck)
    params["q/b"][:] = np.nan
    md.save_checkpoint(ck, cfg, params, ema, meta)


def _set_metadata(run, metadata):
    for ck in (run / "checkpoints").glob("*.ltrm"):
        cfg, params, ema, _ = md.load_checkpoint(ck)
        md.save_checkpoint(ck, cfg, params, ema, metadata)


def _edit_manifest(key, *value):
    """Drop a dotted key from the manifest, or set it to value."""
    def edit(path):
        doc = json.loads(path.read_text())
        *parents, last = key.split(".")
        node = doc
        for part in parents:
            node = node[part]
        if value:
            node[last] = value[0]
        else:
            del node[last]
        path.write_text(json.dumps(doc))
    return edit


def _edit_config(key, value):
    """Set one config key of the manifest; its name may hold dots."""
    def edit(path):
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
    return edit


BAD_MANIFESTS = {
    "truncated": lambda p: p.write_text(p.read_text()[:40]),
    "not_an_object": lambda p: p.write_text("[]"),
    "too_deep": lambda p: p.write_text("[" * 100_000),
    "config_not_an_object": lambda p: p.write_text(
        json.dumps({**json.loads(p.read_text()), "config": 5})),
    **{f"no_{key}": _edit_manifest(key) for key in cli.MANIFEST_KEYS},
    "grid_not_an_int": _edit_manifest("config.grid", "x"),
    "augmentations_zero": _edit_manifest("config.augmentations", 0),
    "seed_not_an_int": _edit_manifest("seed", "abc"),
    "unknown_config_key": _edit_manifest("config.nope", 1),
    "unknown_noise_kind": _edit_config("noise.kind", "bogus"),
    "beta_start_above_beta_end": _edit_config("sprm.beta_start", 0.5),
    "lr_nan": _edit_config("lr", math.nan),
    "sigmoid_a_zero": _edit_config("noise.sigmoid_a", 0),
    "checkpoint_interval_negative": _edit_config("checkpoint_interval", -1),
    "grid_outside_family_range": _edit_config("grid", 0),
    "template_below_grid": _edit_config("template_h", 2),
}


@pytest.mark.parametrize("command", ["eval", "render"])
@pytest.mark.parametrize("bad", sorted(BAD_MANIFESTS))
def test_malformed_manifest_is_data_error(drm_run, tmp_path, capsys, command, bad):
    run = tmp_path / "run"
    shutil.copytree(drm_run, run)
    BAD_MANIFESTS[bad](run / cli.MANIFEST_NAME)
    assert run_cli(command, run) == cli.EXIT_DATA
    assert_one_error_line(capsys)


# manifest values: small bounded integers, odd floats, short strings and
# shallow containers of them
MANIFEST_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=4)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5, 1e-300, 1e300]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_manifest_loads_or_is_data_error(drm_run, tmp_path_factory, data):
    # one to three edits, each a config value set or deleted, a top-level
    # key set or deleted, or the whole document replaced: the run either
    # loads or raises TaskError, which exits 3
    doc = json.loads((drm_run / cli.MANIFEST_NAME).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["config", "key", "document"]))
        if kind == "config" and isinstance(doc, dict) and isinstance(doc.get("config"), dict):
            node, key = doc["config"], data.draw(st.sampled_from(sorted(cli.CONFIG_KEYS)))
        elif kind == "key" and isinstance(doc, dict):
            node, key = doc, data.draw(st.text(max_size=4) | st.sampled_from(
                sorted({*doc, *cli.MANIFEST_KEYS, "steps_run"})))
        else:
            doc = data.draw(MANIFEST_VALUES)
            continue
        if data.draw(st.booleans()):
            node.pop(key, None)
        else:
            node[key] = data.draw(MANIFEST_VALUES)
    run = tmp_path_factory.mktemp("run")
    (run / cli.MANIFEST_NAME).write_text(json.dumps(doc))
    try:
        cli._load_run(run)
    except cli.TaskError:
        pass


def test_unfinished_run_is_data_error(tmp_path, monkeypatch, capsys):
    # a run that stops after its first checkpoint keeps the manifest that
    # was written before training, which has no steps_run
    save = md.save_checkpoint

    def save_then_diverge(*args, **kwargs):
        save(*args, **kwargs)
        raise DivergenceError("raised after the first checkpoint")

    monkeypatch.setattr(md, "save_checkpoint", save_then_diverge)
    run = tmp_path / "run"
    assert run_cli(*train_args(run)) == cli.EXIT_NUMERIC
    monkeypatch.undo()
    capsys.readouterr()
    assert [p.name for p in (run / "checkpoints").glob("*.ltrm")] == ["step_000006.ltrm"]
    for command in ("eval", "render"):
        assert run_cli(command, run) == cli.EXIT_DATA
        assert_one_error_line(capsys)
    assert not (run / "eval_report.json").exists()
    assert not (run / "render").exists()


class _HalfWrite:
    """A file whose first write stores half its bytes, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


def test_failed_writes_leave_earlier_files_intact(drm_run, tmp_path, monkeypatch):
    run = tmp_path / "run"
    shutil.copytree(drm_run, run)
    snapshot = lambda: {p.relative_to(run): p.read_bytes()
                        for p in run.rglob("*") if p.is_file()}
    before = snapshot()
    ck_dir = run / "checkpoints"
    cfg, params, ema, _ = md.load_checkpoint(ck_dir / "step_000012.ltrm")
    manifest = json.loads((run / cli.MANIFEST_NAME).read_text())
    real_open = open
    monkeypatch.setattr(md, "open", lambda path, mode="r": _HalfWrite(real_open(path, mode)),
                        raising=False)
    # overwrite an existing checkpoint, write a new one, rewrite the manifest
    for name in ("step_000012.ltrm", "step_000018.ltrm"):
        with pytest.raises(OSError):
            md.save_checkpoint(ck_dir / name, cfg, params, ema, {"step": 18})
    with pytest.raises(OSError):
        cli._write_manifest(run, {**manifest, "steps_run": 18})
    monkeypatch.undo()
    assert snapshot() == before


def _add_foreign_checkpoint(**change):
    """Add a last checkpoint, fresh weights included, whose config is the
    run's with `change` applied."""
    def add(run):
        ck_dir = run / "checkpoints"
        cfg, _, _, meta = md.load_checkpoint(sorted(ck_dir.glob("*.ltrm"))[-1])
        cfg = replace(cfg, **change)
        md.save_checkpoint(ck_dir / "step_999999.ltrm", cfg,
                           md.Parameters.init(cfg, rng_for(0, "foreign")), None, meta)
    return add


def _rewrite_window(cycles):
    """Rewrite every checkpoint with another cycles_per_window and the same
    weights, as runs trained before checkpoints carried their window were."""
    def rewrite(run):
        for ck in (run / "checkpoints").glob("*.ltrm"):
            cfg, params, ema, meta = md.load_checkpoint(ck)
            md.save_checkpoint(ck, replace(cfg, cycles_per_window=cycles),
                               params, ema, meta)
    return rewrite


# drm_run has 2 tasks x 2 augmentations = 4 task rows and a 4x4 template,
# and trains 2 warm-up cycles + 1 gradient cycle with cycles_per_window=2
FOREIGN_CHECKPOINTS = {
    "fewer_task_rows": _add_foreign_checkpoint(num_tasks=2),
    "other_template": _add_foreign_checkpoint(
        seq_len=build_dataset(generate_synthetic("copy", 3, 2, seed=5),
                              2, 5, 5, seed=5).seq_len),
    "window_from_the_key": _rewrite_window(2),
}


@pytest.mark.parametrize("command", ["eval", "render"])
@pytest.mark.parametrize("foreign", sorted(FOREIGN_CHECKPOINTS))
def test_checkpoint_config_not_the_runs_is_data_error(drm_run, tmp_path, capsys,
                                                      command, foreign):
    run = tmp_path / "run"
    shutil.copytree(drm_run, run)
    FOREIGN_CHECKPOINTS[foreign](run)
    assert run_cli(command, run) == cli.EXIT_DATA
    assert_one_error_line(capsys)
    assert not (run / "eval_report.json").exists()
    assert not (run / "render").exists()


@pytest.mark.parametrize("command", ["eval", "render"])
def test_checkpoint_metadata_list_is_data_error(drm_run, tmp_path, capsys, command):
    run = tmp_path / "run"
    shutil.copytree(drm_run, run)
    _set_metadata(run, ["drm"])
    assert run_cli(command, run) == cli.EXIT_DATA
    assert_one_error_line(capsys)


class TestEval:
    def test_report_schema(self, drm_run, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("eval", drm_run, "--k", "3", "--num-denoise-steps", "2",
                       "--out", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 2
        for body in doc.values():
            assert set(body) == {"pass2", "passk", "top2"}
            assert isinstance(body["pass2"], bool)
            assert set(body["passk"]) == {"3"}
            for g in body["top2"]:
                assert all(0 <= v <= 9 for row in g for v in row)

    def test_failed_report_write_keeps_the_earlier_report(self, drm_run, tmp_path,
                                                          monkeypatch, capsys):
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        real_open = open
        monkeypatch.setattr(md, "open", lambda path, mode="r": _HalfWrite(
            real_open(path, mode)), raising=False)
        assert run_cli("eval", drm_run, "--num-denoise-steps", "2", "--out", out) \
            == cli.EXIT_DATA
        assert_one_error_line(capsys)
        assert sorted(tmp_path.iterdir()) == [out]
        assert out.read_text() == "earlier report\n"

    def test_missing_run_dir_is_data_error(self, tmp_path):
        assert run_cli("eval", tmp_path / "nope") == cli.EXIT_DATA

    @pytest.mark.parametrize("corrupt, message", [
        (_bad_json, "malformed checkpoint"),
        (_nan_weight, "non-finite"),
    ], ids=["bad_json", "nan_weight"])
    def test_malformed_checkpoint_is_data_error(self, drm_run, tmp_path, capsys,
                                                corrupt, message):
        run = tmp_path / "run"
        shutil.copytree(drm_run, run)
        corrupt(sorted((run / "checkpoints").glob("*.ltrm"))[0])
        assert run_cli("eval", run) == cli.EXIT_DATA
        assert message in capsys.readouterr().err

    def test_requesting_untrained_augmentations_fails(self, drm_run):
        assert run_cli("eval", drm_run, "--augmentations", "9") == cli.EXIT_CONFIG

    def test_identity_only_pool(self, drm_run, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("eval", drm_run, "--augmentations", "1",
                       "--num-denoise-steps", "1", "--out", out) == 0
        assert len(json.loads(out.read_text())) == 2

    @pytest.mark.parametrize("flags", [
        ("--augmentations", "-1"), ("--augmentations", "0"),
        ("--num-denoise-steps", "0"), ("--num-denoise-steps", "-2"),
    ], ids=["augmentations_-1", "augmentations_0", "denoise_steps_0",
            "denoise_steps_-2"])
    def test_non_positive_flag_exits_config(self, drm_run, tmp_path, capsys, flags):
        out = tmp_path / "r.json"
        assert run_cli("eval", drm_run, *flags, "--out", out) == cli.EXIT_CONFIG
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_restrict_keeps_identity_rows(self):
        tasks = generate_synthetic("copy", 3, 2, seed=0)
        ds = build_dataset(tasks, 3, 4, 4, seed=0)
        cut = cli._restrict_augmentations(ds, 3, 1)
        assert len(cut.eval_cases) == 2
        assert all(c.row % 3 == 0 for c in cut.eval_cases)
        with pytest.raises(cli.ConfigError):
            cli._restrict_augmentations(ds, 3, 4)


# ---------------------------------------------------------------------------
# render


class TestRender:
    def test_header_plus_one_frame_per_step(self, drm_run, tmp_path):
        out = tmp_path / "frames"
        assert run_cli("render", drm_run, "--num-denoise-steps", "4",
                       "--out", out) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["header.svg", "step_001.svg", "step_002.svg",
                         "step_003.svg", "step_004.svg"]
        sizes = set()
        for name in files:
            root = ET.fromstring((out / name).read_text())
            assert root.tag.endswith("svg")
            if name.startswith("step"):
                sizes.add((root.get("width"), root.get("height")))
        assert len(sizes) == 1
        # the final frame remasks nothing, so it carries no cross overlays
        assert "<line" not in (out / "step_004.svg").read_text()

    def test_frame_count_leaves_out_the_header(self, drm_run, tmp_path, capsys):
        out = tmp_path / "frames"
        assert run_cli("render", drm_run, "--num-denoise-steps", "6", "--out", out) == 0
        assert capsys.readouterr().out == f"wrote 6 frames to {out}\n"

    def test_empty_metadata_falls_back_to_the_manifest(self, drm_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(drm_run, run)
        _set_metadata(run, {})
        out = tmp_path / "frames"
        assert run_cli("render", run, "--num-denoise-steps", "2", "--out", out) == 0
        assert len(list(out.glob("step_*.svg"))) == 2

    def test_trm_checkpoint_rejected_with_explanation(self, trm_run, capsys):
        assert run_cli("render", trm_run) == cli.EXIT_CONFIG
        assert "generate-and-remask" in capsys.readouterr().err

    def test_zero_denoise_steps_exits_config(self, drm_run, tmp_path, capsys):
        out = tmp_path / "frames"
        assert run_cli("render", drm_run, "--num-denoise-steps", "0",
                       "--out", out) == cli.EXIT_CONFIG
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_unknown_task_id(self, drm_run):
        assert run_cli("render", drm_run, "--task", "ghost") == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# ablate


class TestAblate:
    def test_suite_matrices(self):
        assert list(cli.SUITES) == ["k_sweep", "warmup_sweep", "schedule_sweep", "single_z"]
        k = cli.SUITES["k_sweep"]
        assert [n for n, _ in k] == ["drm_k1", "drm_k2", "drm_k3", "drm_k4",
                                     "trm_k1", "trm_k2", "trm_k3", "trm_k4"]
        assert all(o["warmup_cycles"] is None for _, o in k)
        w = cli.SUITES["warmup_sweep"]
        assert [o["warmup_cycles"] for _, o in w] == [0, 1, 2]
        s = cli.SUITES["schedule_sweep"]
        assert [o["noise.kind"] for _, o in s] == ["linear", "sigmoid", "cosine"]
        z = cli.SUITES["single_z"]
        assert [o["single_z"] for _, o in z] == [False, True]
        # every override names a config key
        assert all(set(o) <= set(cli.CONFIG_KEYS) for v in cli.SUITES.values() for _, o in v)

    @pytest.mark.parametrize("argv", [
        ("single_z", "--family", "copy", "--grid", 0),
        ("k_sweep", "--set", "num_heads=3"),
    ], ids=["grid_0", "num_heads_3"])
    def test_every_variant_builds_before_the_suite_directory(self, tmp_path, capsys,
                                                             argv):
        out = tmp_path / "suite"
        assert run_cli("ablate", *argv, "--out", out) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        # no variant header: the suite stops before its first variant trains
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_k_sweep_runs_and_summarises(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["ablate", "k_sweep", "--out", out, "--family", "copy",
                "--grid", 3, "--seed", 2, "--steps", 3]
        for kv in ("tasks=1", "augmentations=1", "template_h=3", "template_w=3",
                   "hidden_size=16", "num_heads=2", "num_layers=1",
                   "inner_steps=2", "cycles_per_window=2", "batch_size=4",
                   "max_halt_steps=2", "warmup_steps=2", "num_denoise_steps=1"):
            argv += ["--set", kv]
        assert run_cli(*argv) == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["variant", "objective", "k", "warm",
                                        "steps", "ce", "token_acc",
                                        "exact_match", "pass2"]
        rows = {parts[0]: parts for parts in
                (line.split("\t") for line in lines[1:])}
        assert len(rows) == 8
        # drm keeps its two warm-up cycles at every k; trm warms T-k, floored
        assert [rows[f"drm_k{k}"][3] for k in (1, 2, 3, 4)] == ["2"] * 4
        assert [rows[f"trm_k{k}"][3] for k in (1, 2, 3, 4)] == ["1", "0", "0", "0"]
        for k in (1, 2, 3, 4):
            assert (out / f"drm_k{k}" / "manifest.json").exists()

    def test_each_variant_is_scored_as_eval_scores_it(self, tmp_path, monkeypatch):
        # a checkpoint every step, so each variant's run holds three; eval
        # pools them all, and ablate must score the same pool
        seen: list = []      # (dataset, predictions) per collect call
        collect = cli.collect_predictions

        def spy(dataset, *args, **kwargs):
            entries = collect(dataset, *args, **kwargs)
            seen.append((dataset, len(entries)))
            return entries

        monkeypatch.setattr(cli, "collect_predictions", spy)
        out = tmp_path / "suite"
        argv = ["ablate", "single_z", "--out", out, "--objective", "drm",
                "--family", "copy", "--grid", 3, "--seed", 4, "--steps", 3]
        for kv in ("tasks=2", "augmentations=2", "template_h=3", "template_w=3",
                   "hidden_size=16", "num_heads=2", "num_layers=1",
                   "inner_steps=2", "cycles_per_window=2", "batch_size=4",
                   "warmup_steps=2", "num_denoise_steps=1",
                   "checkpoint_interval=1"):
            argv += ["--set", kv]
        assert run_cli(*argv) == 0
        # each variant's eval loads its own dataset, one per scored pool
        pools = {id(d): d for d, _ in seen}
        assert len(pools) == 2
        for dataset in pools.values():
            sizes = [n for d, n in seen if d is dataset]
            assert len(sizes) == 3
            assert sum(sizes) == 3 * len(dataset.eval_cases)

        lines = (out / "summary.tsv").read_text().splitlines()
        rows = {parts[0]: parts for parts in (line.split("\t") for line in lines[1:])}
        assert sorted(rows) == ["paired_state", "single_state"]
        for name, row in rows.items():
            assert len(list((out / name / "checkpoints").glob("*.ltrm"))) == 3
            report, _ = cli.pooled_eval(out / name, ks=(2,))
            assert row[-1] == f"{report.accuracy(2):.4f}"


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        cli.main(["warble"])
    assert e.value.code == 2
