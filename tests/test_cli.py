"""Command wiring: config resolution, run directories, exit codes."""

import json
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from loopforge import cli
from loopforge import model as md
from loopforge.tasks import build_dataset, generate_synthetic


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


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
            "exact_match_rate", "skipped_updates"}

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

    def test_trm_checkpoint_rejected_with_explanation(self, trm_run, capsys):
        assert run_cli("render", trm_run) == cli.EXIT_CONFIG
        assert "generate-and-remask" in capsys.readouterr().err

    def test_unknown_task_id(self, drm_run):
        assert run_cli("render", drm_run, "--task", "ghost") == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# ablate


class TestAblate:
    def test_suite_matrices(self):
        base = cli.default_config()
        k = cli._suite_variants("k_sweep", base)
        assert [n for n, _ in k] == ["drm_k1", "drm_k2", "drm_k3", "drm_k4",
                                     "trm_k1", "trm_k2", "trm_k3", "trm_k4"]
        assert all(o["warmup_cycles"] is None for _, o in k)
        w = cli._suite_variants("warmup_sweep", base)
        assert [o["warmup_cycles"] for _, o in w] == [0, 1, 2]
        s = cli._suite_variants("schedule_sweep", base)
        assert [o["noise.kind"] for _, o in s] == ["linear", "sigmoid", "cosine"]
        z = cli._suite_variants("single_z", base)
        assert [o["single_z"] for _, o in z] == [False, True]

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


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        cli.main(["warble"])
    assert e.value.code == 2
