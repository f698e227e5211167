import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyadsync
from dyadsync import cli, errors
from dyadsync.checkpoint import save_model
from dyadsync.cli import build_parser, main
from dyadsync.csm_branch import CsmConfig, CsmModel
from dyadsync.pose_io import load_dataset, load_manifest
from dyadsync.sttf import ModelConfig, SttfModel
from dyadsync.synthgen import SynthConfig


def run(*argv):
    return main(list(argv))


def make_dataset(tmp_path, per_class=3, seed=5, frames=48, name="raw"):
    out = tmp_path / name
    assert run("synth", "--out", str(out), "--per-class", str(per_class),
               "--seed", str(seed), "--frames", str(frames), "--lag", "5") == 0
    return out / "manifest.json"


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_clips_and_manifest(tmp_path):
    manifest = make_dataset(tmp_path, per_class=4)
    entries = load_manifest(manifest)
    assert len(entries) == 12
    assert len(list(manifest.parent.glob("*.json"))) == 13  # clips + manifest
    classes = [e.label_class for e in entries]
    assert classes.count("Sync") == classes.count("Unsync") == 4
    assert all(e.label_score is not None for e in entries)


def test_synth_is_deterministic(tmp_path):
    m1 = make_dataset(tmp_path, seed=9, name="a")
    m2 = make_dataset(tmp_path, seed=9, name="b")
    assert dir_bytes(m1.parent) == dir_bytes(m2.parent)
    m3 = make_dataset(tmp_path, seed=10, name="c")
    assert dir_bytes(m1.parent) != dir_bytes(m3.parent)


def test_seed_env_var_matches_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSYNC_SEED", "21")
    out_env = tmp_path / "env"
    assert run("synth", "--out", str(out_env), "--per-class", "2",
               "--frames", "40", "--lag", "4") == 0
    monkeypatch.delenv("DYADSYNC_SEED")
    out_flag = tmp_path / "flag"
    assert run("synth", "--out", str(out_flag), "--per-class", "2",
               "--seed", "21", "--frames", "40", "--lag", "4") == 0
    assert dir_bytes(out_env) == dir_bytes(out_flag)


def test_synth_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["synth", "--out", "x", "--per-class", "1"])
    cfg = SynthConfig()
    assert (args.frames, args.lag, args.amp_mismatch, args.jitter) == (
        cfg.f, cfg.lag, cfg.amp_mismatch, cfg.jitter)


def test_bad_seed_env_var_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSYNC_SEED", "twelve")
    assert run("synth", "--out", str(tmp_path / "x"), "--per-class", "1") == 2


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_negative_seed_is_config_error_naming_its_source(tmp_path, monkeypatch, capsys,
                                                         source):
    if source == "config":
        manifest = make_dataset(tmp_path, per_class=1)
        cfg = tmp_path / "neg_seed.json"
        cfg.write_text(json.dumps({"epochs": 1, "seed": -1}))
        argv = ["train", "--data", str(manifest), "--out", str(tmp_path / "run"),
                "--config", str(cfg)]
        named = "neg_seed.json"
    else:
        argv = ["synth", "--out", str(tmp_path / "x"), "--per-class", "1"]
        if source == "flag":
            argv += ["--seed", "-1"]
            named = "--seed"
        else:
            monkeypatch.setenv("DYADSYNC_SEED", "-3")
            named = "DYADSYNC_SEED"
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert named in err and "non-negative" in err


def package_env(**extra):
    """The environment with this dyadsync's source folder first on PYTHONPATH."""
    src = str(Path(dyadsync.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "raw"
    proc = subprocess.run(
        [sys.executable, "-m", "dyadsync", "synth", "--out", str(out), "--per-class", "1",
         "--frames", "20", "--seed", "4"],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out / "manifest.json")
    assert len(load_manifest(out / "manifest.json")) == 3


def test_artifact_digest_is_identical_on_one_and_two_blas_threads(tmp_path):
    # the only test that pins the float32 eval path, and every other stage's
    # artifacts, across BLAS thread counts
    script = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / f"threads{threads}")],
            env=package_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("flag, value", [("--jitter", "nan"), ("--amp-mismatch", "inf")])
def test_synth_non_finite_noise_is_config_error(tmp_path, capsys, flag, value):
    capsys.readouterr()
    assert run("synth", "--out", str(tmp_path / "raw"), "--per-class", "1",
               "--frames", "20", "--lag", "2", flag, value) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "raw").exists()


# ---------------------------------------------------------------------------
# preprocess / csm
# ---------------------------------------------------------------------------


def test_preprocess_resamples_and_normalizes(tmp_path):
    manifest = make_dataset(tmp_path)
    out = tmp_path / "prep"
    assert run("preprocess", "--data", str(manifest), "--out", str(out)) == 0
    sequences = load_dataset(out / "manifest.json")
    assert len(sequences) == 9
    for seq in sequences:
        assert seq.frames.shape == (81, 2, 17, 2)
        assert seq.frames.min() >= 0 and seq.frames.max() <= 1
        assert seq.label_class is not None


def test_preprocess_is_idempotent(tmp_path):
    manifest = make_dataset(tmp_path)
    once = tmp_path / "once"
    twice = tmp_path / "twice"
    assert run("preprocess", "--data", str(manifest), "--out", str(once)) == 0
    assert run("preprocess", "--data", str(once / "manifest.json"), "--out", str(twice)) == 0
    assert dir_bytes(once) == dir_bytes(twice)


def test_preprocess_writes_the_manifest_synth_wrote(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    out = tmp_path / "prep"
    assert run("preprocess", "--data", str(manifest), "--out", str(out)) == 0
    assert (out / "manifest.json").read_bytes() == manifest.read_bytes()


def test_worker_pool_preserves_artifacts(tmp_path):
    manifest = make_dataset(tmp_path)
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    assert run("preprocess", "--data", str(manifest), "--out", str(serial)) == 0
    assert run("preprocess", "--data", str(manifest), "--out", str(pooled),
               "--workers", "3") == 0
    assert dir_bytes(serial) == dir_bytes(pooled)


def test_worker_pool_is_capped_by_clips_and_cpus(tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in this process: nothing is forked
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    manifest = make_dataset(tmp_path, per_class=1)  # 3 clips
    serial = tmp_path / "serial"
    assert run("preprocess", "--data", str(manifest), "--out", str(serial)) == 0
    for cpus, want in [(4, [3]), (2, [2]), (1, []), (None, [])]:
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run("preprocess", "--data", str(manifest), "--out", str(out),
                   "--workers", "8") == 0
        assert sizes == want, cpus
        assert dir_bytes(out) == dir_bytes(serial)
    assert run("preprocess", "--data", str(manifest), "--out", str(tmp_path / "zero"),
               "--workers", "0") == 2


def test_csm_binary_artifacts(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    out = tmp_path / "mats"
    assert run("csm", "--data", str(manifest), "--out", str(out),
               "--size", "16", "--normalize") == 0
    files = sorted(out.glob("*.bin"))
    assert len(files) == 6
    raw = files[0].read_bytes()
    assert raw[:8] == (16).to_bytes(4, "little") * 2 and len(raw) == 8 + 16 * 16 * 4
    values = np.frombuffer(raw[8:], dtype="<f4")
    assert values.min() >= 0 and values.max() <= 1


def test_csm_pgm_and_self_kinds(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1)
    out = tmp_path / "pgm"
    assert run("csm", "--data", str(manifest), "--out", str(out),
               "--kind", "self0", "--format", "pgm") == 0
    files = list(out.glob("*.pgm"))
    assert len(files) == 3
    assert files[0].read_bytes().startswith(b"P5\n81 81\n255\n")


@pytest.mark.parametrize("size", ["0", "-3"])
def test_csm_non_positive_size_is_config_error(tmp_path, size):
    manifest = make_dataset(tmp_path, per_class=1)
    assert run("csm", "--data", str(manifest), "--out", str(tmp_path / "mats"),
               "--size", size) == 2


# ---------------------------------------------------------------------------
# baseline / train / eval
# ---------------------------------------------------------------------------


def test_baseline_end_to_end(tmp_path):
    manifest = make_dataset(tmp_path, per_class=4)
    out = tmp_path / "base"
    assert run("baseline", "--data", str(manifest), "--test", str(manifest),
               "--method", "crossrec", "--out", str(out)) == 0
    assert (out / "classifier.json").exists()
    assert (out / "train_features.csv").exists()
    assert (out / "predictions.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["accuracy"] > 50.0  # resubstitution on separable data


def write_tiny_configs(tmp_path, head="classify"):
    tc = tmp_path / "tc.json"
    tc.write_text(json.dumps({"epochs": 3, "batch_size": 8, "lr0": 0.01, "seed": 1}))
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"f": 12, "num_joints": 17, "d_joint": 2,
                              "layers": 1, "heads": 1, "dropout": 0.1,
                              "head_kind": head}))
    return tc, mc


def test_train_writes_checkpoint_and_history(tmp_path):
    manifest = make_dataset(tmp_path, per_class=3)
    tc, mc = write_tiny_configs(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--data", str(manifest), "--out", str(out),
               "--config", str(tc), "--model-config", str(mc)) == 0
    assert (out / "model.bin").exists()
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_metric"
    assert len(lines) == 4


def test_train_twice_same_seed_identical_artifacts(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    tc, mc = write_tiny_configs(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("train", "--data", str(manifest), "--out", str(out),
                   "--config", str(tc), "--model-config", str(mc)) == 0
    assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()


@pytest.mark.parametrize("key, value", [("loss_kind", "mse"), ("dropout", 0.1)])
def test_train_config_with_model_setting_is_config_error(tmp_path, capsys, key, value):
    # the task and the dropout belong to --model-config, not to --config
    manifest = make_dataset(tmp_path, per_class=1)
    tc, mc = write_tiny_configs(tmp_path)
    tc.write_text(json.dumps({"epochs": 1, key: value}))
    capsys.readouterr()
    assert run("train", "--data", str(manifest), "--out", str(tmp_path / "x"),
               "--config", str(tc), "--model-config", str(mc)) == 2
    err = capsys.readouterr().err
    assert "tc.json" in err and key in err


def test_eval_fuses_checkpoints(tmp_path):
    manifest = make_dataset(tmp_path, per_class=3)
    tc, mc = write_tiny_configs(tmp_path)
    run_dir = tmp_path / "tfn"
    assert run("train", "--data", str(manifest), "--out", str(run_dir),
               "--config", str(tc), "--model-config", str(mc)) == 0
    csm_dir = tmp_path / "csm"
    assert run("train", "--data", str(manifest), "--out", str(csm_dir),
               "--branch", "csm", "--config", str(tc)) == 0
    out = tmp_path / "eval"
    assert run("eval", "--ckpt", str(run_dir / "model.bin"),
               "--ckpt", str(csm_dir / "model.bin"),
               "--data", str(manifest), "--out", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"accuracy", "macro_f1", "recall", "confusion_counts"}
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "source_id,branch,p0,p1,p2"
    branches = {line.split(",")[1] for line in lines[1:]}
    assert branches == {"tfn", "csm", "fused"}


def test_eval_external_predictions(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    entries = load_manifest(manifest)
    lines = ["source_id,branch,p0,p1,p2"]
    for e in entries:
        hot = ["0", "0", "0"]
        hot[["Sync", "ModSync", "Unsync"].index(e.label_class)] = "10"
        lines.append(f"{e.path.stem},flow,{','.join(hot)}")
    ext = tmp_path / "flow.csv"
    ext.write_text("\n".join(lines) + "\n")
    out = tmp_path / "eval"
    assert run("eval", "--external", str(ext), "--data", str(manifest),
               "--out", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["accuracy"] == 100.0


def external_rows(ids, branch="flow"):
    return "".join(f"{sid},{branch},1,0,0\n" for sid in ids)


@pytest.mark.parametrize("case, ckpt", [
    ("unknown-id", True),
    ("reordered", True),
    ("subset", True),
    ("unknown-id", False),
    ("branches-differ", False),
    ("header-only", False),
])
def test_eval_external_ids_that_cannot_fuse_are_data_errors(tmp_path, capsys, case, ckpt):
    manifest = make_dataset(tmp_path, per_class=2, frames=40)
    ids = [e.path.stem for e in load_manifest(manifest)]
    rows, branch = {
        "unknown-id": (external_rows(ids[:-1] + ["not_a_sample"]), "flow"),
        "reordered": (external_rows(ids[::-1]), "flow"),
        "subset": (external_rows(ids[:3]), "flow"),
        "branches-differ": (external_rows(ids) + external_rows(ids[1:], "pose"), "pose"),
        "header-only": ("", None),
    }[case]
    ext = tmp_path / "flow.csv"
    ext.write_text("source_id,branch,p0,p1,p2\n" + rows)
    sources = ["--external", str(ext)]
    if ckpt:
        sources += ["--ckpt", save_untrained(tmp_path, "csm", CsmModel(CsmConfig(), seed=1))]
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", *sources, "--data", str(manifest), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(ext) in err
    if branch:
        assert f"branch {branch!r}" in err
    assert not out.exists()


def test_eval_external_repeated_id_is_data_error(tmp_path, capsys):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    ids = [e.path.stem for e in load_manifest(manifest)]
    ext = tmp_path / "flow.csv"
    ext.write_text("source_id,branch,p0,p1,p2\n" + external_rows(ids[:1] * 3 + ids[1:]))
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", "--external", str(ext), "--data", str(manifest), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(ext) in err and "branch 'flow'" in err and repr(ids[0]) in err
    assert not out.exists()


@pytest.mark.parametrize("ckpts, branch", [
    (["tfn"], "tfn"),
    (["tfn", "csm"], "tfn"),
    (["csm"], "fused"),
], ids=["ckpt-name", "ckpt-name-beside-csm", "fused"])
def test_eval_external_branch_with_a_taken_name_is_data_error(tmp_path, capsys, ckpts,
                                                              branch):
    manifest = make_dataset(tmp_path, per_class=2, frames=40)
    ids = [e.path.stem for e in load_manifest(manifest)]
    models = {"tfn": SttfModel(ModelConfig(f=12, d_joint=2, layers=1, heads=1), seed=1),
              "csm": CsmModel(CsmConfig(), seed=1)}
    sources = []
    for name in ckpts:
        sources += ["--ckpt", save_untrained(tmp_path, name, models[name])]
    ext = tmp_path / "ext.csv"
    ext.write_text("source_id,branch,p0,p1,p2\n" + external_rows(ids, branch))
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", *sources, "--external", str(ext), "--data", str(manifest),
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(ext) in err and f"branch {branch!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("header, bad_row", [
    ("source_id,branch,p0,p1,p2", "{},flow,0.5,nan,0.1"),
    ("source_id,branch,score", "{},flow,inf"),
], ids=["nan-logit", "inf-score"])
def test_eval_non_finite_external_value_is_data_error(tmp_path, capsys, header, bad_row):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    ids = [e.path.stem for e in load_manifest(manifest)]
    good = ",0.2,0.3,0.5" if header.endswith("p2") else ",5.0"
    lines = [header, bad_row.format(ids[0])] + [f"{sid},flow{good}" for sid in ids[1:]]
    ext = tmp_path / "flow.csv"
    ext.write_text("\n".join(lines) + "\n")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", "--external", str(ext), "--data", str(manifest), "--out", str(out)) == 3
    assert f"{ext}:2:" in capsys.readouterr().err
    assert not out.exists()


def test_eval_without_sources_is_config_error(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1)
    assert run("eval", "--data", str(manifest), "--out", str(tmp_path / "x")) == 2


def test_eval_regression_reports_mse(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    tc, mc = write_tiny_configs(tmp_path, head="regress")
    run_dir = tmp_path / "run"
    assert run("train", "--data", str(manifest), "--out", str(run_dir),
               "--config", str(tc), "--model-config", str(mc)) == 0
    out = tmp_path / "eval"
    assert run("eval", "--ckpt", str(run_dir / "model.bin"),
               "--data", str(manifest), "--out", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "mse" in metrics
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "source_id,branch,score"


def save_untrained(tmp_path, name, model):
    path = tmp_path / f"{name}.bin"
    save_model(model, path)
    return str(path)


def branch_rows(out, branch):
    """source_id -> value columns of one branch's rows in predictions.csv."""
    rows = [line.split(",") for line in (out / "predictions.csv").read_text().splitlines()]
    return {row[0]: row[2:] for row in rows[1:] if row[1] == branch}


def test_eval_feeds_csm_its_own_frames_beside_a_transformer(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    csm = save_untrained(tmp_path, "csm", CsmModel(CsmConfig(), seed=1))
    tfn = save_untrained(tmp_path, "tfn", SttfModel(
        ModelConfig(f=12, d_joint=2, layers=1, heads=1), seed=1))
    alone, mixed = tmp_path / "alone", tmp_path / "mixed"
    assert run("eval", "--ckpt", csm, "--data", str(manifest), "--out", str(alone)) == 0
    assert run("eval", "--ckpt", tfn, "--ckpt", csm, "--data", str(manifest),
               "--out", str(mixed)) == 0
    assert branch_rows(mixed, "csm") == branch_rows(alone, "csm")


def test_eval_transformers_with_different_frame_counts(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    ckpts = [save_untrained(tmp_path, f"tfn{f}", SttfModel(
        ModelConfig(f=f, d_joint=2, layers=1, heads=1), seed=f)) for f in (12, 20)]
    both = tmp_path / "both"
    assert run("eval", "--ckpt", ckpts[0], "--ckpt", ckpts[1], "--data", str(manifest),
               "--out", str(both)) == 0
    for ckpt, branch in zip(ckpts, ("tfn", "tfn2")):
        alone = tmp_path / Path(ckpt).stem
        assert run("eval", "--ckpt", ckpt, "--data", str(manifest), "--out", str(alone)) == 0
        assert branch_rows(both, branch) == branch_rows(alone, "tfn")


def test_eval_runs_each_model_in_chunks_of_64(tmp_path, monkeypatch):
    manifest = make_dataset(tmp_path, per_class=22, frames=20)  # 66 clips
    ckpts = [save_untrained(tmp_path, "tfn", SttfModel(
                 ModelConfig(f=12, d_joint=2, layers=1, heads=1), seed=1)),
             save_untrained(tmp_path, "csm", CsmModel(CsmConfig(), seed=1))]
    sizes = []
    for cls in (SttfModel, CsmModel):
        def spy(self, inputs, *args, _forward=cls.forward, **kwargs):
            sizes.append((type(self).__name__, len(inputs)))
            return _forward(self, inputs, *args, **kwargs)
        monkeypatch.setattr(cls, "forward", spy)
    assert run("eval", "--ckpt", ckpts[0], "--ckpt", ckpts[1], "--data", str(manifest),
               "--out", str(tmp_path / "eval")) == 0
    assert sizes == [("SttfModel", 64), ("SttfModel", 2), ("CsmModel", 64), ("CsmModel", 2)]


# ---------------------------------------------------------------------------
# gradcheck / export-attn / plumbing
# ---------------------------------------------------------------------------


def test_gradcheck_passes():
    assert run("gradcheck", "--seed", "3") == 0


def test_export_attention_maps(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1)
    tc, mc = write_tiny_configs(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--data", str(manifest), "--out", str(run_dir),
               "--config", str(tc), "--model-config", str(mc)) == 0
    out = tmp_path / "attn"
    assert run("export-attn", "--ckpt", str(run_dir / "model.bin"),
               "--data", str(manifest), "--out", str(out), "--format", "csv") == 0
    files = sorted(out.glob("*.csv"))
    # one per (branch, layer, head): 1 layer x 1 head x 2 branches
    assert len(files) == 2
    spatial = np.loadtxt(out / f"{files[0].stem}.csv", delimiter=",")
    assert spatial.shape == (34, 34)
    assert np.allclose(spatial.sum(axis=1), 1.0, atol=1e-9)
    assert run("export-attn", "--ckpt", str(run_dir / "model.bin"),
               "--data", str(manifest), "--out", str(out),
               "--index", "99") == 2


def test_missing_manifest_is_data_error(tmp_path):
    assert run("preprocess", "--data", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x")) == 3


def test_corrupt_train_config_is_config_error(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epochs": 2, "warp_factor": 9}))
    assert run("train", "--data", str(manifest), "--out", str(tmp_path / "x"),
               "--config", str(bad)) == 2


@pytest.mark.parametrize("column", [0, 2], ids=["x", "confidence"])
def test_non_finite_keypoint_is_data_error(tmp_path, capsys, column):
    manifest = make_dataset(tmp_path, per_class=1)
    clip = load_manifest(manifest)[1].path
    doc = json.loads(clip.read_text())
    doc["frames"][0]["persons"][0]["keypoints"][3][column] = float("nan")
    clip.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("csm", "--data", str(manifest), "--out", str(tmp_path / "mats")) == 3
    assert clip.name in capsys.readouterr().err


@pytest.mark.parametrize("score", ["high", [7.5], {"value": 7.5}],
                         ids=["string", "list", "object"])
def test_bad_manifest_score_is_data_error(tmp_path, capsys, score):
    manifest = make_dataset(tmp_path, per_class=1)
    entries = json.loads(manifest.read_text())
    entries[1]["label_score"] = score
    manifest.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run("csm", "--data", str(manifest), "--out", str(tmp_path / "mats")) == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and "entry 1" in err


@pytest.mark.parametrize("command", ["preprocess", "eval"])
def test_manifest_repeating_a_source_id_is_data_error(tmp_path, capsys, command):
    raw = make_dataset(tmp_path, per_class=1, frames=40).parent
    for folder, clip in (("a", "sync_0000.json"), ("c", "unsync_0000.json")):
        (raw / folder).mkdir()
        (raw / folder / "sync_0000.json").write_bytes((raw / clip).read_bytes())
    manifest = raw / "dup.json"
    manifest.write_text(json.dumps([
        {"path": "a/sync_0000.json", "label_class": "Sync"},
        {"path": "modsync_0000.json", "label_class": "ModSync"},
        {"path": "c/sync_0000.json", "label_class": "Unsync"},
    ]))
    argv = ["preprocess"]
    if command == "eval":
        ext = tmp_path / "flow.csv"
        ext.write_text("source_id,branch,p0,p1,p2\n"
                       + external_rows(["sync_0000", "modsync_0000"]))
        argv = ["eval", "--external", str(ext)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--data", str(manifest), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(manifest) in err and "entries 0 and 2" in err and "'sync_0000'" in err
    assert not out.exists()


def test_non_positive_image_size_names_the_clip(tmp_path, capsys):
    manifest = make_dataset(tmp_path, per_class=1)
    clip = load_manifest(manifest)[2].path
    doc = json.loads(clip.read_text())
    doc["image_size"] = [0, 240]
    clip.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("csm", "--data", str(manifest), "--out", str(tmp_path / "mats")) == 3
    assert clip.name in capsys.readouterr().err


def test_infinite_image_size_exits_3_naming_the_clip(tmp_path, capsys):
    # json.loads reads 1e400 as inf, which int() cannot take
    manifest = make_dataset(tmp_path, per_class=1)
    clip = load_manifest(manifest)[0].path
    doc = json.loads(clip.read_text())
    doc["image_size"] = "SIZE"
    clip.write_text(json.dumps(doc).replace('"SIZE"', "[1e400, 480]"))
    capsys.readouterr()
    assert run("preprocess", "--data", str(manifest), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert str(clip) in err and "image_size" in err and "Traceback" not in err


@pytest.mark.parametrize("json_value,message", [
    ("true", "person id must be the JSON integer 0 or 1, got True"),
    ('["1.5", true, 0.5]', 'keypoint value "1.5" is not a number'),
], ids=["id-true", "keypoint-row"])
def test_non_number_person_field_exits_3_naming_clip_and_frame(tmp_path, capsys, json_value,
                                                                message):
    manifest = make_dataset(tmp_path, per_class=1)
    clip = load_manifest(manifest)[0].path
    doc = json.loads(clip.read_text())
    person = doc["frames"][2]["persons"][1]
    if json_value == "true":
        person["id"] = "FIELD"
    else:
        person["keypoints"][0] = "FIELD"
    clip.write_text(json.dumps(doc).replace('"FIELD"', json_value))
    capsys.readouterr()
    assert run("preprocess", "--data", str(manifest), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert f"{clip}: frame 2: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["preprocess", "baseline"])
@pytest.mark.parametrize("case", ["no-dyad", "empty-file"])
def test_clip_without_valid_frames_names_the_clip(tmp_path, capsys, case, command):
    manifest = make_dataset(tmp_path, per_class=1)
    clip = load_manifest(manifest)[1].path
    if case == "empty-file":
        clip.write_text("")
    else:  # person b is missing from every frame
        doc = json.loads(clip.read_text())
        for frame in doc["frames"]:
            frame["persons"] = frame["persons"][:1]
        clip.write_text(json.dumps(doc))
    argv = {"preprocess": ["preprocess"], "baseline": ["baseline", "--method", "dtw"]}[command]
    capsys.readouterr()
    assert run(*argv, "--data", str(manifest), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert f"{clip}: no valid frames" in err


@pytest.mark.parametrize("loader, case", [
    ("clip", "directory"), ("clip", "not-utf8"),
    ("manifest", "directory"), ("manifest", "not-utf8"),
    ("external", "directory"), ("external", "not-utf8"),
    ("ckpt", "directory"),
])
def test_unreadable_input_exits_3_naming_the_file(tmp_path, capsys, loader, case):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    bad = {"clip": load_manifest(manifest)[1].path, "manifest": manifest,
           "external": tmp_path / "flow.csv", "ckpt": tmp_path / "model.bin"}[loader]
    if loader == "external":
        bad.write_text("source_id,branch,p0,p1,p2\n" + external_rows(["sync_0000"]))
    if case == "directory":
        bad.unlink(missing_ok=True)
        bad.mkdir()
    else:  # a Latin-1 byte in the middle of the text
        data = bad.read_bytes()
        bad.write_bytes(data[:10] + b"\xe9" + data[10:])
    out = tmp_path / "out"
    argv = {"clip": ["preprocess"], "manifest": ["preprocess"],
            "external": ["eval", "--external", str(bad)], "ckpt": ["eval", "--ckpt", str(bad)]}
    capsys.readouterr()
    assert run(*argv[loader], "--data", str(manifest), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error (data): ") and str(bad) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["manifest-score", "clip-index", "ckpt-seed"])
def test_json_integer_beyond_the_digit_limit_exits_3_naming_the_file(tmp_path, capsys, case):
    # json.loads refuses an integer of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    huge = "1" * 5000
    argv = ["preprocess"]
    if case == "manifest-score":
        bad = manifest
        entries = json.loads(bad.read_text())
        entries[1]["label_score"] = "HUGE"
        bad.write_text(json.dumps(entries).replace('"HUGE"', huge))
    elif case == "clip-index":
        bad = load_manifest(manifest)[1].path
        doc = json.loads(bad.read_text())
        doc["frames"][3]["index"] = "HUGE"
        bad.write_text(json.dumps(doc).replace('"HUGE"', huge))
    else:
        import struct

        bad = tmp_path / "model.bin"
        header = f'{{"config":{{}},"kind":"csm","manifest":[],"seed":{huge}}}'.encode()
        bad.write_bytes(struct.pack("<Q", len(header)) + header)
        argv = ["eval", "--ckpt", str(bad)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--data", str(manifest), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error (data): ") and str(bad) in err and "Traceback" not in err
    assert not out.exists()


def small_dataset(folder):
    """Two three-frame clips and their manifest, written compactly so that a
    random byte of a clip lands in its structure as well as in its numbers."""
    rows = [[10 + j, 20 + j, 0.5] for j in range(17)]
    persons = [{"id": 0, "keypoints": rows}, {"id": 1, "keypoints": rows}]
    clip = {"image_size": [320, 240],
            "frames": [{"index": t, "persons": persons} for t in range(3)]}
    for name in ("a", "b"):
        (folder / f"{name}.json").write_text(json.dumps(clip, separators=(",", ":")))
    manifest = folder / "manifest.json"
    manifest.write_text(json.dumps([{"path": "a.json", "label_class": "Sync"},
                                    {"path": "b.json", "label_score": 7.5}]))
    return manifest


def byte_mutants(data, rng, count):
    """``count`` copies of ``data``, each with 1 to 3 bytes overwritten,
    inserted or deleted; a new byte is any of 0x00-0xff."""
    for _ in range(count):
        out = bytearray(data)
        for _ in range(rng.integers(1, 4)):
            op, at, byte = rng.integers(3), rng.integers(len(out)), int(rng.integers(256))
            if op == 0:
                out[at] = byte
            elif op == 1:
                out.insert(at, byte)
            else:
                del out[at]
        yield bytes(out)


def test_byte_mutated_clip_or_manifest_exits_0_2_or_3(tmp_path, capsys):
    manifest = small_dataset(tmp_path)
    rng = np.random.default_rng(0)
    codes = []
    for target in (tmp_path / "a.json", manifest):
        original = target.read_bytes()
        for data in byte_mutants(original, rng, 300):
            target.write_bytes(data)
            code = run("preprocess", "--data", str(manifest), "--out", str(tmp_path / "out"),
                       "--frames", "4")
            assert code in (0, 2, 3), (target.name, data)
            codes.append(code)
        target.write_bytes(original)
    capsys.readouterr()
    assert codes.count(0) and codes.count(3)  # the fuzz reaches both outcomes


def command_argv(tmp_path, command, data):
    """argv of ``command`` on the manifest ``data``, without --out; the
    checkpoint is an untrained small transformer."""
    ckpt = save_untrained(tmp_path, "tfn", SttfModel(
        ModelConfig(f=12, d_joint=2, layers=1, heads=1), seed=1))
    return {"synth": ["synth", "--per-class", "1", "--frames", "20"],
            "preprocess": ["preprocess", "--data", data],
            "csm": ["csm", "--data", data],
            "baseline": ["baseline", "--method", "dtw", "--data", data],
            "train": ["train", "--branch", "csm", "--data", data],
            "eval": ["eval", "--ckpt", ckpt, "--data", data],
            "export-attn": ["export-attn", "--ckpt", ckpt, "--data", data]}[command]


@pytest.mark.parametrize("case", ["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["synth", "preprocess", "csm", "baseline", "train", "eval",
                                     "export-attn"])
def test_unusable_out_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, case):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    out = taken if case == "a-file" else taken / "run"
    # train refuses the directory before it trains, not after
    monkeypatch.setattr(cli, "fit", lambda *args: pytest.fail("fit ran before --out was made"))
    capsys.readouterr()
    assert run(*command_argv(tmp_path, command, str(manifest)), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and f"{out}: cannot make the output directory" in err
    assert "Traceback" not in err and taken.read_text() == "a file"


@pytest.mark.parametrize("command, code", [
    ("baseline", 3), ("baseline-test", 3), ("train", 3), ("eval", 3), ("export-attn", 3),
    ("preprocess", 0), ("csm", 0),  # these map clips one to one, so none is none
])
def test_empty_manifest_exits_3_naming_it(tmp_path, capsys, command, code):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    if command == "baseline-test":
        argv = command_argv(tmp_path, "baseline", str(make_dataset(tmp_path, per_class=1)))
        argv += ["--test", str(empty)]
    else:
        argv = command_argv(tmp_path, command, str(empty))
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error (data): ")
        assert f"{empty}: manifest lists no clips" in err and "Traceback" not in err


def test_zero_epoch_train_is_config_error_and_writes_nothing(tmp_path, capsys):
    manifest = make_dataset(tmp_path, per_class=1)
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"epochs": 0}))
    out = tmp_path / "run"
    capsys.readouterr()
    assert run("train", "--data", str(manifest), "--out", str(out), "--branch", "csm",
               "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "zero.json" in err and "epochs must be >= 1" in err
    assert not (out / "model.bin").exists() and not out.exists()


@pytest.mark.parametrize("order", ["regress-first", "classify-first", "external-scores"])
def test_eval_mixed_heads_is_config_error_naming_both(tmp_path, capsys, order):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    classify = save_untrained(tmp_path, "csm_classify", CsmModel(CsmConfig(), seed=1))
    if order == "external-scores":
        regress = str(tmp_path / "scores.csv")
        Path(regress).write_text("source_id,branch,score\n" + "".join(
            f"{e.path.stem},flow,5.0\n" for e in load_manifest(manifest)))
        sources = ["--ckpt", classify, "--external", regress]
    else:
        regress = save_untrained(tmp_path, "tfn_regress", SttfModel(
            ModelConfig(f=12, d_joint=2, layers=1, heads=1, head_kind="regress"), seed=1))
        first, second = (regress, classify) if order == "regress-first" else (classify, regress)
        sources = ["--ckpt", first, "--ckpt", second]
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", *sources, "--data", str(manifest), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert regress in err and classify in err
    assert not out.exists()


@pytest.mark.parametrize("head,label", [("classify", "class"), ("regress", "score")])
def test_eval_clip_without_the_heads_label_is_data_error_naming_it(tmp_path, capsys,
                                                                   head, label):
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    entries = json.loads(manifest.read_text())
    del entries[1][f"label_{label}"]
    manifest.write_text(json.dumps(entries))
    ckpt = save_untrained(tmp_path, head, SttfModel(
        ModelConfig(f=12, d_joint=2, layers=1, heads=1, head_kind=head), seed=1))
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run("eval", "--ckpt", ckpt, "--data", str(manifest), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert Path(entries[1]["path"]).stem in err and f"{label} label" in err
    assert not out.exists()


@pytest.mark.parametrize("branch,content", [
    ("tfn", None),  # missing file
    ("tfn", "{not json"),
    ("tfn", "[4, 1]"),
    ("tfn", '{"d_joint": 4, "width": 9}'),
    ("tfn", '{"d_joint": "4"}'),
    ("tfn", '{"layers": 1.5}'),
    ("csm", '{"side": 8, "width": 9}'),
    ("csm", '{"dropout": NaN}'),
    ("tfn", '{"dropout": null}'),
], ids=["missing", "invalid-json", "not-object", "unknown-key", "wrong-type",
        "float-for-int", "csm-unknown-key", "csm-nan", "null"])
def test_bad_model_config_is_config_error(tmp_path, capsys, branch, content):
    manifest = make_dataset(tmp_path, per_class=1)
    mc = tmp_path / "mc.json"
    if content is not None:
        mc.write_text(content)
    capsys.readouterr()
    assert run("train", "--data", str(manifest), "--out", str(tmp_path / "x"),
               "--branch", branch, "--model-config", str(mc)) == 2
    assert "mc.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "export-attn"])
def test_transformer_with_other_joint_count_names_its_file(tmp_path, capsys, command):
    # clips have 17 joints per person; a 5-joint transformer cannot take them
    manifest = make_dataset(tmp_path, per_class=1, frames=40)
    config = {"f": 12, "num_joints": 5, "d_joint": 4, "layers": 1, "heads": 2}
    out = tmp_path / "out"
    if command == "train":
        source = tmp_path / "mc.json"
        source.write_text(json.dumps(config))
        argv, code = ["train", "--model-config", str(source)], 2
    else:
        source = save_untrained(tmp_path, "joints5", SttfModel(ModelConfig(**config), seed=1))
        argv, code = [command, "--ckpt", source], 3
    capsys.readouterr()
    assert run(*argv, "--data", str(manifest), "--out", str(out)) == code
    err = capsys.readouterr().err
    assert str(source) in err and "num_joints is 5" in err
    assert not out.exists()


def test_bad_checkpoint_config_is_data_error(tmp_path, capsys):
    import struct

    manifest = make_dataset(tmp_path, per_class=1)
    header = json.dumps({"kind": "sttf", "seed": 0, "config": {"heads": "two"},
                         "manifest": []}).encode()
    ckpt = tmp_path / "bad.bin"
    ckpt.write_bytes(struct.pack("<Q", len(header)) + header)
    capsys.readouterr()
    assert run("eval", "--ckpt", str(ckpt), "--data", str(manifest),
               "--out", str(tmp_path / "x")) == 3
    assert "bad.bin" in capsys.readouterr().err


def test_diverging_train_writes_no_checkpoint(tmp_path, capsys):
    manifest = make_dataset(tmp_path, per_class=2)
    tc, mc = write_tiny_configs(tmp_path)
    tc.write_text(json.dumps({"epochs": 3, "batch_size": 8, "lr0": 1e300}))
    out = tmp_path / "run"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = run("train", "--data", str(manifest), "--out", str(out),
                   "--config", str(tc), "--model-config", str(mc))
    assert code == 4
    assert "loss is nan" in capsys.readouterr().err
    assert not (out / "model.bin").exists()


@pytest.mark.parametrize("error, code, prefix", [
    (errors.DyadsyncError, 4, "internal"),
    (errors.ConfigError, 2, "config"),
    (errors.DataError, 3, "data"),
    (errors.ContractError, 4, "internal"),
    (errors.NumericalError, 4, "internal"),
])
def test_each_error_class_has_its_exit_code(monkeypatch, capsys, error, code, prefix):
    assert {name for name, value in vars(errors).items() if isinstance(value, type)} == {
        "DyadsyncError", "ConfigError", "DataError", "ContractError", "NumericalError"}

    def failing_suite(seed):
        raise error("boom")

    monkeypatch.setattr(cli, "_gradcheck_suite", failing_suite)
    capsys.readouterr()
    assert run("gradcheck") == code
    assert capsys.readouterr().err == f"error ({prefix}): boom\n"


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        run("synth", "--out", "x", "--per-class", "1", "--warp", "9")
    assert err.value.code == 2


def test_help_documents_flags(capsys):
    parser = build_parser()
    for command, flags in {
        "synth": ["--out", "--per-class", "--seed", "--frames", "--lag",
                  "--amp-mismatch", "--jitter"],
        "preprocess": ["--data", "--out", "--frames", "--workers"],
        "csm": ["--kind", "--size", "--normalize", "--format", "--workers"],
        "baseline": ["--data", "--test", "--method", "--out"],
        "train": ["--branch", "--config", "--model-config", "--seed"],
        "eval": ["--ckpt", "--external", "--data", "--out"],
        "gradcheck": ["--seed"],
        "export-attn": ["--ckpt", "--index", "--format"],
    }.items():
        with pytest.raises(SystemExit) as err:
            parser.parse_args([command, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, (command, flag)
