import json

import numpy as np
import pytest

from dyadsync.cli import build_parser, main
from dyadsync.pose_io import load_dataset, load_manifest
from dyadsync.similarity import load_binary


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


def test_bad_seed_env_var_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSYNC_SEED", "twelve")
    assert run("synth", "--out", str(tmp_path / "x"), "--per-class", "1") == 2


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


def test_worker_pool_preserves_artifacts(tmp_path):
    manifest = make_dataset(tmp_path)
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    assert run("preprocess", "--data", str(manifest), "--out", str(serial)) == 0
    assert run("preprocess", "--data", str(manifest), "--out", str(pooled),
               "--workers", "3") == 0
    assert dir_bytes(serial) == dir_bytes(pooled)


def test_csm_binary_artifacts(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    out = tmp_path / "mats"
    assert run("csm", "--data", str(manifest), "--out", str(out),
               "--size", "16", "--normalize") == 0
    files = sorted(out.glob("*.bin"))
    assert len(files) == 6
    m = load_binary(files[0])
    assert m.values.shape == (16, 16)
    assert m.values.min() >= 0 and m.values.max() <= 1


def test_csm_pgm_and_self_kinds(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1)
    out = tmp_path / "pgm"
    assert run("csm", "--data", str(manifest), "--out", str(out),
               "--kind", "self0", "--format", "pgm") == 0
    files = list(out.glob("*.pgm"))
    assert len(files) == 3
    assert files[0].read_bytes().startswith(b"P5\n81 81\n255\n")


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


def write_tiny_configs(tmp_path, loss="cross_entropy", head="classify"):
    tc = tmp_path / "tc.json"
    tc.write_text(json.dumps({"epochs": 3, "batch_size": 8, "lr0": 0.01,
                              "seed": 1, "loss_kind": loss}))
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


def test_train_loss_head_mismatch_is_config_error(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    tc, mc = write_tiny_configs(tmp_path, loss="mse", head="classify")
    assert run("train", "--data", str(manifest), "--out", str(tmp_path / "x"),
               "--config", str(tc), "--model-config", str(mc)) == 2


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


def test_eval_misaligned_external_is_contract_error(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    tc, mc = write_tiny_configs(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--data", str(manifest), "--out", str(run_dir),
               "--config", str(tc), "--model-config", str(mc)) == 0
    ext = tmp_path / "flow.csv"
    ext.write_text("source_id,branch,p0,p1,p2\nnot_a_sample,flow,1,0,0\n")
    assert run("eval", "--ckpt", str(run_dir / "model.bin"), "--external", str(ext),
               "--data", str(manifest), "--out", str(tmp_path / "x")) == 4


def test_eval_without_sources_is_config_error(tmp_path):
    manifest = make_dataset(tmp_path, per_class=1)
    assert run("eval", "--data", str(manifest), "--out", str(tmp_path / "x")) == 2


def test_eval_regression_reports_mse(tmp_path):
    manifest = make_dataset(tmp_path, per_class=2)
    tc, mc = write_tiny_configs(tmp_path, loss="mse", head="regress")
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


@pytest.mark.parametrize("branch,content", [
    ("tfn", None),  # missing file
    ("tfn", "{not json"),
    ("tfn", "[4, 1]"),
    ("tfn", '{"d_joint": 4, "width": 9}'),
    ("tfn", '{"d_joint": "4"}'),
    ("tfn", '{"layers": 1.5}'),
    ("csm", '{"side": 8, "width": 9}'),
    ("csm", '{"dropout": NaN}'),
], ids=["missing", "invalid-json", "not-object", "unknown-key", "wrong-type",
        "float-for-int", "csm-unknown-key", "csm-nan"])
def test_bad_model_config_is_config_error(tmp_path, capsys, branch, content):
    manifest = make_dataset(tmp_path, per_class=1)
    mc = tmp_path / "mc.json"
    if content is not None:
        mc.write_text(content)
    capsys.readouterr()
    assert run("train", "--data", str(manifest), "--out", str(tmp_path / "x"),
               "--branch", branch, "--model-config", str(mc)) == 2
    assert "mc.json" in capsys.readouterr().err


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
