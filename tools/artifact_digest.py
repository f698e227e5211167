"""Run the CLI pipeline into a directory and print the SHA-256 of every artifact.

Usage, from the repository root:

    PYTHONPATH=src python tools/artifact_digest.py OUT_DIR

OUT_DIR must not exist yet.  The script runs, in one process through
``dyadsync.cli.main``: ``synth`` (train set seed 7, test set seed 8),
``preprocess`` on one and on two workers, ``csm`` for the cross kind
(``--format bin``) and both self-similarity kinds (``self0`` resized,
normalized and written as PGM, ``self1`` as CSV), ``baseline --test`` for
``dtw``, ``corr2d`` and ``crossrec``, ``train`` for both branches with a
two-epoch training config and a small transformer config, ``eval`` of
both checkpoints, ``eval`` of the CSM checkpoint fused with the DTW
baseline's predictions through ``--external``, ``export-attn``,
``train`` and ``eval`` of a regression-head transformer and of a
regression-head CSM model (so all four (branch, head) pairs ``train``
builds are covered), ``train``, ``eval`` and ``export-attn`` of a
wider transformer (two layers of four heads, trained for one epoch), an
``eval`` of the DTW baseline's predictions alone through ``--external``
(no ``--ckpt``, so the fused order is the CSV's first branch's), and a
one-epoch ``train`` and an ``eval`` of a thin transformer (4 frames and
one feature per spatial head).  Every config is written as UTF-8.  It
then prints ``sha256  relative/path`` for every file under OUT_DIR,
sorted by path.

Every artifact is deterministic, so two checkouts that should produce the
same bytes can be compared by running the script against each one's
``src`` and diffing the outputs.  The commands' own output and the name
of the dyadsync package in use go to stderr, so stdout holds only the
digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

import dyadsync
from dyadsync.cli import main

TRAIN_CONFIG = {"epochs": 2, "batch_size": 8}
MODEL_CONFIG = {"d_joint": 4, "layers": 1, "heads": 2, "dropout": 0.1}
REGRESS_CONFIG = {**MODEL_CONFIG, "head_kind": "regress"}
CSM_REGRESS_CONFIG = {"head_kind": "regress"}
WIDE_CONFIG = {"d_joint": 8, "heads": 4, "layers": 2, "dropout": 0.1}
WIDE_TRAIN_CONFIG = {**TRAIN_CONFIG, "epochs": 1}
# one feature per spatial head (fresh()'s strided layout) and 4 temporal
# tokens (the key sum's one-by-one regime below 8 terms)
THIN_CONFIG = {"f": 4, "d_joint": 4, "heads": 4, "layers": 1, "dropout": 0.1}
CONFIGS = {"train": TRAIN_CONFIG, "model": MODEL_CONFIG, "model_regress": REGRESS_CONFIG,
           "model_csm_regress": CSM_REGRESS_CONFIG, "model_wide": WIDE_CONFIG,
           "train_wide": WIDE_TRAIN_CONFIG, "model_thin": THIN_CONFIG}


def run_pipeline(out: Path) -> None:
    """Write every artifact of the CLI sequence under ``out``."""
    train, test = out / "data" / "train", out / "data" / "test"
    train_manifest, test_manifest = str(train / "manifest.json"), str(test / "manifest.json")
    configs = out / "configs"
    configs.mkdir(parents=True)
    for name, config in CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")

    steps = [
        ["synth", "--out", str(train), "--per-class", "4", "--seed", "7"],
        ["synth", "--out", str(test), "--per-class", "2", "--seed", "8"],
        ["preprocess", "--data", test_manifest, "--out", str(out / "clean")],
        ["csm", "--data", test_manifest, "--out", str(out / "csm"), "--format", "bin"],
    ]
    steps += [["baseline", "--data", train_manifest, "--test", test_manifest,
               "--method", method, "--out", str(out / "baseline" / method)]
              for method in ("dtw", "corr2d", "crossrec")]
    tfn, csm = out / "runs" / "tfn", out / "runs" / "csm"
    steps += [
        ["train", "--data", train_manifest, "--out", str(tfn), "--branch", "tfn", "--seed", "3",
         "--config", str(configs / "train.json"), "--model-config", str(configs / "model.json")],
        ["train", "--data", train_manifest, "--out", str(csm), "--branch", "csm", "--seed", "3",
         "--config", str(configs / "train.json")],
        ["eval", "--ckpt", str(tfn / "model.bin"), "--ckpt", str(csm / "model.bin"),
         "--data", test_manifest, "--out", str(out / "eval")],
        ["export-attn", "--ckpt", str(tfn / "model.bin"), "--data", test_manifest,
         "--out", str(out / "attn")],
        ["csm", "--data", test_manifest, "--out", str(out / "csm_self0"), "--kind", "self0",
         "--format", "pgm", "--size", "40", "--normalize"],
        ["csm", "--data", test_manifest, "--out", str(out / "csm_self1"), "--kind", "self1",
         "--format", "csv"],
        ["preprocess", "--data", test_manifest, "--out", str(out / "clean_workers2"),
         "--workers", "2"],
        ["eval", "--ckpt", str(csm / "model.bin"),
         "--external", str(out / "baseline" / "dtw" / "predictions.csv"),
         "--data", test_manifest, "--out", str(out / "eval_external")],
    ]
    tfn_regress, csm_regress = out / "runs" / "tfn_regress", out / "runs" / "csm_regress"
    steps += [
        ["train", "--data", train_manifest, "--out", str(tfn_regress), "--branch", "tfn",
         "--seed", "3", "--config", str(configs / "train.json"),
         "--model-config", str(configs / "model_regress.json")],
        ["eval", "--ckpt", str(tfn_regress / "model.bin"), "--data", test_manifest,
         "--out", str(out / "eval_regress")],
        ["train", "--data", train_manifest, "--out", str(csm_regress), "--branch", "csm",
         "--seed", "3", "--config", str(configs / "train.json"),
         "--model-config", str(configs / "model_csm_regress.json")],
        ["eval", "--ckpt", str(csm_regress / "model.bin"), "--data", test_manifest,
         "--out", str(out / "eval_csm_regress")],
    ]
    tfn_wide = out / "runs" / "tfn_wide"
    steps += [
        ["train", "--data", train_manifest, "--out", str(tfn_wide), "--branch", "tfn",
         "--seed", "3", "--config", str(configs / "train_wide.json"),
         "--model-config", str(configs / "model_wide.json")],
        ["eval", "--ckpt", str(tfn_wide / "model.bin"), "--data", test_manifest,
         "--out", str(out / "eval_wide")],
        ["export-attn", "--ckpt", str(tfn_wide / "model.bin"), "--data", test_manifest,
         "--out", str(out / "attn_wide")],
    ]
    tfn_thin = out / "runs" / "tfn_thin"
    steps += [
        # no --ckpt: the fused order is the CSV's first branch's
        ["eval", "--external", str(out / "baseline" / "dtw" / "predictions.csv"),
         "--data", test_manifest, "--out", str(out / "eval_external_only")],
        ["train", "--data", train_manifest, "--out", str(tfn_thin), "--branch", "tfn",
         "--seed", "3", "--config", str(configs / "train_wide.json"),
         "--model-config", str(configs / "model_thin.json")],
        ["eval", "--ckpt", str(tfn_thin / "model.bin"), "--data", test_manifest,
         "--out", str(out / "eval_thin")],
    ]
    for argv in steps:
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the digests
            code = main(argv)
        if code != 0:
            raise SystemExit(f"dyadsync {argv[0]} exited {code}")


def digests(out: Path) -> list:
    """(sha256 hex, path relative to ``out``) of every file, sorted by path."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [(hashlib.sha256(p.read_bytes()).hexdigest(), p.relative_to(out).as_posix())
            for p in files]


def cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory (must not exist)")
    args = parser.parse_args()
    if args.out.exists():
        parser.error(f"{args.out} already exists")
    print(f"dyadsync {dyadsync.__version__} from {Path(dyadsync.__file__).parent}",
          file=sys.stderr)
    run_pipeline(args.out)
    for digest, rel in digests(args.out):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
