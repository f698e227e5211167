"""Command-line pipeline: synthesize, preprocess, train, evaluate, export.

Each subcommand covers one pipeline stage so stages can be tested and
rerun independently.  Every run with the same inputs and seed writes
byte-identical artifacts.  Exit codes: 0 success, 2 configuration
errors, 3 data errors, 4 broken internal invariants.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    FEATURE_METHODS,
    extract_features,
    linear_scores,
    save_classifier,
    save_features,
    train_linear_hinge,
)
from .checkpoint import load_model, model_kind, save_model
from .config import load_config
from .csm_branch import CsmConfig, CsmModel
from .errors import (ALLOCATION_ERRORS, ConfigError, ContractError, DataError,
                     DyadsyncError, output_dir)
from .evaluate import (
    BranchPrediction,
    bin_score,
    compute_metrics,
    confusion_normalized,
    format_report,
    fuse_predictions,
    load_predictions,
    predicted_classes,
    save_metrics,
    save_predictions,
)
from .pose_io import (CLASS_NAMES, NUM_JOINTS, TARGET_FRAMES, load_dataset, load_entry,
                      load_manifest, write_dataset)
from .similarity import (
    SimilarityMatrix,
    compute_csm,
    compute_ssm,
    normalize_minmax,
    resize_nearest,
    save_binary,
    save_csv,
    save_pgm,
)
from .sttf import ModelConfig, SttfModel, export_attention
from .synthgen import SynthConfig, generate_dataset
from .tensor import check_gradients
from .training import (
    TrainConfig,
    _batched_logits,
    fit,
    head_loss,
    save_history,
    targets_from_sequences,
)

SEED_ENV = "DYADSYNC_SEED"
log = logging.getLogger("dyadsync")


def _resolve_seed(flag_value, fallback: int = 0) -> int:
    """Explicit --seed wins, then the environment variable, then fallback."""
    if flag_value is not None:
        seed, source = flag_value, "--seed"
    else:
        raw = os.environ.get(SEED_ENV)
        if raw is None:
            return fallback
        try:
            seed, source = int(raw), SEED_ENV
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _map_ordered(fn, tasks: list, workers: int) -> list:
    """Apply fn to tasks on at most one process per task and per CPU, or in this
    process when that comes to one; results keep input order."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _matrix_entry(entry, target_f: int, kind: str):
    seq = load_entry(entry, target_f)
    if kind == "cross":
        return seq.source_id, compute_csm(seq)
    return seq.source_id, compute_ssm(seq.person(int(kind[-1])))


def _report(rows, labels, decisions, out_dir: Path, **mse) -> None:
    """Score decisions against labels, write predictions.csv and metrics.json, print
    the report; ``mse`` passes a regression head's raw ``preds`` and ``targets``."""
    cm = confusion_normalized(labels, decisions)
    report = compute_metrics(cm, **mse)
    save_predictions(rows, out_dir / "predictions.csv")
    save_metrics(report, cm, out_dir / "metrics.json")
    print(format_report(report, cm))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = SynthConfig(f=args.frames, lag=args.lag, amp_mismatch=args.amp_mismatch,
                      jitter=args.jitter, seed=_resolve_seed(args.seed))
    manifest = generate_dataset(cfg, args.per_class, args.out)
    log.info("wrote %d clips per class under %s", args.per_class, args.out)
    print(manifest)
    return 0


def cmd_preprocess(args) -> int:
    sequences = _map_ordered(partial(load_entry, target_f=args.frames),
                             load_manifest(args.data), args.workers)
    manifest = write_dataset(sequences, args.out, (1, 1))
    log.info("preprocessed %d clips to %d frames", len(sequences), args.frames)
    print(manifest)
    return 0


def cmd_csm(args) -> int:
    entries = load_manifest(args.data)
    if args.size is not None:
        try:  # resize_nearest makes one (size, size) float64 matrix per clip
            np.empty((args.size, args.size))
        except ALLOCATION_ERRORS:
            raise ConfigError(f"--size {args.size}: matrix too large to allocate") from None
    out_dir = output_dir(args.out)  # a bad --out is refused before any matrix is computed
    results = _map_ordered(partial(_matrix_entry, target_f=args.frames, kind=args.kind),
                           entries, args.workers)
    savers = {"bin": save_binary, "csv": save_csv, "pgm": save_pgm}
    for source_id, matrix in results:
        if args.size is not None:
            matrix = resize_nearest(matrix, args.size)
        if args.normalize:
            matrix = normalize_minmax(matrix)
        savers[args.format](matrix, out_dir / f"{source_id}.{args.format}")
    log.info("wrote %d %s matrices to %s", len(results), args.kind, out_dir)
    return 0


def cmd_baseline(args) -> int:
    train_seqs = load_dataset(args.data, target_f=args.frames)
    # the test set and its labels come first, so a bad one leaves no half-written run
    test_seqs = load_dataset(args.test, target_f=args.frames) if args.test else []
    test_labels = targets_from_sequences(test_seqs, "cross_entropy")
    labels = targets_from_sequences(train_seqs, "cross_entropy")
    out_dir = output_dir(args.out)  # a bad --out is refused before any feature is extracted
    feats = [extract_features(seq, args.method) for seq in train_seqs]
    clf = train_linear_hinge(feats, labels)
    save_features(feats, out_dir / "train_features.csv")
    save_classifier(clf, out_dir / "classifier.json")
    log.info("trained %s baseline on %d clips", args.method, len(train_seqs))
    if args.test:
        test_feats = [extract_features(seq, args.method) for seq in test_seqs]
        margins = linear_scores(clf, test_feats)
        preds = [BranchPrediction(args.method, seq.source_id, logits=row)
                 for seq, row in zip(test_seqs, margins)]
        _report(preds, test_labels, predicted_classes(preds), out_dir)
    return 0


def _build_model(branch: str, model_config_path, seed: int):
    model_cls, config_cls = (SttfModel, ModelConfig) if branch == "tfn" else (CsmModel, CsmConfig)
    cfg = load_config(model_config_path, config_cls) if model_config_path else config_cls()
    try:
        return model_cls(cfg, seed=seed)
    except ALLOCATION_ERRORS:
        raise ConfigError(f"{model_config_path}: model config too large to allocate") from None


def _model_frames(model, source, error) -> int:
    """Frames per clip a model was built for: the transformer's f, else TARGET_FRAMES.

    A transformer built for other than NUM_JOINTS joints is refused as
    ``error``, naming ``source``, the file it came from.
    """
    if model_kind(model) != "sttf":
        return TARGET_FRAMES
    if model.config.num_joints != NUM_JOINTS:
        raise error(f"{source}: num_joints is {model.config.num_joints}, but clips "
                    f"have {NUM_JOINTS} joints per person")
    return model.config.f


def cmd_train(args) -> int:
    train_cfg = load_config(args.config, TrainConfig) if args.config else TrainConfig()
    seed = _resolve_seed(args.seed, fallback=train_cfg.seed)
    train_cfg = dataclasses.replace(train_cfg, seed=seed)
    model = _build_model(args.branch, args.model_config, seed)
    sequences = load_dataset(args.data,
                             target_f=_model_frames(model, args.model_config, ConfigError))
    # labels before --out, and --out before training, so a refused run leaves no directory
    loss_kind, _, sign = head_loss(model.config.head_kind)
    targets = targets_from_sequences(sequences, loss_kind)
    out_dir = output_dir(args.out)
    history = fit(model, (model.prepare_inputs(sequences), targets), train_cfg)
    save_model(model, out_dir / "model.bin")
    save_history(history, out_dir / "history.csv")
    best = sign * max(sign * h["val_metric"] for h in history)
    log.info("trained %s for %d epochs; best val metric %.4f", args.branch,
             len(history), best)
    print(out_dir / "model.bin")
    return 0


def _check_external(path, external: list, manifest_ids: list, ckpt_branches: list) -> None:
    """Refuse an --external CSV whose rows cannot be fused, naming it and the branch.

    A branch may not take the name of a checkpoint branch or of the fused
    output. Each branch must list manifest ids only, each once, in the
    order of the file's first branch, or, next to checkpoint branches,
    the manifest's own ids in manifest order.
    """
    if not external:
        raise DataError(f"{path}: no prediction rows")
    branches: dict = {}
    for p in external:
        branches.setdefault(p.branch, []).append(p.source_id)
    first, first_ids = next(iter(branches.items()))
    known = set(manifest_ids)
    for name, ids in branches.items():
        if name == "fused" or name in ckpt_branches:
            owner = "the fused output" if name == "fused" else "a --ckpt branch"
            raise DataError(f"{path}: branch {name!r} has the name of {owner}")
        unknown = [sid for sid in ids if sid not in known]
        if unknown:
            raise DataError(f"{path}: branch {name!r} predicts unknown sample {unknown[0]!r}")
        repeated = [sid for sid, count in Counter(ids).items() if count > 1]
        if repeated:
            raise DataError(f"{path}: branch {name!r} lists sample {repeated[0]!r} "
                            "more than once")
        if ids != (manifest_ids if ckpt_branches else first_ids):
            raise DataError(f"{path}: branch {name!r} must list the samples of "
                            + ("the manifest" if ckpt_branches else f"branch {first!r}")
                            + " in the same order")


def cmd_eval(args) -> int:
    if not args.ckpt and not args.external:
        raise ConfigError("eval needs at least one --ckpt or --external source")
    models = [load_model(p) for p in args.ckpt or []]
    external = load_predictions(args.external) if args.external else []
    heads = {model.config.head_kind: path for path, model in zip(args.ckpt or [], models)}
    heads.update({"classify" if p.score is None else "regress": args.external for p in external})
    if len(heads) > 1:
        raise ConfigError(f"regression source {heads['regress']} cannot be fused with "
                          f"classification source {heads['classify']}")
    regress = "regress" in heads
    frames = [_model_frames(model, path, DataError)
              for path, model in zip(args.ckpt or [], models)]
    names = []
    seen = Counter()
    for model in models:
        kind = {"sttf": "tfn", "csm": "csm"}[model_kind(model)]
        seen[kind] += 1
        names.append(kind if seen[kind] == 1 else f"{kind}{seen[kind]}")
    # one load per distinct frame count; ids and labels do not depend on it
    datasets = {f: load_dataset(args.data, target_f=f)
                for f in dict.fromkeys(frames or [TARGET_FRAMES])}
    sequences = next(iter(datasets.values()))
    if args.external:
        _check_external(args.external, external, [seq.source_id for seq in sequences], names)

    # fusion keeps the first branch's order: the manifest's, or the first external branch's
    if models:
        fused_seqs = sequences
    else:
        by_id = {seq.source_id: seq for seq in sequences}
        fused_seqs = [by_id[p.source_id] for p in external if p.branch == external[0].branch]
    # labels before --out, and --out before any model runs
    if regress:
        targets = targets_from_sequences(fused_seqs, "mse")
        labels = [CLASS_NAMES.index(seq.label_class) if seq.label_class
                  else bin_score(seq.label_score) for seq in fused_seqs]
    else:
        labels = targets_from_sequences(fused_seqs, "cross_entropy")
    out_dir = output_dir(args.out)

    predictions = []
    for model, name, f in zip(models, names, frames):
        out = _batched_logits(model, model.prepare_inputs(datasets[f]))
        for seq, row in zip(sequences, out):
            if regress:
                predictions.append(BranchPrediction(name, seq.source_id, score=float(row[0])))
            else:
                predictions.append(BranchPrediction(name, seq.source_id, logits=row))
    predictions.extend(external)

    fused = fuse_predictions(predictions)
    mse = {"preds": [p.score for p in fused], "targets": targets} if regress else {}
    _report(predictions + fused, labels, predicted_classes(fused), out_dir, **mse)
    return 0


def _gradcheck_suite(seed: int) -> list:
    """(name, max relative error) of each (branch, head) pair ``train`` builds, at a
    small size, under the loss ``fit`` steps on."""
    rng = np.random.default_rng(seed)
    results = []
    for head in ("classify", "regress"):
        loss = head_loss(head)[1]
        for branch, model, shape in (
                ("tfn", SttfModel(ModelConfig(f=2, num_joints=1, d_joint=4, layers=1, heads=2,
                                              head_kind=head), seed), (2, 2, 2, 1, 2)),
                ("csm", CsmModel(CsmConfig(side=3, hidden=4, head_kind=head), seed), (2, 3, 3))):
            x = rng.uniform(size=shape)
            y = rng.integers(3, size=2) if head == "classify" else rng.uniform(0, 10, size=2)
            results.append((f"{branch}-{head}", check_gradients(
                lambda p, tape: loss(model.forward(x, tape), y), model.params)))
    return results


def cmd_gradcheck(args) -> int:
    tolerance = 1e-4
    failed = False
    for name, err in _gradcheck_suite(_resolve_seed(args.seed)):
        status = "ok" if err < tolerance else "FAIL"
        print(f"{name}: max rel err {err:.3e} [{status}]")
        failed |= err >= tolerance
    if failed:
        raise ContractError("gradient check exceeded tolerance")
    return 0


def cmd_export_attn(args) -> int:
    model = load_model(args.ckpt)
    if model_kind(model) != "sttf":
        raise ConfigError("attention export needs a transformer checkpoint")
    sequences = load_dataset(args.data, target_f=_model_frames(model, args.ckpt, DataError))
    if not 0 <= args.index < len(sequences):
        raise ConfigError(f"--index {args.index} outside dataset of {len(sequences)}")
    seq = sequences[args.index]
    out_dir = output_dir(args.out)
    maps = export_attention(model, seq)
    savers = {"pgm": save_pgm, "csv": save_csv}
    count = 0
    for branch, stack in maps.items():
        layers, heads = stack.shape[:2]
        for layer in range(layers):
            for head in range(heads):
                m = SimilarityMatrix(stack[layer, head])
                name = f"{seq.source_id}_{branch}_l{layer}_h{head}.{args.format}"
                savers[args.format](m, out_dir / name)
                count += 1
    log.info("wrote %d attention maps for %s", count, seq.source_id)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadsync",
        description="Dyadic movement-synchrony pipeline: synthetic data, "
                    "preprocessing, similarity matrices, training, evaluation.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        return p

    p = add("synth", cmd_synth, "generate a labeled synthetic keypoint dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-class", required=True, type=int,
                   help="clips to generate for each of the three classes")
    p.add_argument("--seed", type=int, help=f"generator seed (default ${SEED_ENV} or 0)")
    p.add_argument("--frames", type=int, default=SynthConfig.f, help="frames per clip")
    p.add_argument("--lag", type=int, default=SynthConfig.lag,
                   help="frame lag applied to the moderately synchronized class")
    p.add_argument("--amp-mismatch", type=float, default=SynthConfig.amp_mismatch,
                   help="amplitude ratio for the moderately synchronized class")
    p.add_argument("--jitter", type=float, default=SynthConfig.jitter,
                   help="noise added to the second person's joints")

    p = add("preprocess", cmd_preprocess, "filter, resample, and normalize clips")
    p.add_argument("--data", required=True, help="input manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--frames", type=int, default=TARGET_FRAMES,
                   help="frames after resampling")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")

    p = add("csm", cmd_csm, "compute similarity matrices for every clip")
    p.add_argument("--data", required=True, help="input manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind", choices=("cross", "self0", "self1"), default="cross",
                   help="cross-similarity or one person's self-similarity")
    p.add_argument("--frames", type=int, default=TARGET_FRAMES,
                   help="frames after resampling")
    p.add_argument("--size", type=int, help="resize matrices to this side length")
    p.add_argument("--normalize", action="store_true",
                   help="min-max normalize each matrix to [0, 1]")
    p.add_argument("--format", choices=("bin", "csv", "pgm"), default="bin",
                   help="artifact format")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")

    p = add("baseline", cmd_baseline, "train a linear baseline on handcrafted features")
    p.add_argument("--data", required=True, help="training manifest JSON")
    p.add_argument("--test", help="optional test manifest for metrics")
    p.add_argument("--method", choices=FEATURE_METHODS, required=True,
                   help="feature extractor")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--frames", type=int, default=TARGET_FRAMES,
                   help="frames after resampling")

    p = add("train", cmd_train, "train the transformer or the CSM classifier")
    p.add_argument("--data", required=True, help="training manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--branch", choices=("tfn", "csm"), default="tfn",
                   help="which network to train")
    p.add_argument("--config", help="training config JSON")
    p.add_argument("--model-config", help="model config JSON")
    p.add_argument("--seed", type=int,
                   help=f"overrides the config seed (default ${SEED_ENV})")

    p = add("eval", cmd_eval, "evaluate checkpoints, optionally fused with external scores")
    p.add_argument("--ckpt", action="append", help="model checkpoint (repeatable)")
    p.add_argument("--external", help="external predictions CSV to fuse in")
    p.add_argument("--data", required=True, help="test manifest JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = add("gradcheck", cmd_gradcheck, "verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, help="seed for the randomized checkpoints")

    p = add("export-attn", cmd_export_attn, "export attention maps for one clip")
    p.add_argument("--ckpt", required=True, help="transformer checkpoint")
    p.add_argument("--data", required=True, help="manifest JSON")
    p.add_argument("--index", type=int, default=0, help="clip index within the manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm",
                   help="artifact format")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        for flag in ("per_class", "frames", "size", "workers"):  # the count flags
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
        try:  # a --frames clip is (frames, 2, NUM_JOINTS, 2) float64; refused before any input
            np.empty((getattr(args, "frames", 1), 2, NUM_JOINTS, 2))
        except ALLOCATION_ERRORS:
            raise ConfigError(f"--frames {args.frames}: clip too large to allocate") from None
        return args.func(args)
    except DyadsyncError as exc:
        print(f"error ({exc.label}): {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # safety net: anything unexpected is an internal error
        log.exception("unhandled failure")
        print(f"error (internal): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
