#!/usr/bin/env python3
"""Quick self-check of the benchmark at tiny sizes (well under a minute).

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

It runs every workload at tiny sizes for a fixed number of ops, untraced
and traced (twice), and checks that

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is emitted
  with its unit, and every metric the workloads print by name is there;
* the exact counts (``tensor.tape_nodes``, the ``*_calls`` counters,
  ``tensor.matmul_gflop`` and ``tensor.out_mb``) and the input digest
  are identical between two traced runs with the same seed;
* clean runs have no failed op;
* an ingest clip whose JSON carries a NaN coordinate is counted as a
  failed op and does not abort the run.

Exits 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import math
import sys

import run
from spans import TENSOR_OPS

SEED = 3

TINY = {
    "train-small": dict(per_class=3),  # 9 clips: one step of 8, one validation clip
    "ingest-baselines": dict(per_class=2),
    "eval-full": dict(per_class=2, batch=3,
                      model=dict(f=81, num_joints=17, d_joint=4, layers=1, heads=2)),
}
OPS = {"train-small": 2, "ingest-baselines": 6, "eval-full": 2}

# what each workload prints by name, besides the record
PRINTED = {
    "train-small": {"train_samples_per_s": "1/s", "train_epoch_p50_s": "s"},
    "ingest-baselines": {
        "ingest_clips_per_s": "1/s", "ingest_clip_p50_ms": "ms", "ingest_clip_p90_ms": "ms",
        "baseline_clips_per_s": "1/s", "baseline_clip_p50_ms": "ms", "baseline_clip_p90_ms": "ms",
    },
    "eval-full": {"eval_clips_per_s": "1/s", "eval_batch_p50_ms": "ms"},
}
PRINTED_BY_ALL = {"setup_s": "s", "peak_rss_mb": "MiB", "failed_op_share": "share"}

LAYER_METRICS = {
    "sttf.forward_ms": "ms", "sttf.predict_batch_ms": "ms",
    "sttf.mhsa.spatial_ms": "ms", "sttf.mhsa.temporal_ms": "ms",
    "tensor.gradient_of_ms": "ms", "tensor.tape_nodes": "count", "tensor.out_mb": "MiB",
    **{f"tensor.{op}_ms": "ms" for op in TENSOR_OPS},
    **{f"tensor.{op}_calls": "count" for op in TENSOR_OPS},
    "tensor.matmul_gflop": "GFLOP", "tensor.matmul_gflops": "GFLOP/s",
    "training.adam_step_ms": "ms", "training.cross_entropy_loss_ms": "ms",
    "training.eval_metric_ms": "ms",
    "pose_io.load_keypoint_file_ms": "ms", "pose_io.preprocess_ms": "ms",
    "similarity.compute_csm_ms": "ms",
    "baselines.dtw_features_ms": "ms", "baselines.dtw_distance_calls": "count",
    "baselines.correlation_features_ms": "ms", "baselines.cross_recurrence_features_ms": "ms",
    "baselines.train_linear_hinge_ms": "ms", "baselines.predict_linear_ms": "ms",
    "csm_branch.prepare_inputs_ms": "ms", "csm_branch.predict_batch_ms": "ms",
    "evaluate.fuse_predictions_ms": "ms", "evaluate.compute_metrics_ms": "ms",
    "checkpoint.load_model_ms": "ms",
    "trace.ops": "count", "trace.overhead_ms": "ms", "trace.overhead_share": "share",
}
# layer metrics each workload must exercise (nonzero)
EXERCISED = {
    "train-small": ("sttf.forward_ms", "tensor.gelu_ms", "tensor.gradient_of_ms",
                    "tensor.tape_nodes", "training.adam_step_ms", "training.eval_metric_ms"),
    "ingest-baselines": ("pose_io.preprocess_ms", "baselines.dtw_features_ms",
                         "baselines.dtw_distance_calls", "baselines.train_linear_hinge_ms"),
    "eval-full": ("sttf.predict_batch_ms", "csm_branch.prepare_inputs_ms",
                  "evaluate.fuse_predictions_ms", "checkpoint.load_model_ms"),
}


def exact_counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith("_calls") or name in
            ("tensor.tape_nodes", "tensor.matmul_gflop", "tensor.out_mb")}


def poison_one_clip(wl) -> None:
    """Write a NaN x coordinate into the second clip of the ingest pool."""
    path = wl.pool[1][0]
    doc = json.loads(path.read_text())
    doc["frames"][0]["persons"][0]["keypoints"][0][0] = math.nan
    path.write_text(json.dumps(doc))


def main() -> int:
    run.prepare_environment()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    expect(per_layer == LAYER_METRICS,
           f"BENCHMARK.json per_layer differs: {sorted(set(per_layer.items()) ^ set(LAYER_METRICS.items()))}")
    for name in (w["name"] for w in spec["workloads"]):
        plain = run.run(name, SEED, 0, False, TINY[name], OPS[name])
        result = plain["result"]
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        expect(got == end_to_end, f"{name}: end-to-end metrics {got} != {end_to_end}")
        expect(result["failed"] == 0 and result["correct"], f"{name}: clean run failed {result}")
        printed = {line[0]: line[2] for line in plain["lines"]}
        expect(printed == {**PRINTED_BY_ALL, **PRINTED[name]},
               f"{name}: printed metrics {printed}")

        traced = [run.run(name, SEED, 0, True, TINY[name], OPS[name]) for _ in range(2)]
        for out in traced:
            metrics = out["result"]["metrics"]
            got = {m: v["unit"] for m, v in metrics.items()}
            expect(got == LAYER_METRICS, f"{name}: traced metrics differ from the expected list")
            for metric in EXERCISED[name]:
                expect(metrics[metric]["value"] > 0, f"{name}: {metric} is zero")
            expect(out["result"]["failed"] == 0, f"{name}: traced run failed ops")
        first, second = (exact_counts(t["result"]["metrics"]) for t in traced)
        expect(first == second, f"{name}: exact counts differ between runs: "
               f"{ {k: (first[k], second[k]) for k in first if first[k] != second[k]} }")
        expect(traced[0]["record"]["input_sha256"] == traced[1]["record"]["input_sha256"],
               f"{name}: input digest differs between runs with one seed")
        print(f"checked {name}")

    poisoned = run.run("ingest-baselines", SEED, 0, False, TINY["ingest-baselines"],
                       OPS["ingest-baselines"], after_setup=poison_one_clip)["result"]
    expect(poisoned["failed"] == 1 and poisoned["attempted"] == OPS["ingest-baselines"]
           and not poisoned["correct"] and poisoned["metrics"]["ok_op_share"]["value"] < 1,
           f"NaN clip was not counted as one failed op: {poisoned}")
    print("checked a NaN clip")

    for message in failures:
        print(f"FAILED: {message}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
