#!/usr/bin/env python3
"""dyadsync benchmark: one closed-loop client per workload, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

It generates every input from ``--seed``, sets the workload up three
times (``setup_s`` is the median), then runs ops back to back for
``--seconds`` and checks each op's outputs.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` sets up once
and runs each op twice in turn, untraced and then with spans recorded
around the ``dyadsync`` calls (see ``spans.py``), and reports the
per-layer metrics plus the tracing overhead.  Earlier lines carry a
run record and every metric by name with its unit; the last line is the
JSON result.  See ``README.md`` in this directory for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def prepare_environment() -> None:
    """Cap the BLAS pool at nproc and import ``dyadsync`` from the checkout.

    Must run before numpy is first imported: OpenBLAS reads its thread
    count once, at load time.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(wanted)
    if not (ROOT / "src" / "dyadsync" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no dyadsync sources under {ROOT / 'src'}; "
                         "run it from the root of a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def blas_threads():
    """Threads in numpy's OpenBLAS pool, asked of the library itself."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(wl, digest: str) -> dict:
    import numpy

    import dyadsync

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": wl.name,
        "config": wl.config(),
        "input_sha256": digest,
        "input_files": len(wl.input_files),
        "dyadsync": dyadsync.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def digest_files(paths, root: Path) -> str:
    """SHA-256 over (relative name, bytes) of each generated input file."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(Path(path).relative_to(root)).encode() + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def measure(wl, seconds=None, count=None, first=0, tracer=None) -> list:
    """Closed loop: the next op starts when the previous one returns."""
    from workloads import OpResult

    ops = []
    deadline = time.perf_counter() + (seconds or 0.0)
    k = first
    while len(ops) < count if count is not None else time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op_id = k
        t0 = time.perf_counter()
        try:
            result = wl.op(k)
        except Exception as exc:  # an op that raises is counted failed; the run goes on
            result = OpResult({"raised": time.perf_counter() - t0}, 0, f"{type(exc).__name__}: {exc}")
        if result.error:
            print(f"op {k} failed: {result.error}", file=sys.stderr)
        ops.append(result)
        k += 1
    return ops


def measure_traced(wl, tracer, seconds=None, count=None):
    """Each op k runs untraced, then again traced, until time or count runs out.

    Alternating keeps drift on a shared machine out of the overhead
    (traced minus untraced time of the same ops).  Returns both lists.
    """
    from spans import OPS

    untraced, traced = [], []
    deadline = time.perf_counter() + (seconds or 0.0)
    tracer.phase = OPS
    k = 0
    while k < count if count is not None else time.perf_counter() < deadline:
        untraced += measure(wl, count=1, first=k)
        with tracer.installed():
            traced += measure(wl, count=1, first=k, tracer=tracer)
        k += 1
    return untraced, traced


def finish(wl):
    from workloads import FinishResult

    try:
        return wl.finish()
    except Exception as exc:
        return FinishResult(error=f"{type(exc).__name__}: {exc}")


def layer_metrics(tracer, ops, untraced_s: float, specs: dict) -> tuple:
    """Per-layer numbers of the traced ops, and the per-op span table.

    Values are per op unless noted.
    ``tensor.<op>_ms`` is self time; the other ``_ms`` metrics are the
    inclusive time of the named call.  ``checkpoint.load_model_ms`` is
    per setup and the hinge fit and predict pass are per run.
    """
    from spans import FINISH, OPS, SETUP, TENSOR_OPS

    per_run = {"checkpoint.load_model": SETUP, "baselines.train_linear_hinge": FINISH,
               "baselines.predict_linear": FINISH}
    n = len(ops)
    per_op = tracer.aggregate(OPS)
    tensor_ops = {f"tensor.{op}" for op in TENSOR_OPS}
    counters = tracer.counters
    steps = [nodes for r in ops for nodes in r.tape_nodes]
    traced_s = sum(r.seconds for r in ops)
    flop = counters[(OPS, "matmul_flop")]
    matmul_self = per_op.get("tensor.matmul", [0, 0.0, 0.0])[2]
    values = {
        "tensor.tape_nodes": sum(steps) / len(steps) if steps else 0,
        "tensor.out_mb": counters[(OPS, "out_bytes")] / n / 2**20,
        "tensor.matmul_gflop": flop / n / 1e9,
        "tensor.matmul_gflops": flop / matmul_self / 1e9 if matmul_self else 0.0,
        "trace.ops": n,
        "trace.overhead_ms": (traced_s - untraced_s) / n * 1e3,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    for name in specs:
        if name in values:
            continue
        if name.endswith("_calls"):
            values[name] = per_op.get(name[: -len("_calls")], [0])[0] / n
        elif name.endswith("_ms"):
            span = name[: -len("_ms")]
            if span in per_run:
                values[name] = tracer.aggregate(per_run[span]).get(span, [0, 0.0])[1] * 1e3
            else:
                row = per_op.get(span, [0, 0.0, 0.0])
                values[name] = row[2 if span in tensor_ops else 1] / n * 1e3
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return {name: values[name] for name in specs}, per_op


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        count=None, after_setup=None) -> dict:
    """One benchmark run; returns the result object plus its report lines.

    ``count`` runs a fixed number of ops instead of a timed loop and
    ``after_setup(wl)`` may alter the generated inputs; both serve the
    self-check.
    """
    from spans import FINISH, Tracer
    from workloads import WORKLOADS, total_rate

    specs = metric_specs()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work"))
    try:
        tracer = Tracer() if trace else None
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            wl = None  # drop the previous setup's models before building the next
            wl = WORKLOADS[workload](seed, **(sizes or {}))
            t0 = time.perf_counter()
            if trace:
                with tracer.installed():
                    wl.setup(work / "inputs")
            else:
                wl.setup(work / "inputs")
            setups.append(time.perf_counter() - t0)
        record = run_record(wl, digest_files(wl.input_files, work / "inputs"))
        if after_setup is not None:
            after_setup(wl)

        wl.begin()
        if trace:
            untraced, ops = measure_traced(wl, tracer, seconds, count)
            with tracer.installed():
                tracer.phase = FINISH
                closing = finish(wl)
        else:
            ops = measure(wl, seconds=seconds, count=count)
            closing = finish(wl)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for r in ops if r.error)
    if closing.error:
        print(f"closing stage failed: {closing.error}", file=sys.stderr)
    ok = [r for r in ops if not r.error]
    if not ok:
        raise RuntimeError(f"{workload}: every one of {attempted} ops failed")
    lines = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mb", peak_rss_mb, "MiB", 1),
        ("failed_op_share", failed / attempted, "share", attempted),
    ] + wl.report(ops, closing)
    spans = {}
    if trace:
        metrics, spans = layer_metrics(tracer, ops, sum(r.seconds for r in untraced),
                                       specs["per_layer"])
        units = specs["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_op_share": (attempted - failed) / attempted,
            "items_per_s": total_rate(ops, closing=sum(closing.stages.values())),
        }
        units = specs["end_to_end"]
    missing = set(units) ^ set(metrics)
    if missing:
        raise KeyError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    result = {
        "correct": failed == 0 and not closing.error,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return {"result": result, "record": record, "lines": lines, "spans": spans, "ops": len(ops)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-small", "ingest-baselines", "eval-full"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record " + json.dumps(out["record"], sort_keys=True))
    for name, value, unit, n in out["lines"]:
        if value is None:
            print(f"metric {name} not reported: n={n} leaves fewer than 10 ops above it")
        else:
            print(f"metric {name} {value:.6g} {unit} (n={n})")
    for name, (calls, total, self_s) in sorted(out["spans"].items()):
        n = out["ops"]
        print(f"span {name} calls/op={calls / n:g} total_ms/op={total / n * 1e3:.4f} "
              f"self_ms/op={self_s / n * 1e3:.4f}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
