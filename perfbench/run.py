"""Run the monadlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --runs 10 --out results.jsonl

Run it from the root of a source checkout; it imports monadlab from
``src/``.  A single workload runs in this process.  ``--workload all`` and
``--runs N`` start one process per run, one after another, with seeds
``seed .. seed+N-1``, so each run has its own peak RSS.  Every run appends
its full record to ``--out`` (JSON lines) when given.  The report goes to
stdout; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the gated metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: on a small shared box a second BLAS
# thread adds more noise than speed.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def gated_names(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def print_report(record: dict):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {record['rounds']} x {record['items_per_round']} items  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    for msg in record["failures"]:
        print(f"  FAILED {msg}")
    print(f"  gauge: reference {record['reference']} {record['ref_s'] * 1e3:.4f} ms (trimmed mean of "
          f"{record['ref_samples']}), timings scaled by {record['scale']:.4f}; unscaled "
          + ", ".join(f"{k} {v:.6g}" for k, v in sorted(record["raw"].items())))
    tail = record["tail"]
    for name, value in sorted(record["metrics"].items()):
        unit = stats.describe(name)[0]
        note = ""
        if name == "item_tail_ms":
            note = f"  (p{tail['percentile']:.1f} of {tail['samples']} items)"
        print(f"  {name:42s} {value:16.6g} {unit}{note}")
    if "item_tail_ms" not in record["metrics"]:
        n = record["rounds"] * record["items_per_round"]
        print(f"  {'item_tail_ms':42s} {'omitted':>16s} ms  (only {n} items)")
    if record["trace"]:
        wall = record["traced_round_s"]
        print(f"  layer shares of the traced round ({wall:.3f} s): self / inclusive")
        rows = sorted(record["layer_totals"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"    {name:36s} {row['self_s'] / wall:7.1%} {row['incl_s'] / wall:7.1%}"
                  f"  {row['calls']:10.0f} calls")


def last_line(record: dict, names: list) -> dict:
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": record["metrics"][n], "unit": stats.describe(n)[0]}
                        for n in names}}


def append(out: str | None, record: dict):
    if out:
        with open(out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def run_one(args) -> int:
    import harness
    try:
        record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                      ROOT)
    except (harness.SetupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    record["env"] = environment()
    append(args.out, record)
    print_report(record)
    print(json.dumps(last_line(record, gated_names(bool(args.trace)))))
    return 0


def run_many(args) -> int:
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for i in range(args.runs):
        for w in workloads:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"error: {w} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"][f"{w}.{name}.seed{args.seed + i}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", help="append each run's full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.runs < 1:
        parser.error("need --seed >= 0, --seconds > 0 and --runs >= 1")
    if args.out:
        args.out = str(Path(args.out).resolve())
    if args.workload == "all" or args.runs > 1:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
