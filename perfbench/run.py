#!/usr/bin/env python3
"""otbss benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ref-kron --seed 1 --seconds 15 --trace 0

The package is imported from the ``src/`` directory of the checkout
that holds this file; nothing is installed. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``. Progress
and check failures go to standard error. See README.md.

Every reported time is CPU time of the process that does the work,
scaled to the reference host's speed by a calibration piece timed
between rounds (calibration.py); set-up counts from the start of the
process, before the package is imported.
"""

import os
import time

# One BLAS thread: with OpenBLAS's default of one thread per core, the
# many small products of the kron apply run slower and their timings
# spread wider on a 2-core machine (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ref-kron", "ref-dense", "grid-ilrma")
SETUP_SAMPLES = 3  # this process plus fresh ones; setup_s is their median
CHILD_TIMEOUT_S = 150
TIME_UNITS = ("s", "ms")  # metrics in these units are scaled by the calibration


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one otbss benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seed of the kernel-check and microbenchmark inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measure whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    package = ROOT / "src" / "otbss" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no otbss sources at {package.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import otbss

    if Path(otbss.__file__).resolve() != package:
        sys.exit(f"perfbench: imported otbss from {otbss.__file__}, not from {package.parent}")


def set_up(name: str):
    """Import the package, make the inputs and warm up; returns the workload and its set-up CPU time."""
    load_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(name, OUT)
    workload.setup()
    return workload, time.process_time()


def fresh_setup_s(args) -> float:
    """Set-up time of the same workload in a new process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def per_round(ops: list, round_len: int, field: str) -> list:
    """Mean of one timing over the scenes of each round.

    A round's scenes differ in cost (the grid's with T60), and single
    calls jump between a fast and a slow mode on a busy machine: the
    round mean reads steadier than a median over calls.
    """
    rounds = [[getattr(op, field) for op in ops[i : i + round_len] if not op.failed]
              for i in range(0, len(ops), round_len)]
    return [statistics.fmean(r) for r in rounds if r]


def end_to_end(ops: list, round_len: int, setup_samples: list) -> dict:
    quality = [op for op in ops if op.quality and not op.failed]
    return {
        "separate_s": statistics.median(per_round(ops, round_len, "separate_s")),
        "scene_s": statistics.median(per_round(ops, round_len, "scene_s")),
        "sdr_imp_db": statistics.fmean(v for op in quality for v in op.sdr),
        "sir_imp_db": statistics.fmean(v for op in quality for v in op.sir),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, own_setup_s = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    import checks
    import layers
    from calibration import Calibration
    from workloads import run_rounds

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_samples = [own_setup_s] + [fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    print(f"perfbench: {args.workload} set up in {setup_samples} s", file=sys.stderr)

    ops, problems = [], []
    calibration = Calibration()
    calibration.run()
    start = time.perf_counter()
    if args.trace:
        # one untraced round, the baseline of the tracing overhead
        run_rounds(workload, args.seconds, start, ops, problems, calibration, once=True)
        tracer = layers.Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            run_rounds(workload, args.seconds, start, ops, problems, calibration)
        finally:
            tracer.remove()
            workload.tracer = None
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        untraced_s, *traced_s = per_round(ops, workload.round_len, "scene_s")
        values = tracer.layer_metrics()
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) / untraced_s - 1.0)
        values.update(layers.apply_microbenchmarks(args.seed))
    else:
        run_rounds(workload, args.seconds, start, ops, problems, calibration)
        values = end_to_end(ops, workload.round_len, setup_samples)
        wall = statistics.median(per_round(ops, workload.round_len, "wall_s"))
        print(f"perfbench: scene wall time {wall:.3f} s against {values['scene_s']:.3f} s CPU time "
              f"(median over {len(ops) // workload.round_len} rounds)", file=sys.stderr)

    problems += checks.check_rounds_repeat(ops, workload.round_len)
    problems += checks.check_kron_apply(args.seed)
    problems += [f"{op.name}: {p}" for op in ops if not op.failed for p in op.problems]
    for op in ops:
        if op.failed:
            print(f"perfbench: {op.name} failed: {op.failed}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: images sha256 {ops[0].digest} ({ops[0].name})", file=sys.stderr)

    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(listed):
        sys.exit(f"perfbench: computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(listed))}")
    scale = calibration.scale()
    print(f"perfbench: calibration piece {calibration.piece_s() * 1e3:.2f} ms (median of "
          f"{len(calibration.pieces)}), times scaled by {scale:.4f}", file=sys.stderr)
    values.update({name: values[name] * scale for name, unit in listed.items() if unit in TIME_UNITS})
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(bool(op.failed) for op in ops),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
