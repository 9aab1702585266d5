"""Benchmark of the w6hea CLI and library.

    python3 perfbench/run.py --workload ci_gate --seed 0 --seconds 40 --trace 0

Generates the workload's inputs from ``--seed`` under ``.perfbench-work/``,
measures set-up (fresh interpreter plus import) several times, then repeats
the workload's op sequence until ``--seconds`` are used up.  Every op's
output is checked against the generator's facts (``oracle.py``), against the
first repetition (determinism) and, for the seeds in ``digests.json``,
against the recorded SHA-256.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and it reports the
per-layer metrics of the traced ones plus the tracing overhead.  The lines
before it give every metric, the stage metrics of the workload, the input
shape and any failed op, for people.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer
from workloads import ROOT, WORKLOADS, setup_probe

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
STAGES = {
    "ci_gate": ("validate", "export_json", "matrix"),
    "what_if": ("cluster", "scores_sweep"),
    "write_back": ("fmt", "ingest_openapi", "ingest_k8s"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if ".bytes_" in name else "count"


def recorded_digests(workload: str, seed: int) -> dict | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def judge(reps, wl, recorded) -> list[tuple[int, str, list[str]]]:
    """Problems of every op of every repetition: its own (exit code,
    traceback), the oracle's on the first repetition, and digest mismatches."""
    first = reps[0]
    try:
        verdicts = wl.check(first)
    except Exception as exc:  # a malformed output must fail its ops, not the benchmark
        verdicts = {op.name: [f"oracle could not read the output: {exc!r}"] for op in first.ops}
    reference: dict[str, str] = {}
    failed = []
    for index, rep in enumerate(reps):
        for op in rep.ops:
            problems = list(op.problems) + verdicts.get(op.name, [])
            if op.output and op.digest != reference.setdefault(op.output, op.digest):
                problems.append("output differs from the first repetition")
            if recorded is not None and op.output and recorded.get(op.output) != op.digest:
                problems.append("output digest differs from the recorded one")
            if problems:
                failed.append((index, op.name, problems))
    return failed


def end_to_end(workload: str, reps, setup: list[float]) -> dict[str, float]:
    """Medians over the run's repetitions: of the whole sequence's wall time,
    of each stage's summed op latency, and of the largest child max-RSS."""
    out = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall for r in reps),
        "peak_rss_mb": statistics.median(max(op.maxrss_kb for op in r.ops) / 1024 for r in reps),
    }
    for stage in STAGES[workload]:
        out[f"{stage}_s"] = statistics.median(sum(op.seconds for op in r.ops if op.stage == stage) for r in reps)
    return out


def per_layer(untraced, traced) -> dict[str, float]:
    rows = [tracer.layer_metrics(r.traces) for r in traced]
    out = {name: (statistics.median if name.endswith("_s") else statistics.median_low)(row[name] for row in rows)
           for name in rows[0]}
    out["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; gain claims must also hold on {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "w6hea" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    # Set-up is probed before the repetitions and once after each of them,
    # so its median covers the same stretch of time as the other metrics.
    try:
        setup_probe(wl.entry, work)  # warm-up; also proves the package imports
        setup = [setup_probe(wl.entry, work) for _ in range(SETUP_PROBES)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reps, traced_flags, durations = [], [], {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        began = time.perf_counter()
        reps.append(wl.rep(traced, f"{args.workload}:{args.seed}:{len(reps)}"))
        traced_flags.append(traced)
        setup.append(setup_probe(wl.entry, work))
        durations[traced] = time.perf_counter() - began
        upcoming = bool(args.trace) and len(reps) % 2 == 1
        estimate = durations[upcoming] or durations[not upcoming]
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + estimate > args.seconds:
            break
    measured = time.perf_counter() - start

    recorded = recorded_digests(args.workload, args.seed)
    failed = judge(reps, wl, recorded)
    attempted = sum(len(r.ops) for r in reps)
    untraced = [r for r, t in zip(reps, traced_flags) if not t]
    traced_reps = [r for r, t in zip(reps, traced_flags) if t]

    e2e = end_to_end(args.workload, untraced, setup)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced_reps)} traced repetitions in {measured:.1f} s")
    print(f"  input shape: {json.dumps(wl.shape(), sort_keys=True)}")
    print(f"  digests: {'recorded for this seed' if recorded is not None else 'none recorded for this seed; checked across repetitions'}")
    print(f"  ops {attempted}  ops_failed {len(failed)}")
    print("  repetition walls: " + " ".join(f"{'T' if t else ''}{r.wall:.3f}" for r, t in zip(reps, traced_flags)))
    for index, name, problems in failed[:20]:
        print(f"  FAILED rep {index} {name}: {'; '.join(problems)}")
    for name, value in e2e.items():
        print(f"  {name:<24} {value:12.6f} {END_TO_END_UNITS.get(name, 's')}")
    if args.trace:
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in per_layer(untraced, traced_reps).items()}
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:16.6f} {m['unit']}")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
