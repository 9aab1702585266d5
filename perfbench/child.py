"""Child-side runner: one interpreter per CLI command, or one for the
library workload.

    python perfbench/child.py cli --trace FILE --trace-id ID -- <w6hea args>
    python perfbench/child.py whatif --repo FILE --out DIR [--trace FILE]

``cli`` installs the span recorder before calling ``w6hea.cli.main`` and
exits with the command's exit code; untraced commands are run as
``python -m w6hea.cli`` by the parent instead.  ``whatif`` runs the library
sequence of the what_if workload, writes each output to ``--out`` and the
per-call latencies to ``--out/calls.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from tracer import Tracer

SWEEP_MAPS = 40
RETIRE_THRESHOLD = 2.0
CLUSTER_SEEDS = tuple(range(8))


def sweep_weights(k: int) -> dict[str, float]:
    """The k-th view-weight map of the what-if sweep."""
    return {
        "scope": 0.5 + 0.5 * (k % 5),
        "owner": 1.0 + 0.25 * (k // 5),
        "designer": 2.0 - 0.25 * (k % 4),
        "builder": 0.5 * (k % 3),
        "consumer": 1.0,
    }


def run_cli(args) -> int:
    import w6hea.cli

    tracer = Tracer(args.trace_id)
    tracer.install()
    main = tracer.span("cli", w6hea.cli.main)
    code = 0
    try:
        main(args=args.argv, prog_name="python -m w6hea.cli")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(args.trace)
    return code


def run_whatif(args) -> int:
    import w6hea
    from w6hea import analysis, report

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    calls: list[tuple[str, str, float]] = []  # (stage, call, seconds)

    def call(stage: str, name: str, fn, *fn_args):
        if tracer is not None:
            tracer.trace_id = f"what_if:{name}"
        start = time.perf_counter()
        result = fn(*fn_args)
        calls.append((stage, name, time.perf_counter() - start))
        return result

    def parse(path):
        return w6hea.parse_repository([w6hea.SourceDocument.read(path)])

    def write(name: str, text: str) -> None:
        with open(f"{args.out}/{name}", "w", encoding="utf-8") as fh:
            fh.write(text)

    try:
        repo, diagnostics = call("parse", "parse_repository", parse, args.repo)
        if repo is None:
            raise SystemExit("what_if input did not parse: " + "; ".join(map(str, diagnostics)))

        # One line per weight map: a digest of the scores and candidates
        # (exact float reprs) plus their sizes, so the file stays small.
        sweep = []
        for k in range(SWEEP_MAPS):
            weights = sweep_weights(k)
            scores = call("scores_sweep", f"value_scores[{k}]", analysis.value_scores, repo, weights)
            retire = call(
                "scores_sweep", f"retirement_candidates[{k}]",
                analysis.retirement_candidates, repo, RETIRE_THRESHOLD, weights,
            )
            canon = json.dumps([sorted((e, repr(s)) for e, s in scores.items()),
                                [(e, repr(s)) for e, s in retire]])
            sweep.append(f"{k} {hashlib.sha256(canon.encode()).hexdigest()} {len(scores)} {len(retire)}\n")
        write("sweep.txt", "".join(sweep))

        counts = call("scores_sweep", "reuse_counts", analysis.reuse_counts, repo)
        candidates = call("scores_sweep", "reuse_candidates", analysis.reuse_candidates, repo)
        write("reuse.json", json.dumps({"counts": dict(sorted(counts.items())), "candidates": candidates}, indent=0) + "\n")

        plan = call("other", "elicitation_plan", analysis.elicitation_plan, repo)
        write("elicit.txt", "".join(f"{p.view.value}/{p.interrogative.value if p.interrogative else '-'} {p.status}\n"
                                    for p in plan.prompts))

        graph = call("cluster", "build_value_graph", analysis.build_value_graph, repo)
        for seed in CLUSTER_SEEDS:
            clusters = call("cluster", f"cluster_graph[{seed}]", analysis.cluster_graph, graph, seed)
            write(f"clusters-{seed}.json", json.dumps([sorted(c) for c in clusters], indent=0) + "\n")

        dot = call("other", "export_graph_dot", report.export_graph_dot, graph)
        write("graph.dot", dot)
    finally:
        with open(f"{args.out}/calls.json", "w", encoding="utf-8") as fh:
            json.dump(calls, fh)
        if tracer is not None:
            tracer.dump(args.trace)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace", required=True)
    cli.add_argument("--trace-id", default="")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    whatif = sub.add_parser("whatif")
    whatif.add_argument("--repo", required=True)
    whatif.add_argument("--out", required=True)
    whatif.add_argument("--trace", default=None)
    args = parser.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_whatif(args)


if __name__ == "__main__":
    sys.exit(main())
