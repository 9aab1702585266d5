"""Span recorder that wraps the package's layer functions from outside.

``install()`` replaces the public entry points of each layer module (and the
names ``w6hea.cli`` imported from ``repofmt``) with wrappers that record one
span per call: name, start, end, parent span and trace id.  The
``Repository`` adders and lookups are hot, so they are not spans: their time
and call count are summed, and their time is charged to the enclosing span
as child time.  Spans stay in memory; ``dump()`` writes them at exit.

Self time of a span is its duration minus the time of its direct children
(nested spans and summed adder/lookup calls).  ``layer_metrics()`` turns a
list of dumped traces into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _text_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


class Tracer:
    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.sums: dict[str, list] = defaultdict(lambda: [0.0, 0])  # name -> [seconds, calls]
        self.counts: dict[str, float] = defaultdict(int)
        self._parsed_inputs: set = set()

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            rec = {
                "name": name,
                "trace": tracer.trace_id,
                "id": len(tracer.spans),
                "parent": parent["id"] if parent else None,
                "child": 0.0,
            }
            tracer.spans.append(rec)
            tracer.stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent["child"] += rec["end"] - rec["start"]
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summed(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                total = tracer.sums[name]
                total[0] += elapsed
                total[1] += 1
                if tracer.stack:
                    tracer.stack[-1]["child"] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken at the layer boundaries ----------------------------

    def _on_parse(self, args, result):
        docs = args[0]
        key = tuple((d.path, hash(d.text)) for d in docs)
        if key in self._parsed_inputs:
            self.counts["repofmt.redundant_parses"] += 1
        self._parsed_inputs.add(key)
        repo, diagnostics = result
        self.counts["repofmt.bytes_parsed"] += sum(_text_bytes(d.text) for d in docs)
        self.counts["repofmt.diagnostics"] += len(diagnostics)
        if repo is not None:
            self.counts["repofmt.items_parsed"] += len(repo.entities) + len(repo.links) + len(repo.concerns)

    def _on_serialize(self, args, text):
        self.counts["repofmt.bytes_serialized"] += _text_bytes(text)

    def _on_findings(self, args, findings):
        for f in findings:
            self.counts[f"validation.findings_{f.severity}"] += 1

    def _on_graph(self, args, graph):
        self.counts["analysis.graph_nodes"] += len(graph.node_kinds)
        self.counts["analysis.graph_edges"] += len(graph.edge_weights)

    def _on_clusters(self, args, clusters):
        self.counts["analysis.clusters"] += len(clusters)
        largest = max((len(c) for c in clusters), default=0)
        self.counts["analysis.largest_cluster_nodes"] = max(
            self.counts["analysis.largest_cluster_nodes"], largest
        )

    def _on_report(self, args, text):
        self.counts["report.bytes_out"] += _text_bytes(text)

    def _on_proposal(self, args, result):
        proposal = result[0]
        self.counts["ingest.proposal_items"] += (
            len(proposal.entities) + len(proposal.links) + len(proposal.concerns)
        )

    def _on_merge(self, args, result):
        self.counts["ingest.merge_diagnostics"] += len(result[1])

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point of the package in this process."""
        import w6hea
        from w6hea import cli, model, repofmt

        read = repofmt.SourceDocument.read  # a classmethod: keep it callable on the class
        repofmt.SourceDocument.read = staticmethod(self.span("repofmt.read", read))
        for module, attr, name, on_return in SPANS:
            owner = importlib.import_module(f"w6hea.{module}")
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            callback = getattr(Tracer, on_return) if on_return else None
            setattr(owner, last, self.span(name, getattr(owner, last), callback))
        for alias in (cli, w6hea):  # names imported from repofmt by value
            alias.parse_repository = repofmt.parse_repository
            alias.serialize_repository = repofmt.serialize_repository
        for attr in ("add_entity", "add_link", "add_concern"):
            setattr(model.Repository, attr, self.summed("model.add", getattr(model.Repository, attr)))
        for attr in ("entities_of_kind", "links_of_kind", "concerns_at"):
            setattr(model.Repository, attr, self.summed("model.lookup", getattr(model.Repository, attr)))

    def dump(self, path: str) -> None:
        data = {
            "spans": self.spans,
            "sums": {k: list(v) for k, v in self.sums.items()},
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# -- what is traced, and aggregation (parent side) -------------------------

# Traced entry points: (module of w6hea, attribute, span name, count callback).
# A span name is also the stem of its metric: "<name>_s" is the summed self time.
SPANS = (
    ("repofmt", "parse_repository", "repofmt.parse", "_on_parse"),
    ("repofmt", "serialize_repository", "repofmt.serialize", "_on_serialize"),
    ("model", "Repository.integrity_violations", "model.integrity", None),
    ("validation", "validate", "validation.validate", "_on_findings"),
    ("validation", "check_precedence", "validation.precedence", "_on_findings"),
    ("analysis", "build_value_graph", "analysis.graph_build", "_on_graph"),
    ("analysis", "cluster_graph", "analysis.cluster", "_on_clusters"),
    ("analysis", "value_scores", "analysis.scores", None),
    ("analysis", "retirement_candidates", "analysis.retire", None),
    ("analysis", "reuse_counts", "analysis.reuse", None),
    ("analysis", "reuse_candidates", "analysis.reuse", None),
    ("analysis", "coverage_matrix", "analysis.coverage", None),
    ("analysis", "elicitation_plan", "analysis.elicit", None),
    ("report", "render_matrix", "report.matrix", "_on_report"),
    ("report", "export_findings_json", "report.json", "_on_report"),
    ("report", "export_scores_json", "report.json", "_on_report"),
    ("report", "export_graph_dot", "report.dot", "_on_report"),
    ("ingest", "ingest_openapi", "ingest.openapi", "_on_proposal"),
    ("ingest", "ingest_k8s", "ingest.k8s", "_on_proposal"),
    ("ingest", "merge_proposal", "ingest.merge", "_on_merge"),
)
SPAN_METRICS = ("repofmt.read", *dict.fromkeys(name for _, _, name, _ in SPANS))
CALL_COUNTS = {"repofmt.parse": "repofmt.parse_calls", "analysis.scores": "analysis.scores_calls"}
SUMMED = ("model.add", "model.lookup")
COUNTS = (
    "repofmt.bytes_parsed",
    "repofmt.items_parsed",
    "repofmt.diagnostics",
    "repofmt.redundant_parses",
    "repofmt.bytes_serialized",
    "validation.findings_error",
    "validation.findings_warning",
    "validation.findings_info",
    "analysis.graph_nodes",
    "analysis.graph_edges",
    "analysis.clusters",
    "analysis.largest_cluster_nodes",
    "report.bytes_out",
    "ingest.proposal_items",
    "ingest.merge_diagnostics",
)
MAX_COUNTS = ("analysis.largest_cluster_nodes",)
ROOT_SPAN = "cli"


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all its commands)."""
    out: dict[str, float] = {f"{stem}_s": 0.0 for stem in SPAN_METRICS}
    out.update({name: 0 for name in CALL_COUNTS.values()})
    for stem in SUMMED:
        out[f"{stem}_s"] = 0.0
        out[f"{stem}_calls"] = 0
    out.update({name: 0 for name in COUNTS})
    out["cli.commands"] = 0
    out["cli.self_s"] = 0.0
    for trace in traces:
        for span in trace["spans"]:
            self_time = span["end"] - span["start"] - span["child"]
            name = span["name"]
            if name == ROOT_SPAN:
                out["cli.self_s"] += self_time
                out["cli.commands"] += 1
                continue
            out[f"{name}_s"] += self_time
            if name in CALL_COUNTS:
                out[CALL_COUNTS[name]] += 1
        for stem, (seconds, calls) in trace["sums"].items():
            out[f"{stem}_s"] += seconds
            out[f"{stem}_calls"] += calls
        for name, value in trace["counts"].items():
            if name in MAX_COUNTS:
                out[name] = max(out[name], value)
            else:
                out[name] += value
    return out
