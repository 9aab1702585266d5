"""Renderers: Markdown coverage matrix, findings/scores JSON, DOT graph export.

All output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import json

from .analysis import CoverageMatrix, ValueGraph
from .model import Interrogative, View, ViewCell, interrogative_order
from .validation import Finding

# Paper-style column headers: alias capitalized, interrogative in parentheses.
COLUMN_HEADERS = {
    Interrogative.WHO: "People (who)",
    Interrogative.WHAT: "Data (what)",
    Interrogative.WHICH: "Selection (which)",
    Interrogative.WHERE: "Network (where)",
    Interrogative.HOW: "Function (How)",
    Interrogative.WHY: "Motivation (Why)",
    Interrogative.WHEN: "Time (when)",
}

# Node shape per kind in DOT exports.
DOT_SHAPES = {
    "microservice": "box",
    "api": "hexagon",
    "concern": "note",
    "stakeholder_group": "ellipse",
    "business_function": "folder",
    "organization": "house",
    "data_element": "cylinder",
    "deployment_target": "box3d",
}
DOT_DEFAULT_SHAPE = "oval"


def render_matrix(matrix: CoverageMatrix) -> str:
    """Markdown table: four view rows x seven columns plus the merged
    consumer row; each cell shows status and concern count."""
    coverage = matrix.by_cell()
    order = interrogative_order()
    lines = ["| View | " + " | ".join(COLUMN_HEADERS[i] for i in order) + " |"]
    lines.append("|" + " --- |" * (len(order) + 1))
    for view in sorted(View, key=lambda v: v.rank):
        if view is View.CONSUMER:
            cc = coverage[ViewCell(view)]
            merged = f"{cc.status} ({cc.concern_count})"
            lines.append(f"| {view.label} | {merged} |" + " &#8212; |" * (len(order) - 1))
            continue
        row = [view.label]
        for i in order:
            cc = coverage[ViewCell(view, i)]
            row.append(f"{cc.status} ({cc.concern_count})")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(f"Coverage: {matrix.occupied}/{matrix.total} cells hold concerns.")
    return "\n".join(lines) + "\n"


def export_findings_json(findings: list[Finding]) -> str:
    data = [
        {
            "rule_id": f.rule_id,
            "severity": f.severity,
            "subject": f.subject,
            "message": f.message,
        }
        for f in sorted(findings, key=lambda f: (f.rule_id, f.subject))
    ]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def export_scores_json(scores: dict[str, float]) -> str:
    return json.dumps({k: scores[k] for k in sorted(scores)}, indent=2) + "\n"


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph_dot(g: ValueGraph) -> str:
    """DOT text: one node statement per node (shape encodes kind), one edge
    statement per edge with its weight attribute."""
    lines = ["graph value_graph {"]
    for node in g.nodes:
        shape = DOT_SHAPES.get(g.node_kinds[node], DOT_DEFAULT_SHAPE)
        lines.append(f"  {_dot_quote(node)} [shape={shape}];")
    for (a, b) in sorted(g.edge_weights):
        weight = g.edge_weights[(a, b)]
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)} [weight={weight:g}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
