"""Renderers: Markdown coverage matrix, findings/scores JSON, DOT graph export.

All output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict
from typing import TYPE_CHECKING

from .model import Interrogative

if TYPE_CHECKING:  # annotations only: rendering needs neither layer loaded
    from .analysis import CoverageMatrix, ValueGraph
    from .validation import Finding

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
    """Markdown table: one row per view over the seven columns, the merged
    consumer row padded with dashes; each cell shows status and concern count."""
    width = len(Interrogative)
    lines = ["| View | " + " | ".join(i.label for i in Interrogative) + " |"]
    lines.append("|" + " --- |" * (width + 1))
    # matrix.cells is in cells() order, so each view's cells are adjacent.
    for view, row in itertools.groupby(matrix.cells, key=lambda cc: cc.cell.view):
        shown = [f"{cc.status} ({cc.concern_count})" for cc in row]
        shown += ["&#8212;"] * (width - len(shown))
        lines.append(f"| {view.label} | " + " | ".join(shown) + " |")
    lines.append("")
    lines.append(f"Coverage: {matrix.occupied}/{matrix.total} cells hold concerns.")
    return "\n".join(lines) + "\n"


def _json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def export_findings_json(findings: list[Finding]) -> str:
    return _json([asdict(f) for f in sorted(findings, key=lambda f: (f.rule_id, f.subject))])


def export_scores_json(scores: dict[str, float]) -> str:
    return _json(scores)


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
