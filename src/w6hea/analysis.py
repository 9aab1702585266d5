"""Analyses over a read-only repository: coverage, elicitation ordering,
stakeholder-value scoring, clustering, and retirement/reuse candidates.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import yaml

from .model import (
    Interrogative,
    Repository,
    View,
    ViewCell,
    cells,
    interrogative_order,
    slugify,
)


class UnknownView(ValueError):
    """A view-weight map names a view that does not exist."""


# -- coverage ------------------------------------------------------------


@dataclass
class CellCoverage:
    cell: ViewCell
    status: str  # "empty" | "partial" | "filled"
    concern_count: int


@dataclass
class CoverageMatrix:
    cells: list[CellCoverage]

    @property
    def occupied(self) -> int:
        """Cells holding at least one concern."""
        return sum(1 for c in self.cells if c.status != "empty")

    @property
    def total(self) -> int:
        return len(self.cells)

    def by_cell(self) -> dict[ViewCell, CellCoverage]:
        return {c.cell: c for c in self.cells}


def coverage_matrix(repo: Repository) -> CoverageMatrix:
    """Status of all 29 cells.  A cell is "partial" when it holds concerns
    but none of them references any entity; "filled" otherwise."""
    out = []
    for cell in cells():
        concerns = repo.concerns_at(cell)
        if not concerns:
            status = "empty"
        elif any(c.entity_refs for c in concerns):
            status = "filled"
        else:
            status = "partial"
        out.append(CellCoverage(cell=cell, status=status, concern_count=len(concerns)))
    return CoverageMatrix(cells=out)


# -- elicitation ---------------------------------------------------------


@dataclass
class Prompt:
    view: View
    interrogative: Optional[Interrogative]
    question: str
    status: str  # "answered" | "open"


@dataclass
class ElicitationPlan:
    prompts: list[Prompt]


@functools.cache
def prompt_catalog() -> dict:
    text = resources.files("w6hea.data").joinpath("prompts.yaml").read_text("utf-8")
    return yaml.safe_load(text)


def elicitation_plan(repo: Repository, view: Optional[View] = None) -> ElicitationPlan:
    """Ordered questions for one view or all views (view rank, then
    interrogative order); a prompt is answered iff its cell is non-empty."""
    catalog = prompt_catalog()
    wanted = [view] if view is not None else sorted(View, key=lambda v: v.rank)
    prompts = []
    for v in wanted:
        if v is View.CONSUMER:
            cell = ViewCell(v)
            status = "answered" if repo.concerns_at(cell) else "open"
            prompts.append(Prompt(v, None, str(catalog["consumer"]), status))
            continue
        for i in interrogative_order():
            cell = ViewCell(v, i)
            status = "answered" if repo.concerns_at(cell) else "open"
            prompts.append(Prompt(v, i, str(catalog[v.value][i.value]), status))
    return ElicitationPlan(prompts=prompts)


# -- value graph ---------------------------------------------------------


@dataclass
class ValueGraph:
    """Undirected weighted graph over entities, concerns, and stakeholder
    groups; parallel edges are combined by summing weights."""

    node_kinds: dict[str, str] = field(default_factory=dict)
    edge_weights: dict[tuple[str, str], float] = field(default_factory=dict)

    def add_node(self, node: str, kind: str) -> None:
        self.node_kinds.setdefault(node, kind)

    def add_edge(self, a: str, b: str, weight: float = 1.0) -> None:
        if a == b:
            return
        key = (a, b) if a < b else (b, a)
        self.edge_weights[key] = self.edge_weights.get(key, 0.0) + weight

    @property
    def nodes(self) -> list[str]:
        return sorted(self.node_kinds)


def build_value_graph(repo: Repository) -> ValueGraph:
    g = ValueGraph()
    for e in repo.entities.values():
        g.add_node(e.id, e.kind)
    for c in repo.concerns.values():
        g.add_node(c.id, "concern")
        for ref in c.entity_refs:
            g.add_node(ref, repo.entities[ref].kind if ref in repo.entities else "entity")
            g.add_edge(c.id, ref, 1.0)
        for group in c.cell.view.stakeholder_groups:
            gid = f"group.{slugify(group)}"
            g.add_node(gid, "stakeholder_group")
            g.add_edge(c.id, gid, 1.0)
    for l in repo.links.values():
        g.add_node(l.source, repo.entities[l.source].kind if l.source in repo.entities else "entity")
        target_kind = (
            repo.entities[l.target].kind if l.target in repo.entities else "concern"
        )
        g.add_node(l.target, target_kind)
        g.add_edge(l.source, l.target, l.weight)
    return g


# -- scoring -------------------------------------------------------------


def _view_weights(weights: Optional[dict]) -> dict[View, float]:
    resolved = {v: 1.0 for v in View}
    for key, value in (weights or {}).items():
        try:
            view = key if isinstance(key, View) else View(str(key))
        except ValueError:
            raise UnknownView(f"unknown view {key!r} in weights map") from None
        resolved[view] = float(value)
        if not 0 <= resolved[view] < math.inf:
            raise ValueError(f"view weight for {view.value!r} must be >= 0")
    return resolved


def value_scores(repo: Repository, weights: Optional[dict] = None) -> dict[str, float]:
    """Stakeholder-value score per microservice/api.

    A service accrues ``weight(view)`` for every concern that references it
    directly, ``weight(view) * link weight`` for every motivated_by link into
    a concern, and (microservices only) credit through exposes links one hop:
    concerns referencing an API also credit the microservices it exposes,
    scaled by the exposes weight.
    """
    w = _view_weights(weights)
    scores: dict[str, float] = {
        e.id: 0.0 for e in repo.entities.values() if e.kind in ("microservice", "api")
    }

    refs_by_entity: dict[str, list] = {}
    for c in repo.concerns.values():
        for ref in c.entity_refs:
            refs_by_entity.setdefault(ref, []).append(c)

    for eid in scores:
        for c in refs_by_entity.get(eid, []):
            scores[eid] += w[c.cell.view]

    for l in repo.links_of_kind("motivated_by"):
        if l.source in scores and l.target in repo.concerns:
            scores[l.source] += w[repo.concerns[l.target].cell.view] * l.weight

    for l in repo.links_of_kind("exposes"):
        if l.target in scores:
            for c in refs_by_entity.get(l.source, []):
                scores[l.target] += w[c.cell.view] * l.weight

    return scores


def retirement_candidates(
    repo: Repository, threshold: float, weights: Optional[dict] = None
) -> list[tuple[str, float]]:
    """Services scoring strictly below the threshold, ascending by score then id."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    scores = value_scores(repo, weights)
    below = [(eid, s) for eid, s in scores.items() if s < threshold]
    return sorted(below, key=lambda pair: (pair[1], pair[0]))


def reuse_counts(repo: Repository) -> dict[str, int]:
    """Distinct business functions/organizations each service is linked to."""
    automated: dict[str, list[str]] = {}  # source -> its automates targets
    for l in repo.links_of_kind("automates"):
        automated.setdefault(l.source, []).append(l.target)
    reach: dict[str, set[str]] = {}
    for l in repo.links.values():
        if l.kind in ("automates", "serves"):
            reach.setdefault(l.source, set()).add(l.target)
        elif l.kind == "exposes":
            # an API exposing a service inherits that service's functions
            for target in automated.get(l.target, []):
                reach.setdefault(l.source, set()).add(target)
    return {eid: len(targets) for eid, targets in reach.items()}


def reuse_candidates(repo: Repository) -> list[str]:
    """Services linked to two or more distinct business functions or
    organizations (automates/exposes/serves), most-connected first."""
    counts = reuse_counts(repo)
    eligible = [eid for eid, n in counts.items() if n >= 2]
    return sorted(eligible, key=lambda eid: (-counts[eid], eid))


# -- clustering ----------------------------------------------------------


def cluster_graph(g: ValueGraph, seed: int = 0) -> list[set[str]]:
    """Weighted label propagation; deterministic for a given seed.

    Every node starts in its own cluster; nodes repeatedly adopt the label
    with the greatest total edge weight among their neighbors (smallest label
    on ties).  Labels only travel along edges, so the resulting partition
    always refines the connected components.
    """
    nodes = g.nodes
    if not nodes:
        return []
    labels = {node: idx for idx, node in enumerate(nodes)}
    neighbor_map: dict[str, list[tuple[str, float]]] = {node: [] for node in nodes}
    for (a, b), weight in g.edge_weights.items():  # each list keeps edge order
        neighbor_map[a].append((b, weight))
        neighbor_map[b].append((a, weight))
    rng = random.Random(seed)

    for _ in range(100):
        order = list(nodes)
        rng.shuffle(order)
        changed = False
        for node in order:
            neighbors = neighbor_map[node]
            if not neighbors:
                continue
            tally: dict[int, float] = {}
            for other, weight in neighbors:
                tally[labels[other]] = tally.get(labels[other], 0.0) + weight
            best = min(tally, key=lambda lbl: (-tally[lbl], lbl))
            if tally[best] > 0 and best != labels[node]:
                labels[node] = best
                changed = True
        if not changed:
            break

    clusters: dict[int, set[str]] = {}
    for node, label in labels.items():
        clusters.setdefault(label, set()).add(node)
    return sorted(clusters.values(), key=lambda c: min(c))
