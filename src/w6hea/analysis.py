"""Analyses over a read-only repository: coverage, elicitation ordering,
stakeholder-value scoring, clustering, and retirement/reuse candidates.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .model import (
    SERVICE_KINDS,
    Interrogative,
    Repository,
    View,
    ViewCell,
    cells,
    group_id,
    weight_fault,
)
from .yamlload import load


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
    return load(text, "prompts.yaml")


def elicitation_plan(repo: Repository, view: View | str | None = None) -> ElicitationPlan:
    """Ordered questions, one per cell of the coverage matrix, for one view (a
    ``View`` or its name) or all; a prompt is answered iff its cell is non-empty."""
    view = None if view is None else View(view)
    catalog = prompt_catalog()
    prompts = []
    for cc in coverage_matrix(repo).cells:
        v, i = cc.cell.view, cc.cell.interrogative
        if view is None or v is view:
            question = catalog[v.value] if i is None else catalog[v.value][i.value]
            status = "open" if cc.status == "empty" else "answered"
            prompts.append(Prompt(v, i, str(question), status))
    return ElicitationPlan(prompts=prompts)


# -- value graph ---------------------------------------------------------


@dataclass
class ValueGraph:
    """Undirected weighted graph over entities, concerns, and stakeholder
    groups; parallel edges are combined by summing weights.

    A graph starts empty and changes only through ``add_node`` and
    ``add_edge``, as a repository changes only through its adders;
    ``add_edge`` refuses an end that is not a node.  The graph keeps what
    ``adjacency`` builds until one of them is called again, so that every
    clustering of one graph shares one build; equality and ``repr`` ignore it.
    """

    node_kinds: dict[str, str] = field(default_factory=dict, init=False)
    edge_weights: dict[tuple[str, str], float] = field(default_factory=dict, init=False)
    _adjacency: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def add_node(self, node: str, kind: str) -> None:
        if (known := self.node_kinds.setdefault(node, kind)) != kind:
            raise ValueError(f"node {node!r} has kind {known!r}, not {kind!r}")
        self._adjacency = None

    def add_edge(self, a: str, b: str, weight: float = 1.0) -> None:
        if a == b:
            return
        if a not in self.node_kinds or b not in self.node_kinds:
            missing = [repr(end) for end in (a, b) if end not in self.node_kinds]
            raise ValueError(f"edge {a!r}--{b!r}: no node {' or '.join(missing)}")
        key = (a, b) if a < b else (b, a)
        self.edge_weights[key] = self.edge_weights.get(key, 0.0) + weight
        self._adjacency = None

    @property
    def nodes(self) -> list[str]:
        return sorted(self.node_kinds)

    def adjacency(self) -> tuple[list[str], list[list[tuple[int, float]]]]:
        """The sorted nodes, and each node's ``(neighbor index, weight)``
        pairs by its index there, in edge order; built on first use and
        shared by every caller, so not to be changed."""
        if self._adjacency is None:
            nodes = self.nodes
            index = {node: idx for idx, node in enumerate(nodes)}
            neighbors: list[list[tuple[int, float]]] = [[] for _ in nodes]
            for (a, b), weight in self.edge_weights.items():  # each list keeps edge order
                neighbors[index[a]].append((index[b], weight))
                neighbors[index[b]].append((index[a], weight))
            self._adjacency = nodes, neighbors
        return self._adjacency


def build_value_graph(repo: Repository) -> ValueGraph:
    g = ValueGraph()
    for eid, e in repo.entities.items():  # the adders key every entity by its id
        g.add_node(eid, e.kind)
    groups = {view: [group_id(group) for group in view.stakeholder_groups] for view in View}
    for c in repo.concerns.values():
        g.add_node(c.id, "concern")
        for ref in c.entity_refs:
            g.add_edge(c.id, ref, 1.0)
        for gid in groups[c.cell.view]:
            g.add_node(gid, "stakeholder_group")
            g.add_edge(c.id, gid, 1.0)
    for l in repo.links.values():
        g.add_edge(l.source, l.target, l.weight)
    return g


# -- scoring -------------------------------------------------------------


def _view_weights(weights: Optional[Mapping]) -> dict[View, float]:
    if not (weights is None or isinstance(weights, Mapping)):
        raise ValueError(f"weights must be a mapping of view to weight, got {weights!r}")
    resolved = {v: 1.0 for v in View}
    for key, value in (weights or {}).items():
        try:
            view = key if isinstance(key, View) else View(str(key))
        except ValueError:
            raise ValueError(f"unknown view {key!r} in weights map") from None
        if fault := weight_fault(value):
            raise ValueError(f"view weight for {view.value!r}: {fault}")
        resolved[view] = float(value)
    return resolved


def value_scores(repo: Repository, weights: Optional[Mapping] = None) -> dict[str, float]:
    """Stakeholder-value score per microservice/api.

    A service accrues ``weight(view)`` for every concern that references it
    directly, ``weight(view) * link weight`` for every motivated_by link into
    a concern, and (microservices only) credit through exposes links one hop:
    concerns referencing an API also credit the microservices it exposes,
    scaled by the exposes weight.
    """
    w = _view_weights(weights)
    scores: dict[str, float] = {
        eid: 0.0 for eid, e in repo.entities.items() if e.kind in SERVICE_KINDS
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
    repo: Repository, threshold: float, weights: Optional[Mapping] = None
) -> list[tuple[str, float]]:
    """Services scoring strictly below the threshold, an ``int`` or ``float``
    from 0 to infinity, ascending by score then id."""
    number = isinstance(threshold, (int, float)) and not isinstance(threshold, bool)
    if not (number and threshold >= 0):  # NaN too
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

    A sweep re-tallies only the nodes whose neighborhood changed since their
    last visit.  This cannot change the result: a node's choice depends only
    on its neighbors' labels and its own, and its own label changes only
    when it is visited.  Sweeps stop once no node is stale, or after 100.
    """
    nodes, neighbors = g.adjacency()
    labels = list(range(len(nodes)))
    stale = [True] * len(nodes)
    rng = random.Random(seed)

    for _ in range(100):
        order = list(range(len(nodes)))
        rng.shuffle(order)
        for node in order:
            if not stale[node]:
                continue
            stale[node] = False
            tally: dict[int, float] = {}
            for other, weight in neighbors[node]:
                label = labels[other]
                tally[label] = tally.get(label, 0.0) + weight
            best, most = -1, 0.0
            for label, total in tally.items():
                if total > most or (total == most and label < best):
                    best, most = label, total
            if most > 0 and best != labels[node]:
                labels[node] = best
                for other, _ in neighbors[node]:
                    stale[other] = True
        if not any(stale):
            break

    clusters: dict[int, set[str]] = {}
    for node, label in zip(nodes, labels):
        clusters.setdefault(label, set()).add(node)
    return sorted(clusters.values(), key=lambda c: min(c))


def modularity(g: ValueGraph, clusters: list[set[str]]) -> float:
    """Newman's modularity Q (PNAS 2006) of a partition of the weighted graph:
    over the clusters, the share of edge weight inside the cluster minus the
    square of the cluster's share of the weighted degree.  O(V + E); 0.0 when
    the graph has no edge weight, NaN when an edge weight is infinite."""
    cluster_of = {node: idx for idx, cluster in enumerate(clusters) for node in cluster}
    if len(cluster_of) != sum(map(len, clusters)) or cluster_of.keys() != g.node_kinds.keys():
        raise ValueError("clusters must partition the graph's nodes")
    scale = max(g.edge_weights.values(), default=0.0)  # so that no sum overflows
    if not scale > 0:
        return 0.0
    inside = [0.0] * len(clusters)
    degree = [0.0] * len(clusters)
    for (a, b), weight in g.edge_weights.items():
        ca, cb, weight = cluster_of[a], cluster_of[b], weight / scale
        degree[ca] += weight
        degree[cb] += weight
        if ca == cb:
            inside[ca] += weight
    total = sum(degree)  # twice the edge weight
    return sum(2 * w / total - (d / total) ** 2 for w, d in zip(inside, degree))
