import random
import sys
from importlib import resources
from types import MappingProxyType

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from w6hea.analysis import (
    ValueGraph,
    _view_weights,
    build_value_graph,
    cluster_graph,
    coverage_matrix,
    elicitation_plan,
    modularity,
    prompt_catalog,
    retirement_candidates,
    reuse_candidates,
    reuse_counts,
    value_scores,
)
from w6hea.model import (
    SERVICE_KINDS,
    Concern,
    Entity,
    Interrogative,
    Link,
    ModelError,
    Repository,
    View,
    ViewCell,
    cells,
    group_id,
    weight_fault,
)

from conftest import load_fixture_repo
from test_ingest_properties import PROPERTY_SETTINGS
from test_ingest_properties import pytestmark as hypothesis_warning_filter
from test_yaml_backends import repositories

I = Interrogative
FIXTURE_NAMES = ["compliant.ea.yaml", "violations.ea.yaml", "paper_api_table.ea.yaml"]


def brute_force_scores(repo, weights=None):
    """Independent oracle: enumerate every credit path one by one."""
    w = {v: 1.0 for v in View}
    w.update({View(k) if not isinstance(k, View) else k: float(v) for k, v in (weights or {}).items()})
    scores = {}
    for e in repo.entities.values():
        if e.kind not in ("microservice", "api"):
            continue
        total = 0.0
        for c in repo.concerns.values():
            for ref in c.entity_refs:
                if ref == e.id:
                    total += w[c.cell.view]
        for l in repo.links.values():
            if l.kind == "motivated_by" and l.source == e.id and l.target in repo.concerns:
                total += w[repo.concerns[l.target].cell.view] * l.weight
            if l.kind == "exposes" and l.target == e.id:
                for c in repo.concerns.values():
                    for ref in c.entity_refs:
                        if ref == l.source:
                            total += w[c.cell.view] * l.weight
        scores[e.id] = total
    return scores


def reference_value_scores(repo, weights=None):
    """``value_scores`` as it was when it read each service's id from
    ``Entity.id``; its floats are the ones to match, bit for bit."""
    w = _view_weights(weights)
    scores = {e.id: 0.0 for e in repo.entities.values() if e.kind in SERVICE_KINDS}

    refs_by_entity = {}
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


def random_repository(rng, link_weights=None):
    """Services, APIs, exposes links, concerns and motivated_by links; link
    weights are drawn from ``link_weights`` when given."""
    repo = Repository()
    n_services = rng.randint(1, 6)
    n_apis = rng.randint(0, 4)
    for idx in range(n_services):
        repo.add_entity(Entity("microservice", f"svc{idx}"))
    for idx in range(n_apis):
        repo.add_entity(Entity("api", f"api{idx}"))
    api_ids = [f"api.api{i}" for i in range(n_apis)]
    svc_ids = [f"microservice.svc{i}" for i in range(n_services)]
    for aid in api_ids:
        if rng.random() < 0.7:
            target = rng.choice(svc_ids)
            repo.add_link(Link("exposes", aid, target, weight=rng.choice(link_weights or [0.5, 1.0, 2.0])))
    non_consumer = [c for c in cells() if c.view is not View.CONSUMER]
    for cidx in range(rng.randint(0, 6)):
        cell = rng.choice(non_consumer)
        refs = [
            eid for eid in svc_ids + api_ids if rng.random() < 0.4
        ][: max(0, 20 - cidx * 4)]
        repo.add_concern(Concern(f"c{cidx}", cell, f"statement {cidx}", entity_refs=refs))
    for eid in svc_ids + api_ids:
        if repo.concerns and rng.random() < 0.4:
            target = rng.choice(sorted(repo.concerns))
            repo.add_link(Link("motivated_by", eid, target, weight=rng.choice(link_weights or [1.0, 3.0])))
    return repo


class TestCoverage:
    def test_empty_repository(self):
        matrix = coverage_matrix(Repository())
        assert matrix.occupied == 0
        assert matrix.total == 29
        assert all(c.status == "empty" for c in matrix.cells)

    def test_one_concern_per_scope_cell(self):
        repo = Repository()
        for idx, i in enumerate(Interrogative):
            repo.add_concern(Concern(f"c{idx}", ViewCell(View.SCOPE, i)))
        assert coverage_matrix(repo).occupied == 7

    def test_fully_populated(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        for idx, cell in enumerate(cells()):
            repo.add_concern(
                Concern(f"c{idx}", cell, "s", entity_refs=["microservice.cart"])
            )
        matrix = coverage_matrix(repo)
        assert matrix.occupied == 29
        assert all(c.status == "filled" for c in matrix.cells)

    def test_partial_when_no_entity_refs(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.WHO)))
        matrix = {c.cell: c for c in coverage_matrix(repo).cells}
        assert matrix[ViewCell(View.SCOPE, I.WHO)].status == "partial"

    def test_monotone_in_concerns(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.WHO)))
        before = coverage_matrix(repo).occupied
        repo.add_concern(Concern("c2", ViewCell(View.OWNER, I.WHAT)))
        assert coverage_matrix(repo).occupied >= before


class TestElicitation:
    def test_scope_view_empty_repo(self):
        plan = elicitation_plan(Repository(), View.SCOPE)
        assert len(plan.prompts) == 7
        assert [p.interrogative for p in plan.prompts] == list(Interrogative)
        assert all(p.status == "open" for p in plan.prompts)

    def test_answered_cell(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.WHAT)))
        plan = elicitation_plan(repo, View.SCOPE)
        answered = [p for p in plan.prompts if p.status == "answered"]
        assert [p.interrogative for p in answered] == [I.WHAT]

    def test_all_views_is_29_prompts_in_grid_order(self):
        plan = elicitation_plan(Repository())
        assert len(plan.prompts) == 29
        order = [ViewCell(p.view, p.interrogative) for p in plan.prompts]
        assert order == cells()

    def test_catalog_is_what_the_safe_loader_reads(self):
        text = resources.files("w6hea.data").joinpath("prompts.yaml").read_text("utf-8")
        assert prompt_catalog() == yaml.safe_load(text)

    def test_consumer_view_single_prompt(self):
        plan = elicitation_plan(Repository(), View.CONSUMER)
        assert len(plan.prompts) == 1
        assert "SDK" in plan.prompts[0].question

    @pytest.mark.parametrize("view", list(View))
    def test_a_view_name_is_read_as_its_view(self, view):
        repo = load_fixture_repo("compliant.ea.yaml")
        plan = elicitation_plan(repo, view.value)
        assert plan == elicitation_plan(repo, view)
        assert len(plan.prompts) == (1 if view is View.CONSUMER else 7)

    def test_an_unknown_view_name_is_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            elicitation_plan(Repository(), "bogus")


class TestScores:
    def test_unreferenced_service_is_zero(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        assert value_scores(repo) == {"microservice.idle": 0.0}

    def test_two_owner_concerns_unit_weights(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_concern(
            Concern("c1", ViewCell(View.OWNER, I.HOW), entity_refs=["microservice.cart"])
        )
        repo.add_concern(
            Concern("c2", ViewCell(View.OWNER, I.WHY), entity_refs=["microservice.cart"])
        )
        assert value_scores(repo)["microservice.cart"] == pytest.approx(2.0)

    def test_doubling_view_weight_doubles_contribution(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_concern(
            Concern("c1", ViewCell(View.OWNER, I.HOW), entity_refs=["microservice.cart"])
        )
        base = value_scores(repo)["microservice.cart"]
        doubled = value_scores(repo, {"owner": 2.0})["microservice.cart"]
        assert doubled == pytest.approx(2 * base)

    def test_unknown_view_in_weights(self):
        with pytest.raises(ValueError, match="unknown view"):
            value_scores(Repository(), {"sponsor": 1.0})

    @pytest.mark.parametrize("weight", [None, [1], "heavy", {}])
    def test_a_weight_that_is_not_a_number_is_rejected_naming_its_view(self, weight):
        with pytest.raises(ValueError, match="view weight for 'owner'"):
            value_scores(Repository(), {"owner": weight})

    @pytest.mark.parametrize(
        "weight", [True, False, "2", " 3 ", b"1", pytest.param(10**400, id="10**400"), -1]
    )
    def test_only_an_int_or_float_within_range_is_a_weight(self, weight):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        with pytest.raises(ValueError) as raised:
            value_scores(repo, {"owner": weight})
        assert str(raised.value) == f"view weight for 'owner': {weight_fault(weight)}"

    @pytest.mark.parametrize("weight, fault", [
        (float("inf"), "non-finite weight inf"), (float("nan"), "non-finite weight nan"),
        (-1, "negative weight -1"), (True, "weight True, not a number"),
    ])
    def test_a_refused_weight_is_named_by_its_fault(self, weight, fault):
        with pytest.raises(ValueError) as raised:
            value_scores(Repository(), {"owner": weight})
        assert str(raised.value) == f"view weight for 'owner': {fault}"

    @pytest.mark.parametrize("weight", [0, 2, 0.5, sys.float_info.max])
    def test_an_int_or_float_weight_is_taken(self, weight):
        assert _view_weights({"owner": weight})[View.OWNER] == float(weight)

    def test_matches_brute_force_on_random_repositories(self):
        rng = random.Random(7)
        for _ in range(100):
            repo = random_repository(rng)
            weights = {"owner": rng.choice([0.5, 1.0, 2.0])}
            got = value_scores(repo, weights)
            want = brute_force_scores(repo, weights)
            assert got.keys() == want.keys()
            for eid in got:
                assert got[eid] == pytest.approx(want[eid], abs=1e-9)


# Weights whose sums depend on the order they are added in: 0.1 + 0.2 + 0.7
# is 0.9999999999999999, and 0.7 + 0.2 + 0.1 is 1.0.
ORDER_SENSITIVE = [0.1, 0.2, 1 / 3, 0.7]


def assert_same_floats(got, want):
    """The same keys in the same order, and the same float bits for each."""
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in want.items()]


class TestScoresMatchTheReference:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_on_fixtures(self, name):
        repo = load_fixture_repo(name)
        rng = random.Random(name)
        for weights in [None] + [{v.value: rng.choice(ORDER_SENSITIVE) for v in View} for _ in range(5)]:
            assert_same_floats(value_scores(repo, weights), reference_value_scores(repo, weights))

    def test_on_random_repositories_with_order_sensitive_weights(self):
        rng = random.Random(11)
        for _ in range(200):
            repo = random_repository(rng, link_weights=ORDER_SENSITIVE)
            for eid in list(repo.entities):  # several motivated_by links into one service
                for cid in repo.concerns:
                    link = Link("motivated_by", eid, cid, rng.choice(ORDER_SENSITIVE))
                    if link.id not in repo.links and rng.random() < 0.3:
                        repo.add_link(link)
            weights = {v.value: rng.choice(ORDER_SENSITIVE) for v in View}
            assert_same_floats(value_scores(repo, weights), reference_value_scores(repo, weights))


class TestRetirement:
    def test_zero_score_below_threshold(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        assert retirement_candidates(repo, 1.0) == [("microservice.idle", 0.0)]

    def test_threshold_zero_is_strict(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        assert retirement_candidates(repo, 0.0) == []

    @pytest.mark.parametrize("threshold", [-1.0, float("nan")])
    def test_threshold_below_zero_or_nan_is_rejected(self, threshold):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            retirement_candidates(repo, threshold)

    def test_matches_brute_force_filter(self):
        rng = random.Random(13)
        for _ in range(50):
            repo = random_repository(rng)
            threshold = rng.choice([0.5, 1.0, 2.5])
            scores = brute_force_scores(repo)
            want = sorted(
                ((eid, s) for eid, s in scores.items() if s < threshold),
                key=lambda pair: (pair[1], pair[0]),
            )
            assert retirement_candidates(repo, threshold) == want

    @pytest.mark.parametrize("threshold", ["1", None, [1], True, False])
    def test_a_threshold_that_is_not_an_int_or_float_is_rejected(self, threshold):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            retirement_candidates(repo, threshold)

    @pytest.mark.parametrize("threshold", [2, float("inf")])
    def test_an_int_or_an_infinite_threshold_is_taken(self, threshold):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        assert retirement_candidates(repo, threshold) == [("microservice.idle", 0.0)]


class TestWeightsArgument:
    @pytest.mark.parametrize("weights", ["owner=2", [("owner", 2)], [], 2.0])
    def test_weights_that_are_not_a_mapping_are_rejected(self, weights):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        with pytest.raises(ValueError, match=r"^weights must be a mapping of view to weight, got "):
            value_scores(repo, weights)
        with pytest.raises(ValueError, match=r"^weights must be a mapping"):
            retirement_candidates(repo, 1.0, weights)

    def test_a_read_only_mapping_is_taken(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_concern(Concern("c1", ViewCell(View.OWNER, I.WHAT), entity_refs=["microservice.cart"]))
        assert value_scores(repo, MappingProxyType({"owner": 2})) == {"microservice.cart": 2.0}


REFUSED_WEIGHTS = [True, "2", None, -1, -0.5, float("nan"), float("inf"), 10**400]
TAKEN_WEIGHTS = [0, 0.0, 1, 2.5, 10**300]


def weight_id(weight):
    return {10**400: "10**400", 10**300: "10**300"}.get(weight, repr(weight))


@pytest.mark.parametrize(
    "weight, taken",
    [(w, False) for w in REFUSED_WEIGHTS] + [(w, True) for w in TAKEN_WEIGHTS],
    ids=weight_id,
)
def test_link_and_view_weights_follow_one_rule(weight, taken):
    repo = Repository()
    repo.add_entity(Entity("api", "orders"))
    repo.add_entity(Entity("microservice", "cart"))
    link = Link("exposes", "api.orders", "microservice.cart", weight)
    if taken:
        assert repo.add_link(link) == link.id
        assert value_scores(repo, {"owner": weight}).keys() == {"api.orders", "microservice.cart"}
        return
    with pytest.raises(ModelError, match="weight"):
        repo.add_link(link)
    with pytest.raises(ValueError, match="^view weight for 'owner': "):
        value_scores(repo, {"owner": weight})


class TestReuse:
    def test_api_serving_two_organizations(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("organization", "acme"))
        repo.add_entity(Entity("organization", "globex"))
        repo.add_link(Link("serves", "api.orders", "organization.acme"))
        repo.add_link(Link("serves", "api.orders", "organization.globex"))
        assert reuse_candidates(repo) == ["api.orders"]

    def test_single_function_not_listed(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_entity(Entity("business_function", "ordering"))
        repo.add_link(Link("automates", "microservice.cart", "business_function.ordering"))
        assert reuse_candidates(repo) == []

    def test_ties_break_by_id(self):
        repo = Repository()
        for name in ("alpha", "beta"):
            repo.add_entity(Entity("microservice", name))
        for fn in ("f1", "f2"):
            repo.add_entity(Entity("business_function", fn))
        for name in ("alpha", "beta"):
            for fn in ("f1", "f2"):
                repo.add_link(
                    Link("automates", f"microservice.{name}", f"business_function.{fn}")
                )
        assert reuse_candidates(repo) == ["microservice.alpha", "microservice.beta"]


    def test_api_inherits_the_functions_of_the_service_it_exposes(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        for fn in ("f1", "f2"):
            repo.add_entity(Entity("business_function", fn))
            repo.add_link(Link("automates", "microservice.cart", f"business_function.{fn}"))
        repo.add_link(Link("exposes", "api.orders", "microservice.cart"))
        assert reuse_counts(repo) == {"api.orders": 2, "microservice.cart": 2}
        assert reuse_candidates(repo) == ["api.orders", "microservice.cart"]

def clique(g, names, weight=1.0):
    for name in names:
        g.add_node(name, "microservice")
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            g.add_edge(a, b, weight)


class TestClustering:
    def test_empty_graph(self):
        assert cluster_graph(ValueGraph(), seed=0) == []

    def test_complete_graph_is_one_cluster(self):
        g = ValueGraph()
        clique(g, ["a", "b", "c", "d"])
        assert cluster_graph(g, seed=0) == [{"a", "b", "c", "d"}]

    def test_two_disjoint_cliques(self):
        g = ValueGraph()
        clique(g, ["a", "b", "c"])
        clique(g, ["x", "y", "z"])
        assert cluster_graph(g, seed=0) == [{"a", "b", "c"}, {"x", "y", "z"}]

    def test_partition_and_component_refinement_on_random_graphs(self):
        rng = random.Random(42)
        for trial in range(100):
            g = ValueGraph()
            n = rng.randint(1, 30)
            names = [f"n{i}" for i in range(n)]
            for name in names:
                g.add_node(name, "microservice")
            for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
                a, b = rng.sample(names, 2)
                g.add_edge(a, b, rng.choice([0.5, 1.0, 2.0]))
            clusters = cluster_graph(g, seed=trial)
            # partition: disjoint and exhaustive
            seen = [node for cluster in clusters for node in cluster]
            assert sorted(seen) == sorted(names)
            # refinement: each cluster lies within one component
            component = _components(g)
            for cluster in clusters:
                assert len({component[node] for node in cluster}) == 1

    def test_same_seed_same_partition(self):
        g = ValueGraph()
        rng = random.Random(5)
        names = [f"n{i}" for i in range(20)]
        for name in names:
            g.add_node(name, "microservice")
        for _ in range(40):
            a, b = rng.sample(names, 2)
            g.add_edge(a, b)
        assert cluster_graph(g, seed=3) == cluster_graph(g, seed=3)

    def test_value_graph_from_repository(self, compliant_repo):
        g = build_value_graph(compliant_repo)
        assert "microservice.cart" in g.node_kinds
        assert "scope.why.growth" in g.node_kinds
        assert any(k == "stakeholder_group" for k in g.node_kinds.values())
        clusters = cluster_graph(g, seed=0)
        assert sorted(n for c in clusters for n in c) == g.nodes


def reference_cluster_graph(g, seed=0):
    """``cluster_graph`` as it was before it skipped nodes whose
    neighborhood had not changed: every sweep re-tallies every node."""
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


MAX = sys.float_info.max
edge_weights = st.sampled_from([0.0, 1.0, 2.0]) | st.sampled_from([MAX, MAX / 2, MAX / 3])


@st.composite
def value_graphs(draw):
    """Graphs with isolated nodes and repeated edges.  Edge weights are
    non-negative, as ``build_value_graph`` makes them; drawn from a few
    values so that ties and zero tallies occur, and from values near the
    largest float so that sums overflow to infinity."""
    g = ValueGraph()
    names = [f"n{i}" for i in range(draw(st.integers(0, 60)))]  # sorted: n0, n1, n10, ...
    for name in names:
        g.add_node(name, "microservice")
    if len(names) > 1:
        ends = st.sampled_from(names)
        size = draw(st.integers(0, 3 * len(names)))  # lists drawn unsized stay short
        edges = st.lists(st.tuples(ends, ends, edge_weights), min_size=size, max_size=size)
        for a, b, weight in draw(edges):
            g.add_edge(a, b, weight)  # a repeated pair adds to its edge; a loop adds nothing
    return g


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(value_graphs())
def test_cluster_graph_matches_the_reference(g):
    for seed in range(8):
        assert cluster_graph(g, seed) == reference_cluster_graph(g, seed)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cluster_graph_matches_the_reference_on_fixtures(name):
    g = build_value_graph(load_fixture_repo(name))
    for seed in range(8):
        assert cluster_graph(g, seed) == reference_cluster_graph(g, seed)


def two_cliques():
    """Two triangles joined by one light edge, c-x."""
    g = ValueGraph()
    clique(g, ["a", "b", "c"])
    clique(g, ["x", "y", "z"])
    g.add_edge("c", "x", 0.5)
    return g


GRAPH_CHANGES = {
    "edge": lambda g: (g.add_edge("a", "x", 3.0), g.add_edge("b", "y", 3.0)),
    "repeated-edge": lambda g: g.add_edge("x", "c", 9.5),
    "node": lambda g: g.add_node("d", "api"),
}


@pytest.mark.parametrize("change", GRAPH_CHANGES)
def test_a_graph_changed_after_clustering_is_clustered_as_changed(change):
    g = two_cliques()
    before = [cluster_graph(g, seed) for seed in range(4)]
    GRAPH_CHANGES[change](g)
    after = [cluster_graph(g, seed) for seed in range(4)]
    assert after == [reference_cluster_graph(g, seed) for seed in range(4)]
    assert after != before


def test_kept_adjacency_is_no_part_of_a_graphs_value():
    clustered, fresh = two_cliques(), two_cliques()
    cluster_graph(clustered, 0)
    assert clustered == fresh
    assert repr(clustered) == repr(fresh)


def _components(g):
    parent = {node: node for node in g.node_kinds}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b) in g.edge_weights:
        parent[find(a)] = find(b)
    return {node: find(node) for node in parent}


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_non_finite_view_weight_is_rejected(weight):
    repo = Repository()
    repo.add_entity(Entity("microservice", "cart"))
    with pytest.raises(ValueError):
        value_scores(repo, {"owner": weight})


def test_a_node_added_again_keeps_its_kind_or_is_refused():
    g = ValueGraph()
    g.add_node("a", "api")
    g.add_node("a", "api")
    with pytest.raises(ValueError) as raised:
        g.add_node("a", "concern")
    assert str(raised.value) == "node 'a' has kind 'api', not 'concern'"
    assert g.node_kinds == {"a": "api"}


def test_value_graph_adds_no_self_loop():
    g = ValueGraph()
    g.add_edge("a", "a")
    assert g.edge_weights == {}


@pytest.mark.parametrize("field_name", ["node_kinds", "edge_weights"])
def test_a_graph_starts_empty_and_fills_only_through_its_adders(field_name):
    with pytest.raises(TypeError):
        ValueGraph(**{field_name: {}})
    assert getattr(ValueGraph(), field_name) == {}


@pytest.mark.parametrize("ends", [("a", "b"), ("b", "a"), ("b", "c")])
def test_an_edge_to_a_missing_node_is_refused_naming_it(ends):
    g = ValueGraph()
    g.add_node("a", "api")
    with pytest.raises(ValueError) as raised:
        g.add_edge(*ends)
    for end in set(ends) - {"a"}:
        assert repr(end) in str(raised.value)
    assert g.edge_weights == {}
    assert cluster_graph(g) == [{"a"}]
    assert modularity(g, [{"a"}]) == 0.0


def orders_and_cart():
    repo = Repository()
    repo.add_entity(Entity("api", "orders"))
    repo.add_entity(Entity("microservice", "cart"))
    return repo


# Entries a hand edit can put past the adders, each with the end it leaves dangling.
DANGLING_ENDS = {
    "link-target": ("links", Link("exposes", "api.orders", "microservice.gone"), "microservice.gone"),
    "link-source": ("links", Link("exposes", "api.gone", "microservice.cart"), "api.gone"),
    "concern-ref": (
        "concerns", Concern("c", ViewCell(View.OWNER, I.HOW), entity_refs=["microservice.gone"]),
        "microservice.gone",
    ),
}


@pytest.mark.parametrize("case", DANGLING_ENDS)
def test_a_hand_edited_dangling_end_is_refused_naming_it(case):
    collection, item, end = DANGLING_ENDS[case]
    repo = orders_and_cart()
    getattr(repo, collection)[item.id] = item
    with pytest.raises(ValueError, match=repr(end)):
        build_value_graph(repo)


def reference_build_value_graph(repo):
    """``build_value_graph`` as it was when it re-added every concern ref
    and link end, guessing the kind of an end the repository does not hold."""
    g = ValueGraph()
    for eid, e in repo.entities.items():
        g.add_node(eid, e.kind)
    groups = {view: [group_id(group) for group in view.stakeholder_groups] for view in View}
    for c in repo.concerns.values():
        g.add_node(c.id, "concern")
        for ref in c.entity_refs:
            g.add_node(ref, repo.entities[ref].kind if ref in repo.entities else "entity")
            g.add_edge(c.id, ref, 1.0)
        for gid in groups[c.cell.view]:
            g.add_node(gid, "stakeholder_group")
            g.add_edge(c.id, gid, 1.0)
    for l in repo.links.values():
        g.add_node(l.source, repo.entities[l.source].kind if l.source in repo.entities else "entity")
        target_kind = repo.entities[l.target].kind if l.target in repo.entities else "concern"
        g.add_node(l.target, target_kind)
        g.add_edge(l.source, l.target, l.weight)
    return g


def assert_same_graph(got, want):
    """The same nodes and kinds, and the same edges and weights, each in the
    same order: edge order fixes every neighbour list, and so the partitions."""
    assert list(got.node_kinds.items()) == list(want.node_kinds.items())
    assert list(got.edge_weights.items()) == list(want.edge_weights.items())


class TestValueGraphMatchesTheReference:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_on_fixtures(self, name):
        repo = load_fixture_repo(name)
        assert_same_graph(build_value_graph(repo), reference_build_value_graph(repo))

    def test_on_random_repositories(self):
        rng = random.Random(17)
        for _ in range(200):
            repo = random_repository(rng, link_weights=ORDER_SENSITIVE)
            assert_same_graph(build_value_graph(repo), reference_build_value_graph(repo))

    @hypothesis_warning_filter
    @PROPERTY_SETTINGS
    @given(repositories())
    def test_on_repositories_with_every_link_kind(self, repo):
        assert_same_graph(build_value_graph(repo), reference_build_value_graph(repo))


def networkx_modularity(g, clusters):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(g.node_kinds)
    graph.add_weighted_edges_from((a, b, w) for (a, b), w in g.edge_weights.items())
    return nx.algorithms.community.modularity(graph, clusters)


class TestModularity:
    def test_two_cliques_joined_by_one_edge(self):
        g = ValueGraph()
        clique(g, ["a", "b", "c"])
        clique(g, ["x", "y", "z"], weight=2.0)
        g.add_edge("c", "x", 0.5)
        for clusters in ([{"a", "b", "c"}, {"x", "y", "z"}], [set(g.nodes)], [{n} for n in g.nodes]):
            assert modularity(g, clusters) == pytest.approx(networkx_modularity(g, clusters))
        # m = 3 + 6 + 0.5; Q = 3/9.5 - (6.5/19)^2 + 6/9.5 - (12.5/19)^2
        assert modularity(g, [{"a", "b", "c"}, {"x", "y", "z"}]) == pytest.approx(
            9 / 9.5 - (6.5 / 19) ** 2 - (12.5 / 19) ** 2
        )

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_networkx_on_fixtures(self, name):
        g = build_value_graph(load_fixture_repo(name))
        for seed in range(3):
            clusters = cluster_graph(g, seed)
            assert modularity(g, clusters) == pytest.approx(networkx_modularity(g, clusters))

    def test_no_edge_weight_is_zero(self):
        g = ValueGraph()
        clique(g, ["a", "b"], weight=0.0)
        g.add_node("c", "api")
        assert modularity(g, [{"a", "b"}, {"c"}]) == 0.0
        assert modularity(ValueGraph(), []) == 0.0

    def test_weights_near_the_largest_float(self):
        g = ValueGraph()
        clique(g, ["a", "b"], weight=MAX)
        clique(g, ["c", "d"], weight=MAX)
        assert modularity(g, [{"a", "b"}, {"c", "d"}]) == 0.5

    @pytest.mark.parametrize("clusters", [[{"a"}], [{"a", "b"}, {"b"}], [{"a", "b", "c"}]])
    def test_clusters_that_do_not_partition_are_rejected(self, clusters):
        g = ValueGraph()
        clique(g, ["a", "b"])
        with pytest.raises(ValueError, match="partition"):
            modularity(g, clusters)
