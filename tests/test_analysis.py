import random

import pytest

from w6hea.analysis import (
    UnknownView,
    ValueGraph,
    build_value_graph,
    cluster_graph,
    coverage_matrix,
    elicitation_plan,
    retirement_candidates,
    reuse_candidates,
    value_scores,
)
from w6hea.model import (
    Concern,
    Entity,
    Interrogative,
    Link,
    Repository,
    View,
    ViewCell,
    cells,
)

I = Interrogative


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


def random_repository(rng):
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
            repo.add_link(Link("exposes", aid, target, weight=rng.choice([0.5, 1.0, 2.0])))
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
            repo.add_link(Link("motivated_by", eid, target, weight=rng.choice([1.0, 3.0])))
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
        matrix = coverage_matrix(repo).by_cell()
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
        order = [
            (p.view.rank, p.interrogative.rank if p.interrogative else 0)
            for p in plan.prompts
        ]
        expected = [(v, i) for v in range(1, 5) for i in range(1, 8)] + [(5, 0)]
        assert order == expected

    def test_consumer_view_single_prompt(self):
        plan = elicitation_plan(Repository(), View.CONSUMER)
        assert len(plan.prompts) == 1
        assert "SDK" in plan.prompts[0].question


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
        with pytest.raises(UnknownView):
            value_scores(Repository(), {"sponsor": 1.0})

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


class TestRetirement:
    def test_zero_score_below_threshold(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        assert retirement_candidates(repo, 1.0) == [("microservice.idle", 0.0)]

    def test_threshold_zero_is_strict(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "idle"))
        assert retirement_candidates(repo, 0.0) == []

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
