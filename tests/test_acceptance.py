"""Acceptance suite: one test per criterion, each printing a PASS line when it
holds (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import json
import random
import time

import pytest

from w6hea.analysis import (
    ValueGraph,
    cluster_graph,
    coverage_matrix,
    retirement_candidates,
    value_scores,
)
from w6hea.ingest import ingest_k8s, ingest_openapi, merge_proposal
from w6hea.model import (
    Concern,
    Entity,
    Interrogative,
    Repository,
    View,
    ViewCell,
    cells,
    interrogative_order,
    prerequisites,
)
from w6hea.repofmt import SourceDocument, parse_repository, serialize_repository
from w6hea.report import export_findings_json, export_graph_dot, render_matrix
from w6hea.validation import check_precedence, validate

from conftest import fixture_path, invoke, load_fixture_repo
from test_analysis import _components, brute_force_scores, clique, random_repository

I = Interrogative


def ok(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_canonical_ordering():
    start = time.perf_counter()
    order = interrogative_order()
    elapsed = time.perf_counter() - start
    assert order == [I.WHO, I.WHAT, I.WHICH, I.WHERE, I.HOW, I.WHY, I.WHEN]
    for i in order:
        for alternative in prerequisites(i):
            assert all(order.index(p) < order.index(i) for p in alternative)
    assert elapsed < 0.001
    ok(1, f"canonical ordering who..when, topological, in {elapsed * 1e6:.0f}us")


def test_criterion_2_precedence_formulas():
    start = time.perf_counter()
    assert prerequisites(I.HOW) == [
        frozenset({I.WHAT, I.WHICH}),
        frozenset({I.WHAT, I.WHERE}),
    ]
    assert prerequisites(I.WHY) == [frozenset({I.WHAT, I.HOW})]
    assert prerequisites(I.WHEN) == [frozenset({I.WHERE, I.HOW})]

    lone = Repository()
    lone.add_concern(Concern("c1", ViewCell(View.SCOPE, I.HOW)))
    assert [f.subject for f in check_precedence(lone)] == ["scope/how"]

    satisfied = Repository()
    satisfied.add_concern(Concern("c1", ViewCell(View.SCOPE, I.HOW)))
    satisfied.add_concern(Concern("c2", ViewCell(View.SCOPE, I.WHAT)))
    satisfied.add_concern(Concern("c3", ViewCell(View.SCOPE, I.WHERE)))
    assert check_precedence(satisfied) == []
    assert time.perf_counter() - start < 1.0
    ok(2, "header formulas reproduced; precedence check flags/passes correctly")


def test_criterion_3_cell_geometry():
    grid = cells()
    assert len(grid) == 29
    assert len(set(grid)) == 29
    assert coverage_matrix(Repository()).occupied == 0

    full = Repository()
    full.add_entity(Entity("microservice", "cart"))
    for idx, cell in enumerate(grid):
        full.add_concern(Concern(f"c{idx}", cell, "s", entity_refs=["microservice.cart"]))
    assert coverage_matrix(full).occupied == 29
    ok(3, "29 unique cells; coverage 0/29 empty and 29/29 full")


def test_criterion_4_paper_table_fidelity():
    repo = load_fixture_repo("paper_api_table.ea.yaml")
    apis = {a.name: a.attributes["methods"] for a in repo.entities_of_kind("api")}
    assert len(apis) == 3
    assert [(m["verb"], m["design_tech"], m["status_code"]) for m in apis["api-1"]] == [
        ("get", "OpenAPI", 300),
        ("post", "OpenAPI", 300),
    ]
    assert [(m["verb"], m["design_tech"], m["status_code"]) for m in apis["api-2"]] == [
        ("delete", "RAML", 201)
    ]
    assert [(m["verb"], m["design_tech"], m["status_code"]) for m in apis["api-n"]] == [
        ("update", "Swagger", 200)
    ]
    once = serialize_repository(repo)
    reparsed, diagnostics = parse_repository([SourceDocument("canon.ea.yaml", once)])
    assert diagnostics == []
    assert reparsed == repo
    assert serialize_repository(reparsed) == once
    ok(4, "design-table fixture parses to 3 APIs; round-trip value- and byte-stable")


def test_criterion_5_rule_catalog():
    violations = load_fixture_repo("violations.ea.yaml")
    findings = validate(violations)
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule_id, []).append(f.subject)
    assert by_rule["DATA_OWNERSHIP"] == ["data_element.ledger"]
    assert by_rule["CATEGORY_EXPOSURE"] == ["microservice.billing"]
    assert sorted(by_rule["MOTIVATION_MISSING"]) == [
        "api.public-billing",
        "microservice.audit",
        "microservice.billing",
    ]
    assert validate(load_fixture_repo("compliant.ea.yaml")) == []

    assert invoke(["validate", fixture_path("compliant.ea.yaml")]).exit_code == 0
    assert invoke(["validate", fixture_path("violations.ea.yaml")]).exit_code == 1
    assert invoke(["validate", fixture_path("malformed.ea.yaml")]).exit_code == 2
    ok(5, "rules fire on intended subjects only; exit codes 0/1/2 honored")


def test_criterion_6_scoring_oracle():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(100):
        repo = random_repository(rng)
        assert len(repo.entities) <= 10
        got = value_scores(repo)
        want = brute_force_scores(repo)
        assert got.keys() == want.keys()
        for eid in got:
            assert got[eid] == pytest.approx(want[eid], abs=1e-9)
        threshold = rng.choice([0.5, 1.0, 2.0, 5.0])
        expected = sorted(
            ((eid, s) for eid, s in want.items() if s < threshold),
            key=lambda pair: (pair[1], pair[0]),
        )
        assert retirement_candidates(repo, threshold) == [
            (eid, pytest.approx(s, abs=1e-9)) for eid, s in expected
        ]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(6, f"scores match brute force on 100 random repositories in {elapsed:.2f}s")


def test_criterion_7_clustering_properties():
    rng = random.Random(99)
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
        seen = [node for cluster in clusters for node in cluster]
        assert sorted(seen) == sorted(names)
        component = _components(g)
        for cluster in clusters:
            assert len({component[node] for node in cluster}) == 1
        assert cluster_graph(g, seed=trial) == clusters

    two = ValueGraph()
    clique(two, ["a", "b", "c"])
    clique(two, ["x", "y", "z"])
    assert cluster_graph(two, seed=0) == [{"a", "b", "c"}, {"x", "y", "z"}]
    ok(7, "partitions refine components; seeded determinism; 2 cliques -> 2 clusters")


def test_criterion_8_ingestion_counts():
    proposal, _ = ingest_openapi(SourceDocument.read(fixture_path("petstore.openapi.yaml")))
    records = [m for api in proposal.entities for m in api.attributes["methods"]]
    assert len(records) == 3

    repo = load_fixture_repo("compliant.ea.yaml")
    k8s_proposal, _ = ingest_k8s(SourceDocument.read(fixture_path("cart.k8s.yaml")), repo)
    targets = [e for e in k8s_proposal.entities if e.kind == "deployment_target"]
    assert len(targets) == 1
    assert targets[0].attributes["replicas"] == 3

    for strategy in ("add_only", "overwrite_attributes"):
        once, _ = merge_proposal(repo, k8s_proposal, strategy)
        twice, _ = merge_proposal(once, k8s_proposal, strategy)
        assert once == twice
    ok(8, "3 method records; replicas=3 target; merge idempotent both strategies")


def test_criterion_9_report_determinism():
    repo = load_fixture_repo("violations.ea.yaml")
    matrix_a = render_matrix(coverage_matrix(repo))
    matrix_b = render_matrix(coverage_matrix(repo))
    findings_a = export_findings_json(validate(repo))
    findings_b = export_findings_json(validate(repo))
    assert matrix_a.encode() == matrix_b.encode()
    assert findings_a.encode() == findings_b.encode()
    json.loads(findings_a)

    g = ValueGraph()
    for name in ("a", "b", "c"):
        g.add_node(name, "microservice")
    g.add_edge("a", "b")
    g.add_edge("b", "c", 2.5)
    dot = export_graph_dot(g)
    assert dot.encode() == export_graph_dot(g).encode()
    assert dot.count("[shape=") == 3
    assert dot.count(" -- ") == 2
    ok(9, "matrix/findings/DOT byte-identical; DOT statement counts match")
