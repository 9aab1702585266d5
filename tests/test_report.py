import json

from w6hea.analysis import ValueGraph, build_value_graph, coverage_matrix, value_scores
from w6hea.model import Repository
from w6hea.report import (
    export_findings_json,
    export_graph_dot,
    export_scores_json,
    render_matrix,
)
from w6hea.validation import Finding, validate


class TestMatrix:
    def test_empty_matrix_all_cells_empty(self):
        text = render_matrix(coverage_matrix(Repository()))
        assert text.count("empty (0)") == 29
        assert "Coverage: 0/29" in text

    def test_header_labels(self):
        text = render_matrix(coverage_matrix(Repository()))
        header = text.splitlines()[0]
        for label in (
            "People (who)",
            "Data (what)",
            "Selection (which)",
            "Network (where)",
            "Function (How)",
            "Motivation (Why)",
            "Time (when)",
        ):
            assert label in header

    def test_view_rows_present(self, compliant_repo):
        text = render_matrix(coverage_matrix(compliant_repo))
        assert "Scope (Ballpark View)" in text
        assert "Detailed Representations (Consumer's View)" in text
        assert "Coverage: 4/29" in text

    def test_deterministic(self, compliant_repo):
        matrix = coverage_matrix(compliant_repo)
        assert render_matrix(matrix) == render_matrix(matrix)
        assert "generated" not in render_matrix(matrix)


class TestFindingsJson:
    def test_empty_list(self):
        assert json.loads(export_findings_json([])) == []

    def test_one_finding_has_all_keys(self):
        finding = Finding("MOTIVATION_MISSING", "error", "api.orders", "msg")
        data = json.loads(export_findings_json([finding]))
        assert data == [
            {
                "rule_id": "MOTIVATION_MISSING",
                "severity": "error",
                "subject": "api.orders",
                "message": "msg",
            }
        ]

    def test_sort_is_input_order_independent(self):
        a = Finding("B_RULE", "error", "x", "m")
        b = Finding("A_RULE", "error", "y", "m")
        assert export_findings_json([a, b]) == export_findings_json([b, a])

    def test_round_trips_through_json(self, violations_repo):
        text = export_findings_json(validate(violations_repo))
        assert isinstance(json.loads(text), list)


class TestDot:
    def test_empty_graph(self):
        text = export_graph_dot(ValueGraph())
        assert text == "graph value_graph {\n}\n"

    def test_statement_counts(self):
        g = ValueGraph()
        for name in ("a", "b", "c"):
            g.add_node(name, "microservice")
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 2.5)
        text = export_graph_dot(g)
        assert text.count("[shape=") == 3
        assert text.count(" -- ") == 2
        assert "weight=2.5" in text

    def test_shapes_encode_kind(self):
        g = ValueGraph()
        g.add_node("microservice.cart", "microservice")
        g.add_node("api.orders", "api")
        text = export_graph_dot(g)
        assert '"microservice.cart" [shape=box];' in text
        assert '"api.orders" [shape=hexagon];' in text

    def test_deterministic(self, compliant_repo):
        g = build_value_graph(compliant_repo)
        assert export_graph_dot(g) == export_graph_dot(g)


def test_scores_json_sorted(compliant_repo):
    text = export_scores_json(value_scores(compliant_repo))
    data = json.loads(text)
    assert list(data) == sorted(data)
