from w6hea.model import Interrogative, View, ViewCell
from w6hea.repofmt import SourceDocument, parse_repository, serialize_repository


def parse_text(text, path="repo.ea.yaml"):
    return parse_repository([SourceDocument(path=path, text=text)])


def test_single_entity_parses_clean():
    repo, diagnostics = parse_text(
        "entities:\n  - kind: microservice\n    name: cart\n"
    )
    assert diagnostics == []
    assert list(repo.entities) == ["microservice.cart"]


def test_paper_table_fixture(paper_table_repo):
    apis = paper_table_repo.entities_of_kind("api")
    assert len(apis) == 3
    by_name = {a.name: a.attributes["methods"] for a in apis}
    assert by_name["api-1"] == [
        {"verb": "get", "design_tech": "OpenAPI", "status_code": 300},
        {"verb": "post", "design_tech": "OpenAPI", "status_code": 300},
    ]
    assert by_name["api-2"] == [
        {"verb": "delete", "design_tech": "RAML", "status_code": 201}
    ]
    assert by_name["api-n"] == [
        {"verb": "update", "design_tech": "Swagger", "status_code": 200}
    ]


def test_dangling_concern_ref_reports_id_and_line():
    text = (
        "concerns:\n"
        "  - id: c1\n"
        "    view: scope\n"
        "    interrogative: why\n"
        "    entity_refs: [api.ghost]\n"
    )
    repo, diagnostics = parse_text(text)
    assert repo is None
    errors = [d for d in diagnostics if d.severity == "error"]
    assert len(errors) == 1
    assert "api.ghost" in errors[0].message
    assert errors[0].location.line == 2
    assert errors[0].location.file == "repo.ea.yaml"


def test_malformed_yaml_is_a_diagnostic_not_a_crash():
    repo, diagnostics = parse_text("entities:\n  - kind: [unclosed\n")
    assert repo is None
    assert any(d.severity == "error" for d in diagnostics)
    assert all(d.location.line >= 1 for d in diagnostics)


def test_unknown_top_level_key_is_warning():
    repo, diagnostics = parse_text("extras:\n  - 1\n")
    assert repo is not None
    assert [d.severity for d in diagnostics] == ["warning"]


def test_invalid_cell_in_file():
    text = "concerns:\n  - id: c1\n    view: consumer\n    interrogative: who\n"
    repo, diagnostics = parse_text(text)
    assert repo is None
    assert any("merged" in d.message for d in diagnostics)


def test_cross_file_references():
    docs = [
        SourceDocument("a.ea.yaml", "entities:\n  - kind: microservice\n    name: cart\n"),
        SourceDocument(
            "b.ea.yaml",
            "concerns:\n"
            "  - id: c1\n"
            "    view: owner\n"
            "    interrogative: how\n"
            "    entity_refs: [microservice.cart]\n",
        ),
    ]
    repo, diagnostics = parse_repository(docs)
    assert diagnostics == []
    assert repo.concerns["c1"].cell == ViewCell(View.OWNER, Interrogative.HOW)


def test_file_order_does_not_matter():
    docs = [
        SourceDocument("a.ea.yaml", "entities:\n  - kind: microservice\n    name: cart\n"),
        SourceDocument("b.ea.yaml", "entities:\n  - kind: api\n    name: orders\n"),
    ]
    fwd, _ = parse_repository(docs)
    rev, _ = parse_repository(list(reversed(docs)))
    assert fwd == rev
    assert serialize_repository(fwd) == serialize_repository(rev)


def test_duplicate_ids_across_files_are_errors():
    text = "entities:\n  - kind: microservice\n    name: cart\n"
    repo, diagnostics = parse_repository(
        [SourceDocument("a.ea.yaml", text), SourceDocument("b.ea.yaml", text)]
    )
    assert repo is None
    assert any("already exists" in d.message for d in diagnostics)


def test_json_is_accepted():
    text = '{"entities": [{"kind": "microservice", "name": "cart"}]}'
    repo, diagnostics = parse_repository([SourceDocument("r.ea.json", text)])
    assert diagnostics == []
    assert "microservice.cart" in repo.entities


class TestRoundTrip:
    def test_empty_repository(self):
        from w6hea.model import Repository

        text = serialize_repository(Repository())
        repo, diagnostics = parse_text(text)
        assert diagnostics == []
        assert repo == Repository()

    def test_round_trip_is_value_identical(self, compliant_repo):
        text = serialize_repository(compliant_repo)
        reparsed, diagnostics = parse_text(text)
        assert diagnostics == []
        assert reparsed == compliant_repo

    def test_second_serialization_is_byte_identical(self, paper_table_repo):
        once = serialize_repository(paper_table_repo)
        reparsed, _ = parse_text(once)
        assert serialize_repository(reparsed) == once

    def test_equal_values_serialize_identically(self, compliant_repo):
        import copy

        assert serialize_repository(copy.deepcopy(compliant_repo)) == serialize_repository(
            compliant_repo
        )


def test_meta_first_file_wins():
    first = SourceDocument("a.ea.yaml", "meta:\n  name: first\n")
    second = SourceDocument("b.ea.yaml", "meta:\n  name: second\n")
    repo, diagnostics = parse_repository([first, second])
    assert diagnostics == []
    assert repo.name == "first"


def test_unknown_attribute_is_a_located_warning():
    text = (
        "entities:\n"
        "  - kind: api\n"
        "    name: orders\n"
        "  - kind: microservice\n"
        "    name: cart\n"
        "    attributes: {colour: red}\n"
    )
    repo, diagnostics = parse_text(text)
    assert "microservice.cart" in repo.entities
    assert [str(d) for d in diagnostics] == [
        "repo.ea.yaml:4:5: warning: entity 'microservice.cart': attribute "
        "'colour' is not in the 'microservice' vocabulary"
    ]
