import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from test_ingest_properties import PROPERTY_SETTINGS, yaml_values
from test_ingest_properties import pytestmark as hypothesis_warning_filter
from w6hea.model import Entity, Interrogative, Repository, View, ViewCell
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


ENTITY = "entities:\n  - kind: microservice\n    name: cart\n"

# YAML the constructor cannot turn into values is a located error at the
# expected line, never a traceback; a `<<` merge key expands to the expected
# entities, and explicit keys override merged ones.
YAML_VALUE_CASES = [
    pytest.param(ENTITY + "    attributes: {released: 2024-02-30}\n", 4, id="invalid-date"),
    pytest.param(
        ENTITY + "    attributes: {released: !!timestamp 2020-99-99}\n", 4, id="timestamp-tag"
    ),
    pytest.param(ENTITY + "    attributes: {replicas: !!int x}\n", 4, id="int-tag"),
    pytest.param("entities:\n  - kind: microservice\n    name: !foo x\n", 3, id="unknown-tag"),
    pytest.param(ENTITY + "    ? [a]\n    : 1\n", 4, id="sequence-key"),
    pytest.param("meta:\n  name: shop\n  ? [a]\n  : 1\n", 3, id="sequence-key-in-meta"),
    pytest.param(
        ENTITY + "    attributes: {? [a] : 1}\n", 4, id="sequence-key-in-attributes"
    ),
    pytest.param(
        "entities:\n"
        "  - &base {kind: microservice, name: cart, attributes: {category: system}}\n"
        "  - <<: *base\n"
        "    name: orders\n",
        {
            "microservice.cart": {"category": "system"},
            "microservice.orders": {"category": "system"},
        },
        id="merge-key",
    ),
    pytest.param("entities: " + "[" * 3000 + "]" * 3000 + "\n", 1, id="deep-nesting"),
    pytest.param(ENTITY + "    attributes: &a {self: *a}\n", 4, id="alias-cycle"),
    pytest.param(ENTITY + '    attributes: {note: "\ud800"}\n', 1, id="lone-surrogate"),
    pytest.param(
        ENTITY
        + "    attributes:\n      a0: &a0 [x, x, x, x, x, x, x, x, x, x]\n"
        + "".join(f"      a{i}: &a{i} [{', '.join([f'*a{i - 1}'] * 10)}]\n" for i in range(1, 6)),
        9,  # where the aliases pass 100,000 values
        id="alias-bomb",
    ),
]


@pytest.mark.parametrize("text, expected", YAML_VALUE_CASES)
def test_unconstructable_yaml_is_a_located_error(text, expected):
    repo, diagnostics = parse_text(text)
    if isinstance(expected, dict):
        assert diagnostics == []
        assert {eid: e.attributes for eid, e in repo.entities.items()} == expected
    else:
        assert repo is None
        assert [(d.severity, d.location.file, d.location.line) for d in diagnostics] == [
            ("error", "repo.ea.yaml", expected)
        ]
        assert diagnostics[0].message.startswith("invalid YAML: ")


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param(ENTITY + "    name: orders\n", 4, id="declaration"),
        pytest.param("meta:\n  name: a\n  version: '1'\n  name: b\n", 4, id="meta"),
        pytest.param(
            ENTITY + "    attributes:\n      category: system\n      category: presentation\n",
            6,
            id="attributes",
        ),
        pytest.param("meta: {name: a}\n" + ENTITY + "meta: {name: b}\n", 5, id="top-level"),
    ],
)
def test_duplicate_key_is_a_located_error(text, line):
    repo, diagnostics = parse_text(text)
    assert repo is None
    assert [(d.severity, d.location.line) for d in diagnostics] == [("error", line)]
    assert "duplicate key" in diagnostics[0].message


def test_failed_declaration_leaves_no_constructor_state():
    # The first declaration fails while a nested mapping of it is still
    # pending; the second must not inherit that pending work.
    text = (
        "entities:\n"
        "  - kind: microservice\n"
        "    name: cart\n"
        "    attributes: {p: {q: !!int x}, r: 2024-02-30}\n"
        "  - kind: microservice\n"
        "    name: orders\n"
    )
    repo, diagnostics = parse_text(text)
    assert repo is None
    assert [(d.severity, d.location.line) for d in diagnostics] == [("error", 4)]


def test_entities_built_from_one_anchor_are_independent():
    text = (
        "entities:\n"
        "  - {kind: microservice, name: cart, attributes: &t {category: system}}\n"
        "  - {kind: microservice, name: orders, attributes: *t}\n"
    )
    repo, diagnostics = parse_text(text)
    assert diagnostics == []
    cart, orders = repo.entities["microservice.cart"], repo.entities["microservice.orders"]
    assert cart.attributes == orders.attributes
    assert cart.attributes is not orders.attributes


def test_canonical_output_has_no_anchors():
    aliased = (
        "entities:\n"
        "  - kind: microservice\n"
        "    name: cart\n"
        "    attributes: {tech_stack: &stack [python, kafka]}\n"
        "  - kind: microservice\n"
        "    name: orders\n"
        "    attributes: {tech_stack: *stack}\n"
        "  - kind: api\n"
        "    name: orders\n"
        "    attributes:\n"
        "      methods:\n"
        "        - &get {verb: get, design_tech: OpenAPI, status_code: 200}\n"
        "        - *get\n"
    )
    alias_free = (
        "entities:\n"
        "  - kind: microservice\n"
        "    name: cart\n"
        "    attributes: {tech_stack: [python, kafka]}\n"
        "  - kind: microservice\n"
        "    name: orders\n"
        "    attributes: {tech_stack: [python, kafka]}\n"
        "  - kind: api\n"
        "    name: orders\n"
        "    attributes:\n"
        "      methods:\n"
        "        - {verb: get, design_tech: OpenAPI, status_code: 200}\n"
        "        - {verb: get, design_tech: OpenAPI, status_code: 200}\n"
    )
    canonical = serialize_repository(parse_text(alias_free)[0])
    assert serialize_repository(parse_text(aliased)[0]) == canonical
    assert "&" not in canonical and "*" not in canonical


# Flow-style YAML fragments: well-formed values, and text YAML cannot
# construct, compose or even scan.
RAW_VALUES = [
    "2024-02-30",
    "!!timestamp 2020-99-99",
    "!!timestamp x",
    "!!int x",
    "!!float ''",
    "!!bool x",
    "!foo x",
    "!!set x",
    "{? [a] : 1}",
    "&a [1]",
    "*a",
    "*missing",
    "[",
    "'",
    "nan",
    "1e999",
]


def flow(value) -> str:
    return yaml.safe_dump(value, default_flow_style=True, width=float("inf")).removesuffix(
        "\n...\n"
    ).strip()


fragments = st.sampled_from(RAW_VALUES) | yaml_values.map(flow)
field_names = st.sampled_from(
    ["kind", "name", "attributes", "source", "target", "weight", "id", "view"]
    + ["interrogative", "statement", "entity_refs", "records", "<<", "[a]", "'x'"]
)
declarations = st.lists(st.tuples(field_names, fragments), max_size=5).map(
    lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
)
sections = st.sampled_from(["meta", "entities", "links", "concerns", "other", "[a]"])


def render(section, value) -> str:
    """One top-level key: a list becomes a block sequence, else a flow value."""
    if isinstance(value, list):
        return f"{section}:\n" + "".join(f"  - {item}\n" for item in value)
    return f"{section}: {value}\n"


repository_texts = st.lists(
    st.tuples(sections, st.lists(declarations | fragments, max_size=3) | declarations | fragments),
    max_size=4,
).map(lambda parts: "".join(render(*part) for part in parts))


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(repository_texts)
def test_parse_repository_never_raises(text):
    repo, diagnostics = parse_text(text)
    assert (repo is None) == any(d.severity == "error" for d in diagnostics)


NESTING_LIMIT = 100  # collections one document may nest, as docs/format.md says


def nested_entity(depth: int) -> str:
    """One entity whose attributes hold lists nested so deep that the
    document's deepest collection is at ``depth`` (the top-level mapping is 1)."""
    lists = "[" * (depth - 4) + "]" * (depth - 4)
    return f"entities:\n  - kind: microservice\n    name: cart\n    attributes: {{tech_stack: {lists}}}\n"


def at_stack_depth(frames: int, call):
    """``call()`` made ``frames`` stack frames below the caller."""
    return call() if frames == 0 else at_stack_depth(frames - 1, call)


@pytest.mark.parametrize("depth", [NESTING_LIMIT, NESTING_LIMIT + 1, 200])
def test_nesting_verdict_does_not_depend_on_the_call_stack(depth):
    def verdict():
        repo, diagnostics = parse_text(nested_entity(depth))
        return repo is None, [str(d) for d in diagnostics]

    assert at_stack_depth(400, verdict) == verdict()


def test_value_at_the_nesting_bound_round_trips_deep_in_the_stack():
    def round_trip():
        repo, diagnostics = parse_text(nested_entity(NESTING_LIMIT))
        assert diagnostics == []
        text = serialize_repository(repo)
        assert parse_text(text) == (repo, [])
        return text

    assert at_stack_depth(400, round_trip) == round_trip()


def test_one_level_past_the_nesting_bound_is_a_located_error():
    repo, diagnostics = parse_text(nested_entity(NESTING_LIMIT + 1))
    assert repo is None
    # "    attributes: {tech_stack: " is 29 characters; the 97th list opens level 101.
    assert [(d.severity, str(d.location)) for d in diagnostics] == [
        ("error", "repo.ea.yaml:4:126")
    ]
    assert diagnostics[0].message.startswith("invalid YAML: nesting too deep")


@pytest.mark.parametrize("past", [0, 1], ids=["at-bound", "past-bound"])
def test_alias_that_would_be_written_past_the_nesting_bound_is_a_located_error(past):
    # The anchored lists sit one level down; under attributes they sit four.
    lists = NESTING_LIMIT - 4 + past
    anchor = "x: &deep " + "[" * lists + "]" * lists + "\n"
    text = anchor + ENTITY + "    attributes: {tech_stack: *deep}\n"
    repo, diagnostics = parse_text(text)
    warning = "repo.ea.yaml:1:1: warning: unknown top-level key 'x' ignored"
    if past:
        assert repo is None
        assert [str(d) for d in diagnostics] == [
            warning,
            "repo.ea.yaml:3:5: error: "
            "entity 'microservice.cart': attributes nest more than 97 deep",
        ]
    else:
        assert [str(d) for d in diagnostics] == [warning]
        assert parse_text(serialize_repository(repo)) == (repo, [])


def test_meta_name_is_text_and_reads_back():
    lists = NESTING_LIMIT - 1  # one level down; the name itself would be two
    repo, _ = parse_text("x: &deep " + "[" * lists + "]" * lists + "\nmeta: {name: *deep}\n")
    assert repo.name == "[" * lists + "]" * lists
    assert parse_text(serialize_repository(repo)) == (repo, [])


def test_next_line_character_round_trips():
    # U+0085 is a YAML line break: written raw inside quotes it reads back as a space.
    repo = Repository(name="shop\x85", version="1")
    repo.add_entity(Entity("microservice", "cart", {"tech_stack": ["a\x85b", "\x85"]}))
    text = serialize_repository(repo)
    assert parse_text(text) == (repo, [])
