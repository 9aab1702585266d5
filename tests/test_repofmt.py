import sys

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from test_ingest_properties import PROPERTY_SETTINGS, yaml_values
from test_ingest_properties import pytestmark as hypothesis_warning_filter
from w6hea.model import FIELD_NESTING_LIMIT, Entity, Interrogative, Repository, View, ViewCell, value_fault
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


def test_a_character_the_reader_refuses_is_one_line_naming_its_offset():
    text = 'entities:\n  - {kind: api, name: a, attributes: {note: "\ud800"}}\n'
    assert [str(d) for d in parse_text(text)[1]] == [
        "repo.ea.yaml:1:1: error: invalid YAML: "
        f"unacceptable character #xd800: special characters are not allowed (position {text.index(chr(0xD800))})"
    ]


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


JSON_NUMBERS = (
    '{"entities": [{"kind": "microservice", "name": "cart", "attributes": '
    '{"tech_stack": [1E+2, 2e-3, 2.5e3, -5E0, 1.0E+2, 7, "1e3"]}}]}'
)


def test_json_numbers_with_an_exponent_read_as_numbers():
    repo, diagnostics = parse_repository([SourceDocument("r.ea.json", JSON_NUMBERS)])
    assert diagnostics == []
    values = repo.entities["microservice.cart"].attributes["tech_stack"]
    assert values == [100.0, 0.002, 2500.0, -5.0, 100.0, 7, "1e3"]
    assert [type(v) for v in values] == [float] * 5 + [int, str]


def test_yaml_numbers_with_an_exponent_and_no_dot_read_as_text():
    repo, diagnostics = parse_text(JSON_NUMBERS)  # the same text in a .ea.yaml file
    assert diagnostics == []
    values = repo.entities["microservice.cart"].attributes["tech_stack"]
    assert values == ["1E+2", "2e-3", "2.5e3", "-5E0", 100.0, 7, "1e3"]


@pytest.mark.parametrize("path", ["r.ea.json", "r.ea.yaml"])
def test_canonical_text_reads_back_under_either_number_rule(path):
    # fmt --write puts the canonical text in the file it read, .ea.json too.
    repo, _ = parse_repository([SourceDocument(path, JSON_NUMBERS)])
    text = serialize_repository(repo)
    for written in ("r.ea.json", "r.ea.yaml"):
        assert parse_repository([SourceDocument(written, text)]) == (repo, [])


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
    pytest.param(  # PyYAML matches the mapping, not the "=" key's value, and raised TypeError
        ENTITY + "    attributes: {released: !!timestamp {=: x}}\n", 4, id="scalar-tag-over-value-key"
    ),
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


def test_a_merge_error_in_an_anchored_value_is_reported_wherever_it_is_used():
    # PyYAML's flatten_mapping deleted the failing merge key from the shared
    # node, so the second entity used to read {k: v} without an error.
    text = (
        "x: &a {<<: 1, k: v}\n"
        "entities:\n"
        "  - {kind: api, name: a, attributes: *a}\n"
        "  - {kind: api, name: b, attributes: *a}\n"
    )
    repo, diagnostics = parse_text(text)
    assert repo is None
    assert [(d.severity, str(d.location)) for d in diagnostics] == [
        ("warning", "repo.ea.yaml:1:1"), ("error", "repo.ea.yaml:1:12"), ("error", "repo.ea.yaml:1:12")
    ]
    assert "expected a mapping or list of mappings for merging" in diagnostics[1].message


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


def frames_left() -> int:
    """How many more frames the call stack takes before the recursion limit."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return sys.getrecursionlimit() - depth


def test_value_at_the_field_bound_is_written_with_few_frames_left():
    tech_stack = []
    for _ in range(FIELD_NESTING_LIMIT - 2):
        tech_stack = [tech_stack]
    repo = Repository()
    repo.add_entity(Entity("microservice", "cart", {"tech_stack": tech_stack}))
    attributes = repo.entities["microservice.cart"].attributes
    assert value_fault(attributes, "attributes") is None
    assert value_fault([attributes], "attributes") == f"attributes nest more than {FIELD_NESTING_LIMIT} deep"
    text = at_stack_depth(frames_left() - 60, lambda: serialize_repository(repo))
    assert text == serialize_repository(repo)
    assert parse_text(text) == (repo, [])


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


def test_next_line_character_round_trips():
    # U+0085 is a YAML line break: written raw inside quotes it reads back as a space.
    repo = Repository(name="shop\x85", version="1")
    repo.add_entity(Entity("microservice", "cart", {"tech_stack": ["a\x85b", "\x85"]}))
    text = serialize_repository(repo)
    assert parse_text(text) == (repo, [])


CORE_ONLY = "error: invalid YAML: could not determine a constructor for the tag 'tag:yaml.org,2002:{}'"
UNHASHABLE = "error: invalid YAML: while constructing a mapping at {}, found unhashable key"


def tech_stack(value: str) -> str:
    """A repository whose one entity's ``tech_stack`` is ``value``, at column 63."""
    return f"entities:\n  - {{kind: microservice, name: cart, attributes: {{tech_stack: {value}}}}}\n"


# Ordered maps, pairs, sets, binary data and YAML's value key "=" (as a key or
# a value) are no repository values, and neither is a collection as a key, in
# the top-level mapping too: each is one located error.
REFUSALS = [
    pytest.param(tech_stack("!!omap [{a: 1}, {b: [2]}]"), "2:63: " + CORE_ONLY.format("omap"), id="omap"),
    pytest.param(tech_stack("!!pairs [{a: 1}, {a: 2}, {b: {c: 3}}]"), "2:63: " + CORE_ONLY.format("pairs"),
                 id="pairs"),
    pytest.param(tech_stack("!!pairs [{[x]: 1}, {? {k: v} : 2}, {'': !!omap [{z: 0}]}, {[]: {}}]"),
                 "2:63: " + CORE_ONLY.format("pairs"), id="pairs-with-collection-keys"),
    pytest.param(tech_stack("[!!omap [{a: 1}], [], !!pairs [{1: null}, {a: !!pairs [{b: c}]}]]"),
                 "2:64: " + CORE_ONLY.format("omap"), id="nested-omap-and-pairs"),
    pytest.param(tech_stack("!!set {a, b}"), "2:63: " + CORE_ONLY.format("set"), id="set"),
    pytest.param(tech_stack("!!binary aGk="), "2:63: " + CORE_ONLY.format("binary"), id="binary"),
    pytest.param(tech_stack("="), "2:63: " + CORE_ONLY.format("value"), id="value-key-as-a-value"),
    pytest.param(tech_stack("{=: 1}"), "2:64: " + CORE_ONLY.format("value"), id="value-key"),
    pytest.param(  # PyYAML read "=" and "!!value v" as text keys, and failed on "w: =" only
        "entities:\n  - {kind: api, name: a, attributes: {=: 1, !!value v: 2, w: =}}\n",
        "2:39: " + CORE_ONLY.format("value"), id="value-keys-and-value",
    ),
    pytest.param(  # PyYAML read the scalar under the "=" key, and failed there
        "entities:\n  - {kind: api, name: a, attributes: {s: !!str {=: [1]}}}\n",
        "2:42: error: invalid YAML: expected a scalar node, but found mapping", id="scalar-tag-over-value-key",
    ),
    pytest.param(ENTITY + "    attributes: {? [a] : 1}\n", "4:20: " + UNHASHABLE.format("4:17"),
                 id="collection-key"),
    pytest.param("? [meta]\n: {name: x}\n" + ENTITY, "1:3: " + UNHASHABLE.format("1:1"),
                 id="collection-key-at-the-top"),
]


@pytest.mark.parametrize("text, expected", REFUSALS)
def test_a_value_that_is_no_repository_value_is_refused(text, expected):
    repo, diagnostics = parse_text(text)
    assert (repo, [str(d) for d in diagnostics]) == (None, ["repo.ea.yaml:" + expected])


CONCERN = "concerns:\n  - id: c1\n    view: scope\n    interrogative: why\n"
DEEP = NESTING_LIMIT - 1  # one level down in meta; the name itself would be two

# One declaration the model cannot take: the exact diagnostic, located at the
# value of the key at fault (where an alias or a merge key copied it from, if
# one did), or at the declaration when no key is.
DECLARATION_ERRORS = [
    pytest.param("entities:\n  - name: cart\n", "2:5: error: entity requires 'kind' and 'name'",
                 id="entity-without-kind"),
    pytest.param("entities:\n  - kind: api\n", "2:5: error: entity requires 'kind' and 'name'",
                 id="entity-without-name"),
    pytest.param(ENTITY + "    attributes: [a]\n", "4:17: error: entity attributes must be a mapping",
                 id="attributes-not-a-mapping"),
    pytest.param("links:\n  - {kind: exposes, source: api.a}\n",
                 "2:5: error: link requires 'kind', 'source' and 'target'", id="link-without-target"),
    pytest.param("links:\n  - kind: exposes\n    source: api.a\n    target: microservice.b\n"
                 "    weight: heavy\n", "5:13: error: link weight must be a number, got 'heavy'",
                 id="weight-not-a-number"),
    pytest.param("links:\n  - kind: exposes\n    source: api.a\n    target: microservice.b\n"
                 "    weight: true\n", "5:13: error: link weight must be a number, got True",
                 id="weight-bool"),
    pytest.param("links:\n  - kind: exposes\n    source: api.a\n    target: microservice.b\n"
                 "    weight: !!binary MC41\n", "5:13: " + CORE_ONLY.format("binary"),
                 id="weight-binary"),
    pytest.param("concerns:\n  - view: scope\n", "2:5: error: concern requires 'id' and 'view'",
                 id="concern-without-id"),
    pytest.param("concerns:\n  - id: c1\n", "2:5: error: concern requires 'id' and 'view'",
                 id="concern-without-view"),
    pytest.param("concerns:\n  - id: c1\n    view: nowhere\n", "3:11: error: unknown view 'nowhere'",
                 id="unknown-view"),
    pytest.param(CONCERN.replace("why", "whom"), "4:20: error: unknown interrogative 'whom'",
                 id="unknown-interrogative"),
    pytest.param(CONCERN + "    entity_refs: api.orders\n",
                 "5:18: error: entity_refs must be a sequence", id="entity-refs-not-a-sequence"),
    pytest.param(CONCERN + "    records: {a: 1}\n", "5:14: error: records must be a sequence",
                 id="records-not-a-sequence"),
    pytest.param("- entities\n", "1:1: error: expected a mapping", id="top-level-sequence"),
    pytest.param("entities:\n  - [kind, name]\n", "2:5: error: expected a mapping",
                 id="declaration-not-a-mapping"),
    pytest.param("entities:\n  - {kind: widget, name: w}\n", "2:5: error: unknown entity kind 'widget'",
                 id="unknown-entity-kind"),
    pytest.param("links:\n  - {kind: calls, source: api.a, target: api.b}\n",
                 "2:5: error: unknown link kind 'calls'", id="unknown-link-kind"),
    pytest.param("entities:\n  - {kind: api, name: a}\n"
                 "links:\n  - {kind: exposes, source: api.a, target: api.a}\n",
                 "4:5: error: exposes target must be one of ('microservice',), got 'api' (api.a)",
                 id="link-target-kind"),
    pytest.param("entities:\n  - kind: microservice\n    name: [a, b]\n",
                 "3:11: error: name must be text, not a sequence", id="name-sequence"),
    pytest.param("entities:\n  - kind: {a: 1}\n    name: cart\n",
                 "2:11: error: kind must be text, not a mapping", id="kind-mapping"),
    pytest.param("links:\n  - {kind: [exposes], source: api.a, target: microservice.b}\n",
                 "2:12: error: kind must be text, not a sequence", id="link-kind-sequence"),
    pytest.param("links:\n  - {kind: exposes, source: [api.a], target: microservice.b}\n",
                 "2:29: error: source must be text, not a sequence", id="source-sequence"),
    pytest.param("links:\n  - {kind: exposes, source: api.a, target: {m: b}}\n",
                 "2:44: error: target must be text, not a mapping", id="target-mapping"),
    pytest.param("concerns:\n  - id: [c]\n    view: consumer\n",
                 "2:9: error: id must be text, not a sequence", id="id-sequence"),
    pytest.param(CONCERN + "    statement: {s: 1}\n",
                 "5:16: error: statement must be text, not a mapping", id="statement-mapping"),
    pytest.param(CONCERN + "    entity_refs: [[a]]\n",
                 "5:18: error: each entity_refs item must be text, not a sequence",
                 id="entity-ref-sequence"),
    pytest.param("meta:\n  name: [x]\n", "2:9: error: name must be text, not a sequence",
                 id="meta-name-sequence"),
    pytest.param("meta: {name: shop, version: {major: 1}}\n",
                 "1:29: error: version must be text, not a mapping", id="meta-version-mapping"),
    pytest.param("x: &deep " + "[" * DEEP + "]" * DEEP + "\nmeta: {name: *deep}\n",
                 "1:4: error: name must be text, not a sequence", id="meta-name-deep-alias"),
    # Binary data is no repository value: refused where it is written.
    pytest.param(ENTITY.replace("cart", "!!binary aGk="), "3:11: " + CORE_ONLY.format("binary"),
                 id="name-binary"),
    pytest.param("links:\n  - {kind: exposes, source: api.a, target: !!binary bQ==}\n",
                 "2:44: " + CORE_ONLY.format("binary"), id="target-binary"),
    pytest.param(CONCERN + "    statement: !!binary aGk=\n",
                 "5:16: " + CORE_ONLY.format("binary"), id="statement-binary"),
    pytest.param(CONCERN + "    entity_refs: [!!binary aGk=]\n",
                 "5:19: " + CORE_ONLY.format("binary"), id="entity-ref-binary"),
    pytest.param("meta: {name: shop, version: !!binary MQ==}\n",
                 "1:29: " + CORE_ONLY.format("binary"), id="meta-version-binary"),
    pytest.param("entities:\n  - <<: {kind: microservice, name: cart}\n    name: [a]\n",
                 "3:11: error: name must be text, not a sequence", id="explicit-key-after-merge"),
    pytest.param("entities:\n  - <<: {kind: microservice, name: [a]}\n    attributes: {}\n",
                 "2:36: error: name must be text, not a sequence", id="merged-key"),
]


@pytest.mark.parametrize("text, expected", DECLARATION_ERRORS)
def test_declaration_error_is_located_at_the_key_at_fault(text, expected):
    repo, diagnostics = parse_text(text)
    errors = [str(d) for d in diagnostics if d.severity == "error"]
    assert (repo, errors) == (None, ["repo.ea.yaml:" + expected])


def test_null_in_meta_reads_as_absent():
    repo, diagnostics = parse_text("meta: {name: null, version: null}\n")
    assert diagnostics == []
    assert (repo.name, repo.version) == ("repository", "0")
    first = SourceDocument("a.ea.yaml", "meta: {name: ~, version: '2'}\n")
    second = SourceDocument("b.ea.yaml", "meta: {name: shop, version: '3'}\n")
    repo, _ = parse_repository([first, second])
    assert (repo.name, repo.version) == ("shop", "2")


def test_scalar_text_fields_read_as_their_text():
    repo, diagnostics = parse_text(
        "meta: {name: 7, version: 1.5}\n"
        "entities:\n  - {kind: microservice, name: 42}\n"
        "concerns:\n  - {id: 3, view: consumer, statement: 2024-01-31, entity_refs: [microservice.42]}\n"
    )
    assert diagnostics == []
    assert (repo.name, repo.version, list(repo.entities)) == ("7", "1.5", ["microservice.42"])
    assert (repo.concerns["3"].statement, repo.concerns["3"].entity_refs) == (
        "2024-01-31", ["microservice.42"]
    )


def test_numeric_text_weight_reads_as_its_number():
    repo, diagnostics = parse_text(
        "entities:\n  - {kind: api, name: a}\n  - {kind: microservice, name: b}\n"
        "links:\n  - {kind: exposes, source: api.a, target: microservice.b, weight: '0.5'}\n"
    )
    assert diagnostics == []
    assert [l.weight for l in repo.links.values()] == [0.5]


def test_a_concern_cannot_take_an_entity_id():
    # Concerns are added after entities, so the concern is the one at fault;
    # the link's target then names the API, which motivated_by cannot point at.
    repo, diagnostics = parse_text(
        "entities:\n  - {kind: api, name: x}\n  - {kind: microservice, name: m}\n"
        "concerns:\n  - {id: api.x, view: scope, interrogative: why, entity_refs: [api.x]}\n"
        "links:\n  - {kind: motivated_by, source: microservice.m, target: api.x}\n"
    )
    assert repo is None
    assert [str(d) for d in diagnostics] == [
        "repo.ea.yaml:5:5: error: concern 'api.x': an entity already has this id",
        "repo.ea.yaml:7:5: error: motivated_by target must be one of ('concern',), got 'api' (api.x)",
    ]


def test_a_concern_cannot_take_a_stakeholder_group_id():
    repo, diagnostics = parse_text(
        "entities:\n  - {kind: microservice, name: m}\n"
        "concerns:\n  - {id: group.developers, view: scope, interrogative: why}\n"
        "  - {id: c2, view: builder, interrogative: how, entity_refs: [microservice.m]}\n"
    )
    assert repo is None
    assert [str(d) for d in diagnostics] == [
        "repo.ea.yaml:4:5: error: concern 'group.developers': "
        "ids starting with 'group.' name stakeholder groups",
    ]
