"""The reader runs on libyaml's parser where PyYAML has it, and then agrees
with the pure-Python build of the same modules and with the loader it
replaced; the canonical text parses back and is what PyYAML's own emitter
writes.

``pure`` is ``w6hea.repofmt`` executed a second time, on a ``w6hea.yamlload``
executed while PyYAML reports no libyaml, so it reads events from PyYAML's
Python reader, scanner and parser.  ``tests/yaml_reference.py`` holds the
loader that composed a node tree with PyYAML's Python composer, and the
``parse_repository`` that built declarations from it, on either parser.
"""

import datetime
import importlib.util
import random
import re
import sys

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

import yaml_reference
from conftest import FIXTURES, load_fixture_repo
from test_ingest_properties import PROPERTY_SETTINGS, names, yaml_values
from test_ingest_properties import pytestmark as hypothesis_warning_filter
from test_repofmt import DECLARATION_ERRORS, YAML_VALUE_CASES, repository_texts
from w6hea import yamlload
from w6hea.model import (
    ENTITY_KINDS,
    LINK_SIGNATURES,
    SERVICE_KINDS,
    Concern,
    Entity,
    Link,
    ModelError,
    Repository,
    cells,
)
from w6hea.repofmt import SourceDocument, parse_repository, serialize_repository
from w6hea.yamlload import load, load_all


def executed(name: str):
    spec = importlib.util.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pure_python_modules() -> tuple:
    """``w6hea.repofmt`` and the ``w6hea.yamlload`` it reads with, executed
    while PyYAML reports no libyaml."""
    with_libyaml, yaml.__with_libyaml__ = yaml.__with_libyaml__, False
    loader = sys.modules["w6hea.yamlload"]
    try:
        sys.modules["w6hea.yamlload"] = executed("w6hea.yamlload")
        return executed("w6hea.repofmt"), sys.modules["w6hea.yamlload"]
    finally:
        sys.modules["w6hea.yamlload"] = loader
        yaml.__with_libyaml__ = with_libyaml


pure, pure_yamlload = pure_python_modules()
BACKENDS = [  # (repofmt, yamlload, the reference on the same parser)
    (sys.modules["w6hea.repofmt"], yamlload, yaml_reference.reference_module(libyaml=True)),
    (pure, pure_yamlload, yaml_reference.reference_module(libyaml=False)),
]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_libyaml_supplies_the_events_and_no_composer(monkeypatch):
    from yaml.cyaml import CParser

    class EventsOnly(CParser):
        def composer_used(self, *args):
            raise AssertionError("libyaml's composer was used")

        check_node = get_node = get_single_node = composer_used

    assert yamlload._Parser is CParser
    assert not issubclass(pure_yamlload._Parser, CParser)
    text = (FIXTURES / "compliant.ea.yaml").read_text(encoding="utf-8")
    expected = parse_repository([SourceDocument("compliant.ea.yaml", text)])
    monkeypatch.setattr(yamlload, "_Parser", EventsOnly)
    assert parse_repository([SourceDocument("compliant.ea.yaml", text)]) == expected
    assert load_all(text, "compliant.ea.yaml") == [yaml.safe_load(text)]


def parsed(module, text: str, path: str) -> tuple:
    """The repository and the diagnostics of parsing ``text`` as ``path``."""
    return module.parse_repository([SourceDocument(path, text)])


def loaded(load, text: str) -> tuple:
    try:
        return "value", load(text)
    except yaml.YAMLError as exc:
        return "error", str(exc)


def assert_reads_as_the_reference(text: str, path: str = "repo.ea.yaml") -> None:
    """Under each parser, ``parse_repository``, ``load`` and ``load_all`` give
    what the composing loader gave: the same repository, values, diagnostics
    and error messages, at the same places.  Under the two parsers, the same
    repository and diagnostics at the same places."""
    locations = []
    for module, reader, ref in BACKENDS:
        (repo, diagnostics), (ref_repo, ref_diagnostics) = parsed(module, text, path), parsed(ref, text, path)
        assert (repo, [str(d) for d in diagnostics]) == (ref_repo, [str(d) for d in ref_diagnostics])
        loader = ref.loader_for(path)
        assert loaded(lambda t: reader.load(t, path), text) == loaded(lambda t: yaml.load(t, Loader=loader), text)
        assert loaded(lambda t: reader.load_all(t, path), text) == loaded(
            lambda t: list(yaml.load_all(t, Loader=loader)), text
        )
        locations.append((repo, [(d.severity, str(d.location)) for d in diagnostics]))
    assert locations[0] == locations[1]


# Block-style documents, beside the flow-style repository texts with broken fragments.
block_documents = st.lists(yaml_values, min_size=1, max_size=3).map(
    lambda documents: yaml.safe_dump_all(documents, sort_keys=False, allow_unicode=True)
)


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(repository_texts | block_documents, st.sampled_from(["repo.ea.yaml", "repo.ea.json"]))
def test_reader_reads_what_the_composing_loader_read(text, path):
    assert_reads_as_the_reference(text, path)


# What the strategies do not reach: errors in anchored and nested values, merges
# of lists and merges within merges, aliased sections and keys, keys equal once
# constructed, several documents, anchors defined twice, and the tags that are
# no repository value's: ordered maps, pairs, sets, binary data, the value key
# "=" as a value, and collections as keys, in the top-level mapping too.
EDGE_TEXTS = [
    "x: &a {k: !!int bad, j: 1}\nentities:\n  - {kind: api, name: a, attributes: *a}\n",
    "entities:\n  - {kind: api, name: a, attributes: {a: {b: !!int x}, c: 2024-02-30}}\n",
    "entities:\n  - {kind: api, name: a, attributes: {p: {x: 1, y: !!int bad}, q: {x: !!int worse}}}\n",
    "entities:\n  - {kind: api, name: a, attributes: {!!set x: 1, y: !!int z}}\n",
    "entities:\n  - <<: [{kind: api}, {kind: microservice, name: b}]\n    <<: {name: a}\n",
    "entities:\n  - <<: [{kind: api}, 1]\n    name: a\n",
    "entities:\n  - {<<: {<<: {kind: api, name: a}}, name: b}\n",
    "entities:\n  - {<<: {<<: [x]}, name: b}\n",
    "e: &e [{kind: api, name: a}, {kind: api, name: [b]}, 3]\nentities: *e\nlinks: *e\n",
    "entities:\n  - {kind: api, name: a, attributes: {o: !!omap [{a: 1}, {b: [2]}], p: !!pairs [{a: 1}, {a: 2}]}}\n",
    "entities:\n  - {kind: api, name: a, attributes: {o: !!omap [{a: 1, b: 2}]}}\n",
    "entities:\n  - {kind: api, name: a, attributes: {o: !!omap [{<<: 1}], s: !!set {a, b}}}\n",
    "entities:\n  - {kind: api, name: a, attributes: {o: !!omap {a: 1}, q: !!seq {a: 1}, r: !!str [1]}}\n",
    "entities:\n  - {kind: api, name: a, attributes: {w: =, v: !!value x}}\n",
    "? [meta]\n: {name: x}\nentities: [{kind: api, name: a}]\n? {a: 1}\n: 2\n",
    "entities:\n  - {kind: api, name: a, attributes: {1: a, 1.0: b, '1': c, !!str 1: d}}\n",
    "&r {meta: {name: x}, *r : 1}\n",
    "m: &m meta\n*m : {name: shop}\nentities: &s [&d {kind: api, name: a}, *d]\n",
    "meta: {name: a}\n---\n- 1\n---\nmeta: {name: b}\nentities: [{kind: api, name: c}]\n",
    "entities: [{kind: api, name: a}]\n---\nentities: [*undefined]\n",
    "entities: [&a {kind: api, name: a}, &a {kind: api, name: b}]\n",
    "entities:\n  - !foo {kind: api, name: a}\n  - !!set {kind, name}\n  - {kind: api, name: b, attributes: {t: 2001-12-14t21:59:43.10-05:00}}\n",
    "entities:\n  - {kind: api, name: a, attributes: {b: !!binary aGk=, c: !!binary '@@'}}\n",
    "- &x [1, 2]\n- {<<: *x}\n",
    "[1, *x]\n",
    "a: 1\n...\n--- !!str\nb\n",
    "entities:\n  - {kind: api, name: a, attributes: {? !!omap [{a: 1}] : 1, k: [{? [a] : 1}]}}\n",
]
REFERENCE_RAISES = {"scalar-tag-over-value-key"}  # TypeError, out of PyYAML's timestamp constructor
TEXTS = (
    [
        pytest.param(case.values[0], id=case.id)
        for case in YAML_VALUE_CASES + DECLARATION_ERRORS
        if case.id not in REFERENCE_RAISES
    ]
    + [pytest.param(text, id=f"edge-{n}") for n, text in enumerate(EDGE_TEXTS)]
    + [pytest.param(path.read_text(encoding="utf-8"), id=path.name) for path in sorted(FIXTURES.glob("*.yaml"))]
)


@pytest.mark.parametrize("text", TEXTS)
def test_reader_reads_cases_and_fixtures_as_the_composing_loader(text):
    assert_reads_as_the_reference(text)


finite_values = st.recursive(  # NaN is not equal to itself, so no round trip holds it
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text() | st.dates(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
fields = st.dictionaries(st.text(max_size=4), finite_values, max_size=2)

# Every scalar type of a repository value, as values and as keys.
timezones = st.sampled_from(
    [None, datetime.timezone.utc, datetime.timezone(datetime.timedelta(hours=-3))]
)
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.dates()
    | st.datetimes(timezones=timezones)
)
keys = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.dates()
)
any_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(keys, children, max_size=3),
    max_leaves=8,
)


def added(adder, items) -> None:
    for item in items:
        try:
            adder(item)
        except ModelError:
            pass


@st.composite
def repositories(draw, fields=fields) -> Repository:
    """What the adders accept of drawn entities, then concerns, then links,
    whose attributes and records are drawn from ``fields``.  Half of the
    entities are services, and each link's ends are drawn from the kinds its
    signature accepts, so that links are common."""
    repo = Repository(name=draw(st.text(max_size=6)), version=draw(st.text(max_size=3)))
    kinds = st.sampled_from(SERVICE_KINDS) | st.sampled_from(ENTITY_KINDS)
    entities = st.builds(Entity, kinds, names, fields)
    added(repo.add_entity, draw(st.lists(entities, max_size=6)))
    ids = sorted(repo.entities)
    entity_refs = st.lists(st.sampled_from(ids), max_size=3) if ids else st.just([])
    concerns = st.builds(
        Concern, names, st.sampled_from(cells()), st.text(max_size=8),
        entity_refs, st.lists(fields, max_size=2),
    )
    added(repo.add_concern, draw(st.lists(concerns, max_size=4)))
    of_kind = {"concern": sorted(repo.concerns)}
    for eid in ids:
        of_kind.setdefault(repo.entities[eid].kind, []).append(eid)
    ends = {  # link kind -> the ids its signature accepts as source and as target
        kind: [sorted(i for k in allowed for i in of_kind.get(k, [])) for allowed in signature]
        for kind, signature in LINK_SIGNATURES.items()
    }
    link_kinds = sorted(kind for kind, (sources, targets) in ends.items() if sources and targets)
    if link_kinds:
        links = st.sampled_from(link_kinds).flatmap(lambda kind: st.builds(
            Link, st.just(kind), st.sampled_from(ends[kind][0]),
            st.sampled_from(ends[kind][1]), st.floats(0, 1e9),
        ))
        added(repo.add_link, draw(st.lists(links, min_size=1, max_size=6)))
    return repo


def with_attributes(attributes) -> Repository:
    repo = Repository()
    repo.add_entity(Entity("microservice", "cart", attributes))
    return repo


# Keys an emitter may write in the explicit ``? key`` form, characters beyond
# U+FFFF, and line breaks.
@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(repositories())
@example(with_attributes({"": 1, "\r": 2, "a" * 125: 3, "é" * 65: 4, "🚀": "🚀"}))
@example(with_attributes({"tech_stack": ["a\x85b", "\x85", "a\u2028b"], "\x85": 1}))
def test_canonical_text_parses_back(repo):
    text = serialize_repository(repo)
    assert parse_repository([SourceDocument("repo.ea.yaml", text)])[0] == repo


class ReferenceDumper(yaml.SafeDumper):
    """PyYAML's safe emitter with the canonical text's departures: a shared
    value is written as copies, a string holding U+0085 is double-quoted, and
    text that JSON reads as a number (``1e3``) is quoted."""

    def ignore_aliases(self, data):
        return True

    def analyze_scalar(self, scalar):
        analysis = super().analyze_scalar(scalar)
        if "\x85" in scalar:
            analysis.allow_flow_plain = analysis.allow_block_plain = False
            analysis.allow_single_quoted = analysis.allow_block = False
        return analysis


ReferenceDumper.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?[eE][-+]?[0-9]+$"),
    list("-0123456789"),
)


def reference_text(repo: Repository) -> str:
    def entity(e):
        return {"kind": e.kind, "name": e.name, **({"attributes": e.attributes} if e.attributes else {})}

    def concern(c):
        data = {"id": c.id, "view": c.cell.view.value, "statement": c.statement,
                "entity_refs": c.entity_refs, "records": c.records}
        if c.cell.interrogative is not None:
            data["interrogative"] = c.cell.interrogative.value
        return {key: value for key, value in data.items() if value}  # id and view are never empty

    data = {
        "meta": {"name": repo.name, "version": repo.version},
        "entities": [entity(repo.entities[eid]) for eid in sorted(repo.entities)],
        "links": [
            {"kind": l.kind, "source": l.source, "target": l.target, "weight": l.weight}
            for l in (repo.links[lid] for lid in sorted(repo.links))
        ],
        "concerns": [concern(repo.concerns[cid]) for cid in sorted(repo.concerns)],
    }
    return reference_dump(data)


def reference_dump(data) -> str:
    return yaml.dump(
        data, Dumper=ReferenceDumper, sort_keys=True, allow_unicode=True,
        default_flow_style=False, width=100,
    )


def with_statement(statement: str) -> Repository:
    repo = with_attributes({})
    repo.add_concern(Concern("c1", cells()[0], statement, ["microservice.cart"]))
    return repo


FOLDED = " ".join(f"word{i:02}" for i in range(43))  # 300 characters


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(repositories(st.dictionaries(keys, any_values, max_size=2)))
@example(with_attributes({"": 1, "\r": 2, "a" * 122: 3, "b" * 123: 4, "c" * 125: 5, "d" * 130: 6}))
@example(with_attributes({"é" * 65: "é" * 65, "🚀": "🚀", "\x85": "\x85", " ": "\xa0", "\u2028": "a b"}))
@example(with_attributes({"tech_stack": ["1", "true", "null", "2020-01-01", " lead", "trail ", "~"]}))
@example(with_statement(FOLDED))
@example(with_attributes({"tech_stack": [n * "x" + " y" for n in range(90, 100)]}))  # fold or not
@example(with_attributes({"tech_stack": [n * "'" + " y" for n in range(44, 50)]}))
@example(with_statement(FOLDED.replace("word", "it's")))
@example(with_attributes({"tech_stack": [-0.0, float("inf"), float("-inf"), float("nan"), 1e300]}))
@example(with_attributes({
    "owner": datetime.datetime(2020, 1, 1, 12, 30, tzinfo=datetime.timezone.utc),
    "tech_stack": [[[], {}, [[]], {"x": {}}]],
}))
@example(with_attributes({"tech_stack": {1: "a", "b": "c"}}))
@example(with_attributes({"tech_stack": ["1e3", "-2.5E+3", "1.0e+3", "1e"], "0e0": 1}))
def test_canonical_text_is_what_the_safe_emitter_writes(repo):
    assert serialize_repository(repo) == reference_text(repo)


def diagnostics_of(docs) -> list:
    """Severities and messages of parsing ``docs``, in a fixed order."""
    return sorted((d.severity, d.message) for d in parse_repository(docs)[1])


FIXTURE_REPOS = [
    load_fixture_repo(name)
    for name in ("compliant.ea.yaml", "violations.ea.yaml", "paper_api_table.ea.yaml")
]


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(repositories(), st.randoms(use_true_random=False))
@example(FIXTURE_REPOS[0], random.Random(0))
@example(FIXTURE_REPOS[1], random.Random(5))
@example(FIXTURE_REPOS[2], random.Random(6))
def test_declaration_order_does_not_matter(repo, rng):
    """The canonical declarations, split over one to three files and shuffled
    within and across them, parse to the same canonical text and diagnostics."""
    canonical = serialize_repository(repo)
    declarations = load(canonical, "repo.ea.yaml")
    files = [{"entities": [], "links": [], "concerns": []} for _ in range(rng.randint(1, 3))]
    rng.choice(files)["meta"] = declarations["meta"]
    for section in ("entities", "links", "concerns"):
        rng.shuffle(declarations[section])
        for item in declarations[section]:
            rng.choice(files)[section].append(item)
    docs = [SourceDocument(f"{n}.ea.yaml", reference_dump(f)) for n, f in enumerate(files)]
    assert serialize_repository(parse_repository(docs)[0]) == canonical
    assert diagnostics_of(docs) == diagnostics_of([SourceDocument("repo.ea.yaml", canonical)])
