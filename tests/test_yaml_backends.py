"""The loader runs on libyaml where PyYAML has it, and then agrees with the
pure-Python build of the same module; the canonical text parses back and is
what PyYAML's own emitter writes.

``pure`` is ``w6hea.repofmt`` executed a second time while PyYAML reports no
libyaml, so its ``YamlLoader`` is the fallback class: the same composer and
constructor on PyYAML's Python reader, scanner and parser.
"""

import datetime
import importlib.util
import random
import re

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st
from yaml.composer import Composer

from conftest import load_fixture_repo
from test_ingest_properties import PROPERTY_SETTINGS, names, yaml_values
from test_ingest_properties import pytestmark as hypothesis_warning_filter
from test_repofmt import repository_texts
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
from w6hea.repofmt import SourceDocument, YamlLoader, parse_repository, serialize_repository


def pure_python_repofmt():
    spec = importlib.util.find_spec("w6hea.repofmt")
    module = importlib.util.module_from_spec(spec)
    with_libyaml, yaml.__with_libyaml__ = yaml.__with_libyaml__, False
    try:
        spec.loader.exec_module(module)
    finally:
        yaml.__with_libyaml__ = with_libyaml
    return module


pure = pure_python_repofmt()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_libyaml_parses_under_the_python_composer():
    from yaml.cyaml import CParser

    assert issubclass(YamlLoader, CParser)
    assert YamlLoader.get_single_node is Composer.get_single_node  # not libyaml's composer
    assert not issubclass(pure.YamlLoader, CParser)


def tree(node):
    """Type, tag, value and marks of a node and its children (not its style)."""
    if isinstance(node, yaml.ScalarNode):
        value = node.value
    elif isinstance(node, yaml.SequenceNode):
        value = [tree(child) for child in node.value]
    else:
        value = [(tree(key), tree(child)) for key, child in node.value]
    marks = [(mark.line, mark.column) for mark in (node.start_mark, node.end_mark)]
    return node.id, node.tag, value, marks


def composed(loader, text):
    try:
        return [tree(root) for root in yaml.compose_all(text, Loader=loader)]
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        return "error", mark and (mark.line, mark.column)


# Block-style documents, beside the flow-style repository texts with broken fragments.
block_documents = st.lists(yaml_values, min_size=1, max_size=3).map(
    lambda documents: yaml.safe_dump_all(documents, sort_keys=False, allow_unicode=True)
)


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(repository_texts | block_documents)
def test_loader_composes_what_the_pure_python_loader_composes(text):
    assert composed(YamlLoader, text) == composed(pure.YamlLoader, text)


finite_values = st.recursive(  # NaN is not equal to itself, so no round trip holds it
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text() | st.dates(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3)
    | st.sets(st.text(max_size=4), max_size=3),
    max_leaves=6,
)
fields = st.dictionaries(st.text(max_size=4), finite_values, max_size=2)

# Every scalar type the safe loader constructs, as values and as keys.
timezones = st.sampled_from(
    [None, datetime.timezone.utc, datetime.timezone(datetime.timedelta(hours=-3))]
)
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.binary(max_size=60)
    | st.dates() | st.datetimes(timezones=timezones)
)
keys = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.dates()
)
any_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(keys, children, max_size=3)
    | st.sets(keys, max_size=3),
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
# U+FFFF, line breaks, and sets, written as mappings of their members to null.
@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(repositories())
@example(with_attributes({"": 1, "\r": 2, "a" * 125: 3, "é" * 65: 4, "🚀": "🚀"}))
@example(with_attributes({"tech_stack": ["a\x85b", "\x85", "a\u2028b"], "\x85": 1}))
@example(with_attributes({"tech_stack": {"", "🚀", "a" * 125}}))
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
    "tech_stack": [b"binary", {"a", "b"}, [[], {}, [[]], {"x": {}}]],
}))
@example(with_attributes({"tech_stack": {1: "a", "b": "c"}}))
@example(with_attributes({"tech_stack": {(): "v"}}))  # an empty sequence is a simple key
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
    declarations = yaml.load(canonical, Loader=YamlLoader)
    files = [{"entities": [], "links": [], "concerns": []} for _ in range(rng.randint(1, 3))]
    rng.choice(files)["meta"] = declarations["meta"]
    for section in ("entities", "links", "concerns"):
        rng.shuffle(declarations[section])
        for item in declarations[section]:
            rng.choice(files)[section].append(item)
    docs = [SourceDocument(f"{n}.ea.yaml", reference_dump(f)) for n, f in enumerate(files)]
    assert serialize_repository(parse_repository(docs)[0]) == canonical
    assert diagnostics_of(docs) == diagnostics_of([SourceDocument("repo.ea.yaml", canonical)])
