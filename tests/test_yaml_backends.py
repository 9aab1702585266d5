"""The loader runs on libyaml where PyYAML has it, and then agrees with the
pure-Python build of the same module; the canonical text parses back.

``pure`` is ``w6hea.repofmt`` executed a second time while PyYAML reports no
libyaml, so its ``YamlLoader`` is the fallback class: the same composer and
constructor on PyYAML's Python reader, scanner and parser.
"""

import importlib.util

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st
from yaml.composer import Composer

from test_ingest_properties import PROPERTY_SETTINGS, names, yaml_values
from test_ingest_properties import pytestmark as hypothesis_warning_filter
from test_repofmt import repository_texts
from w6hea.model import (
    ENTITY_KINDS,
    LINK_SIGNATURES,
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


def added(adder, items) -> None:
    for item in items:
        try:
            adder(item)
        except ModelError:
            pass


@st.composite
def repositories(draw) -> Repository:
    """What the adders accept of drawn entities, then concerns, then links."""
    repo = Repository(name=draw(st.text(max_size=6)), version=draw(st.text(max_size=3)))
    entities = st.builds(Entity, st.sampled_from(ENTITY_KINDS), names, fields)
    added(repo.add_entity, draw(st.lists(entities, max_size=6)))
    ids = sorted(repo.entities)
    entity_refs = st.lists(st.sampled_from(ids), max_size=3) if ids else st.just([])
    concerns = st.builds(
        Concern, names, st.sampled_from(cells()), st.text(max_size=8),
        entity_refs, st.lists(fields, max_size=2),
    )
    added(repo.add_concern, draw(st.lists(concerns, max_size=4)))
    ends = ids + sorted(repo.concerns)
    if ends:
        links = st.builds(
            Link, st.sampled_from(sorted(LINK_SIGNATURES)), st.sampled_from(ends),
            st.sampled_from(ends), st.floats(0, 1e9),
        )
        added(repo.add_link, draw(st.lists(links, max_size=6)))
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
