"""The YAML loader and ``parse_repository`` as they were before the parser
built values straight from libyaml's events: PyYAML's Python composer builds
each document's node tree, with the checks this module's ``YamlLoader`` adds,
and ``SafeConstructor`` builds each declaration from its node.  Both are
narrowed to repository values as the reader is: the loader constructs the
core tags only, and a collection used as a top-level key is an error.
Tests compare ``w6hea.repofmt`` against it; executed while PyYAML reports no
libyaml (see ``reference_module``), its ``YamlLoader`` runs on PyYAML's
pure-Python parser.
"""

import importlib.util
import re
from typing import Optional

import yaml
from yaml.composer import Composer, ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.parser import Parser
from yaml.reader import Reader, ReaderError
from yaml.resolver import Resolver
from yaml.scanner import Scanner

from w6hea.model import ModelError, Repository, unknown_attributes
from w6hea.yamlload import _ALIAS_LIMIT, _NESTING_LIMIT
from w6hea.repofmt import (
    SECTIONS,
    Diagnostic,
    SourceDocument,
    _Invalid,
    _loc,
    _meta,
    yaml_error,
)

# libyaml scans and parses; the pure-Python classes are the fallback where
# PyYAML was built without it.  Writing never uses libyaml.
if yaml.__with_libyaml__:
    from yaml.cyaml import CParser as _Parser
else:

    class _Parser(Reader, Scanner, Parser):
        def __init__(self, stream):
            Reader.__init__(self, stream)
            Scanner.__init__(self)
            Parser.__init__(self)


class YamlLoader(Composer, _Parser, SafeConstructor, Resolver):
    """A safe loader whose every failure on YAML text is a located
    ``yaml.YAMLError`` and whose ``construct_document`` keeps no state between
    calls.  PyYAML's Python composer sits on the parser, so that it can reject
    nesting deeper than ``_NESTING_LIMIT``, a key written twice in one mapping,
    an alias inside its own anchor, and aliases that expand to more than
    ``_ALIAS_LIMIT`` values.  It constructs the core tags only: any other tag
    goes to ``construct_undefined``, as an unknown tag does."""

    yaml_constructors = {
        tag: constructor
        for tag, constructor in SafeConstructor.yaml_constructors.items()
        if tag is None or tag.rpartition(":")[2] in ("str", "int", "float", "bool", "null", "seq", "map", "timestamp")
    }

    def __init__(self, stream):
        try:
            _Parser.__init__(self, stream)
        except UnicodeEncodeError as exc:  # libyaml reads UTF-8, which has no lone surrogate
            character, reason = ord(stream[exc.start]), "special characters are not allowed"
            raise ReaderError("<unicode string>", exc.start, character, "unicode", reason) from None
        Composer.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)

    def compose_document(self):
        # collections open; values aliases added; aliased node -> expanded size
        self.depth, self.expanded, self.sizes = 0, 0, {}
        return super().compose_document()

    def _nest(self) -> None:
        """Enter a collection whose start event is next."""
        self.depth += 1
        if self.depth > _NESTING_LIMIT:
            raise ComposerError(None, None, "nesting too deep", self.peek_event().start_mark)

    def compose_node(self, parent, index):
        if not (self.anchors and self.check_event(yaml.AliasEvent)):  # no anchor, no alias
            return super().compose_node(parent, index)
        event = self.peek_event()
        node = super().compose_node(parent, index)
        if node.end_mark is None:  # the composer sets it when a collection is done
            message = f"alias *{event.anchor} is inside its own anchor"
            raise ComposerError(None, None, message, event.start_mark)
        self.expanded += self._size(node)
        if self.expanded > _ALIAS_LIMIT:
            message = f"aliases expand to more than {_ALIAS_LIMIT} values"
            raise ComposerError(None, None, message, event.start_mark)
        return node

    def _size(self, node) -> int:
        """How many nodes ``node`` stands for once its aliases are expanded."""
        if node not in self.sizes:
            children = node.value if isinstance(node, yaml.SequenceNode) else []
            if isinstance(node, yaml.MappingNode):
                children = [child for pair in node.value for child in pair]
            self.sizes[node] = 1 + sum(map(self._size, children))
        return self.sizes[node]

    def compose_sequence_node(self, anchor):
        self._nest()
        node = super().compose_sequence_node(anchor)
        self.depth -= 1
        return node

    def compose_mapping_node(self, anchor):
        self._nest()
        node, seen = super().compose_mapping_node(anchor), set()
        self.depth -= 1
        for key, _ in node.value:  # a key merged in with << may be overridden
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                if (key.tag, key.value) in seen:
                    message = f"found duplicate key {key.value!r}"
                    raise ComposerError(None, None, message, key.start_mark)
                seen.add((key.tag, key.value))
        return node

    def construct_document(self, node):
        try:
            return super().construct_document(node)
        finally:  # a failed call would leave its cache and pending work behind
            self.constructed_objects, self.recursive_objects = {}, {}
            self.state_generators, self.deep_construct = [], False

    def construct_object(self, node, deep=False):
        try:  # of the safe constructors, int, float, bool and timestamp raise these
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError) as exc:
            message = f"cannot construct {node.value!r}: {exc}"
            raise ConstructorError(None, None, message, node.start_mark) from None


# JSON's number rule: a number with an exponent is a float, where YAML 1.1
# reads one with no dot or no exponent sign as text.
_JSON_FLOAT = (
    "tag:yaml.org,2002:float",
    re.compile(r"^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?[eE][-+]?[0-9]+$"),
    list("-0123456789"),
)


class _JsonLoader(YamlLoader):
    """``YamlLoader`` with JSON's number rule, for files named ``*.json``."""


_JsonLoader.add_implicit_resolver(*_JSON_FLOAT)


def loader_for(path: str) -> type:
    """The loader for a document at ``path``: JSON's number rule for ``*.json``."""
    return _JsonLoader if path.endswith(".json") else YamlLoader


def parse_repository(
    docs: list[SourceDocument],
) -> tuple[Optional[Repository], list[Diagnostic]]:
    """Parse source documents into a repository.

    Returns ``(repository, diagnostics)``; the repository is None when any
    error-severity diagnostic was produced.  Output is independent of the
    order entities/links/concerns appear in, across and within files.
    """
    diagnostics: list[Diagnostic] = []
    meta: dict = {}
    decls: dict[str, list] = {section: [] for section in SECTIONS}  # [(item, location)]
    constructor = YamlLoader("")  # builds each declaration, keeping nothing between them

    def report(severity: str, path: str, node, message: str) -> None:
        diagnostics.append(Diagnostic(severity, message, _loc(path, node.start_mark)))

    def build(path: str, node, builder):
        """What ``builder`` makes of the mapping ``node`` holds; None on error."""
        try:
            fields = constructor.construct_document(node)
        except yaml.YAMLError as exc:
            diagnostics.append(yaml_error(path, exc))
            return None
        if not isinstance(fields, dict):
            report("error", path, node, "expected a mapping")
            return None
        try:
            return builder(fields)
        except _Invalid as exc:
            message, key = exc.args
            # Explicit keys follow merged ones, so the last match holds the value.
            at = next((v for k, v in reversed(node.value) if k.value == key), node)
            report("error", path, at, message)
            return None

    for doc in docs:
        try:
            roots = list(yaml.compose_all(doc.text, Loader=loader_for(doc.path)))
        except yaml.YAMLError as exc:
            diagnostics.append(yaml_error(doc.path, exc))
            continue
        for root in roots:
            if not isinstance(root, yaml.MappingNode):
                report("error", doc.path, root, "expected a mapping")
                continue
            for key_node, value_node in root.value:
                key = key_node.value
                if not isinstance(key_node, yaml.ScalarNode):  # a collection as a key
                    problem = "found unhashable key"
                    error = ConstructorError("while constructing a mapping", root.start_mark, problem, key_node.start_mark)
                    diagnostics.append(yaml_error(doc.path, error))
                elif key == "meta":
                    for mk, mv in (build(doc.path, value_node, _meta) or {}).items():
                        meta.setdefault(mk, mv)  # the first file's value wins
                elif key not in SECTIONS:
                    report("warning", doc.path, key_node, f"unknown top-level key {key!r} ignored")
                elif isinstance(value_node, yaml.SequenceNode):
                    for node in value_node.value:
                        item = build(doc.path, node, SECTIONS[key][0])
                        if item is not None:
                            decls[key].append((item, _loc(doc.path, node.start_mark)))
                else:
                    report("error", doc.path, value_node, "expected a sequence")

    repo = Repository(**meta)  # a name or version no file gives keeps its default

    def add(adder, item, location) -> bool:
        try:
            adder(item)
            return True
        except ModelError as exc:
            diagnostics.append(Diagnostic("error", str(exc), location))
            return False

    # Entities, then concerns, then links, since links may point at concerns.
    by_id = lambda decl: decl[0].id
    for entity, location in sorted(decls["entities"], key=by_id):
        if add(repo.add_entity, entity, location):
            for message in unknown_attributes(entity):
                diagnostics.append(Diagnostic("warning", message, location))
    for concern, location in sorted(decls["concerns"], key=by_id):
        add(repo.add_concern, concern, location)
    for link, location in sorted(decls["links"], key=by_id):
        add(repo.add_link, link, location)

    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return repo, diagnostics


def reference_module(libyaml: bool):
    """This module executed afresh, on libyaml's parser or on PyYAML's
    pure-Python one."""
    spec = importlib.util.find_spec(__name__)
    module = importlib.util.module_from_spec(spec)
    with_libyaml, yaml.__with_libyaml__ = yaml.__with_libyaml__, libyaml and yaml.__with_libyaml__
    try:
        spec.loader.exec_module(module)
    finally:
        yaml.__with_libyaml__ = with_libyaml
    return module
