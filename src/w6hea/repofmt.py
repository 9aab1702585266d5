"""Text format for architecture repositories: parse with located diagnostics,
serialize canonically.

A repository is one or more ``*.ea.yaml`` / ``*.ea.json`` files, each holding
``meta``, ``entities``, ``links``, and ``concerns`` sections.  Files are
combined into a single repository; cross-file references are allowed.  All
problems are reported as diagnostics pointing at the offending line; parsing
never raises on malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import yaml
from yaml.composer import Composer, ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.parser import Parser
from yaml.reader import Reader, ReaderError
from yaml.resolver import Resolver
from yaml.scanner import Scanner

from .model import (
    Concern,
    Entity,
    Interrogative,
    Link,
    ModelError,
    Repository,
    View,
    ViewCell,
    unknown_attributes,
)


@dataclass(frozen=True)
class Location:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    location: Location

    def __str__(self) -> str:
        return f"{self.location}: {self.severity}: {self.message}"


@dataclass
class SourceDocument:
    path: str
    text: str

    @classmethod
    def read(cls, path) -> "SourceDocument":
        with open(path, encoding="utf-8") as fh:
            return cls(path=str(path), text=fh.read())


_ALIAS_LIMIT = 100_000  # values aliases may add to one document once expanded
_NESTING_LIMIT = 100  # collections one document may nest, the top-level one included

# libyaml scans and parses; the pure-Python classes are the fallback where
# PyYAML was built without it.  Writing stays on PyYAML's Python emitter.
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
    ``_ALIAS_LIMIT`` values."""

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


def _loc(path: str, mark) -> Location:
    return Location(path, mark.line + 1, mark.column + 1) if mark else Location(path, 1, 1)


def yaml_error(path: str, exc: yaml.YAMLError) -> Diagnostic:
    """The located error diagnostic for YAML text that could not be loaded."""
    location = _loc(path, getattr(exc, "problem_mark", None))
    return Diagnostic("error", f"invalid YAML: {exc}", location)


class _Invalid(Exception):
    """``(message, key)``: a declaration the model cannot take, and the key of
    the field at fault, or None for the declaration as a whole."""


def _entity(fields: dict) -> Entity:
    kind, name = fields.get("kind"), fields.get("name")
    if kind is None or name is None:
        raise _Invalid("entity requires 'kind' and 'name'", None)
    attributes = fields.get("attributes") or {}
    if not isinstance(attributes, dict):
        raise _Invalid("entity attributes must be a mapping", "attributes")
    return Entity(kind=str(kind), name=str(name), attributes=attributes)


def _link(fields: dict) -> Link:
    kind, source, target = fields.get("kind"), fields.get("source"), fields.get("target")
    if kind is None or source is None or target is None:
        raise _Invalid("link requires 'kind', 'source' and 'target'", None)
    weight = fields.get("weight", 1.0)
    try:
        weight = float(weight)
    except (TypeError, ValueError, OverflowError):
        raise _Invalid(f"link weight must be a number, got {weight!r}", "weight")
    return Link(kind=str(kind), source=str(source), target=str(target), weight=weight)


def _concern(fields: dict) -> Concern:
    cid, view, interrogative = fields.get("id"), fields.get("view"), fields.get("interrogative")
    if cid is None or view is None:
        raise _Invalid("concern requires 'id' and 'view'", None)
    try:
        view = View(str(view))
    except ValueError:
        raise _Invalid(f"unknown view {view!r}", "view")
    try:
        interrogative = None if interrogative is None else Interrogative(str(interrogative))
    except ValueError:
        raise _Invalid(f"unknown interrogative {interrogative!r}", "interrogative")
    try:
        cell = ViewCell(view, interrogative)
    except ModelError as exc:
        raise _Invalid(str(exc), None)
    entity_refs, records = fields.get("entity_refs") or [], fields.get("records") or []
    if not isinstance(entity_refs, list):
        raise _Invalid("entity_refs must be a sequence", "entity_refs")
    if not isinstance(records, list):
        raise _Invalid("records must be a sequence", "records")
    return Concern(
        id=str(cid),
        cell=cell,
        statement=str(fields.get("statement") or ""),
        entity_refs=[str(r) for r in entity_refs],
        records=records,
    )


_SECTIONS = {"entities": _entity, "concerns": _concern, "links": _link}


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
    decls: dict[str, list] = {section: [] for section in _SECTIONS}  # [(item, location)]
    constructor = YamlLoader("")  # builds each declaration, keeping nothing between them

    def report(severity: str, path: str, node, message: str) -> None:
        diagnostics.append(Diagnostic(severity, message, _loc(path, node.start_mark)))

    def construct(path: str, node) -> Optional[dict]:
        """The mapping one declaration holds, constructed once; None on error."""
        try:
            value = constructor.construct_document(node)
        except yaml.YAMLError as exc:
            diagnostics.append(yaml_error(path, exc))
            return None
        if not isinstance(value, dict):
            report("error", path, node, "expected a mapping")
            return None
        return value

    def read_section(path: str, section: str, sequence) -> None:
        build = _SECTIONS[section]
        for node in sequence.value:
            fields = construct(path, node)
            if fields is None:
                continue
            try:
                decls[section].append((build(fields), _loc(path, node.start_mark)))
            except _Invalid as exc:
                message, key = exc.args
                # Explicit keys follow merged ones, so the last match holds the value.
                at = next((v for k, v in reversed(node.value) if k.value == key), node)
                report("error", path, at, message)

    for doc in docs:
        try:
            roots = list(yaml.compose_all(doc.text, Loader=YamlLoader))
        except yaml.YAMLError as exc:
            diagnostics.append(yaml_error(doc.path, exc))
            continue
        for root in roots:
            if not isinstance(root, yaml.MappingNode):
                report("error", doc.path, root, "expected a mapping")
                continue
            for key_node, value_node in root.value:
                key = key_node.value  # a key that is not a scalar is named by its node type
                key = key if isinstance(key_node, yaml.ScalarNode) else f"<{key_node.id}>"
                if key == "meta":
                    for mk, mv in (construct(doc.path, value_node) or {}).items():
                        meta.setdefault(mk, mv)  # the first file's value wins
                elif key not in _SECTIONS:
                    report("warning", doc.path, key_node, f"unknown top-level key {key!r} ignored")
                elif isinstance(value_node, yaml.SequenceNode):
                    read_section(doc.path, key, value_node)
                else:
                    report("error", doc.path, value_node, "expected a sequence")

    name, version = meta.get("name", "repository"), meta.get("version", "0")
    repo = Repository(name=str(name), version=str(version))

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


class _CanonicalDumper(yaml.SafeDumper):
    """Writes a shared value as copies, never as an anchor and aliases, and a
    string holding U+0085 double-quoted, where it is escaped as ``\\N``."""

    def ignore_aliases(self, data):
        return True

    def analyze_scalar(self, scalar):
        analysis = super().analyze_scalar(scalar)
        if "\x85" in scalar:  # written raw, it is a line break that reads back as a space
            analysis.allow_flow_plain = analysis.allow_block_plain = False
            analysis.allow_single_quoted = analysis.allow_block = False
        return analysis


def serialize_repository(repo: Repository) -> str:
    """Canonical YAML text: sorted ids, sorted keys, stable across runs.

    ``parse_repository([serialize_repository(r)])`` reproduces ``r``; a second
    serialization is byte-identical.
    """
    data = {
        "meta": {"name": repo.name, "version": repo.version},
        "entities": [
            _entity_data(repo.entities[eid]) for eid in sorted(repo.entities)
        ],
        "links": [_link_data(repo.links[lid]) for lid in sorted(repo.links)],
        "concerns": [
            _concern_data(repo.concerns[cid]) for cid in sorted(repo.concerns)
        ],
    }
    return yaml.dump(
        data, Dumper=_CanonicalDumper, sort_keys=True, allow_unicode=True,
        default_flow_style=False, width=100,
    )


def _entity_data(e: Entity) -> dict:
    data = {"kind": e.kind, "name": e.name}
    if e.attributes:
        data["attributes"] = e.attributes
    return data


def _link_data(l: Link) -> dict:
    return {"kind": l.kind, "source": l.source, "target": l.target, "weight": l.weight}


def _concern_data(c: Concern) -> dict:
    data = {"id": c.id, "view": c.cell.view.value}
    if c.cell.interrogative is not None:
        data["interrogative"] = c.cell.interrogative.value
    if c.statement:
        data["statement"] = c.statement
    if c.entity_refs:
        data["entity_refs"] = c.entity_refs
    if c.records:
        data["records"] = c.records
    return data
