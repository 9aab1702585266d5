"""Text format for architecture repositories: parse with located diagnostics,
serialize canonically.

A repository is one or more ``*.ea.yaml`` / ``*.ea.json`` files, each holding
``meta``, ``entities``, ``links``, and ``concerns`` sections.  Files are
combined into a single repository; cross-file references are allowed.  All
problems are reported as diagnostics pointing at the offending line; parsing
never raises on malformed input.
"""

from __future__ import annotations

import io
import re
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
    FIELD_NESTING_LIMIT,
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


def undecodable(path, exc: UnicodeDecodeError) -> Diagnostic:
    """The error for a file that is not UTF-8, at its first undecodable byte.
    ``exc`` is what decoding the whole file raised."""
    head = exc.object[: exc.start].decode("utf-8")
    location = Location(str(path), head.count("\n") + 1, len(head) - head.rfind("\n"))
    message = f"not UTF-8: {exc.reason} (byte 0x{exc.object[exc.start]:02x})"
    return Diagnostic("error", message, location)


_ALIAS_LIMIT = 100_000  # values aliases may add to one document once expanded
# Collections one document may nest, the top-level one included.  A file holds
# attributes and records three levels down (document, section, declaration), so
# every repository the model accepts is written within this bound.
_NESTING_LIMIT = FIELD_NESTING_LIMIT + 3

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


def _loc(path: str, mark) -> Location:
    return Location(path, mark.line + 1, mark.column + 1) if mark else Location(path, 1, 1)


def yaml_error(path: str, exc: yaml.YAMLError) -> Diagnostic:
    """The located error diagnostic for YAML text that could not be loaded."""
    location = _loc(path, getattr(exc, "problem_mark", None))
    return Diagnostic("error", f"invalid YAML: {exc}", location)


class _Invalid(Exception):
    """``(message, key)``: a declaration the model cannot take, and the key of
    the field at fault, or None for the declaration as a whole."""


_NOT_TEXT = {list: "a sequence", dict: "a mapping", set: "a mapping", bytes: "binary"}


def _text(value, key: str, what: str = "") -> Optional[str]:
    """A scalar ``value`` as text, None as None.  A collection or binary data,
    which ``str`` would turn into its Python repr, is an error at the value of
    ``key``."""
    if type(value) in _NOT_TEXT:
        raise _Invalid(f"{what or key} must be text, not {_NOT_TEXT[type(value)]}", key)
    return None if value is None else str(value)


def _meta(fields: dict) -> dict:
    """``name`` and ``version`` as text; a null one is absent."""
    meta = {key: _text(fields.get(key), key) for key in ("name", "version")}
    return {key: value for key, value in meta.items() if value is not None}


def _entity(fields: dict) -> Entity:
    kind, name = (_text(fields.get(key), key) for key in ("kind", "name"))
    if kind is None or name is None:
        raise _Invalid("entity requires 'kind' and 'name'", None)
    attributes = fields.get("attributes") or {}
    if not isinstance(attributes, dict):
        raise _Invalid("entity attributes must be a mapping", "attributes")
    return Entity(kind=kind, name=name, attributes=attributes)


def _link(fields: dict) -> Link:
    kind, source, target = (_text(fields.get(key), key) for key in ("kind", "source", "target"))
    if kind is None or source is None or target is None:
        raise _Invalid("link requires 'kind', 'source' and 'target'", None)
    weight = fields.get("weight", 1.0)
    if not isinstance(weight, (bool, bytes)):  # float() reads true as 1.0, b'0.5' as 0.5
        try:
            return Link(kind=kind, source=source, target=target, weight=float(weight))
        except (TypeError, ValueError, OverflowError):
            pass
    raise _Invalid(f"link weight must be a number, got {weight!r}", "weight")


def _concern(fields: dict) -> Concern:
    cid, view, interrogative = fields.get("id"), fields.get("view"), fields.get("interrogative")
    cid = _text(cid, "id")
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
        id=cid,
        cell=cell,
        statement=_text(fields.get("statement"), "statement") or "",
        entity_refs=[_text(r, "entity_refs", "each entity_refs item") for r in entity_refs],
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
                key = key_node.value  # a key that is not a scalar is named by its node type
                key = key if isinstance(key_node, yaml.ScalarNode) else f"<{key_node.id}>"
                if key == "meta":
                    for mk, mv in (build(doc.path, value_node, _meta) or {}).items():
                        meta.setdefault(mk, mv)  # the first file's value wins
                elif key not in _SECTIONS:
                    report("warning", doc.path, key_node, f"unknown top-level key {key!r} ignored")
                elif isinstance(value_node, yaml.SequenceNode):
                    for node in value_node.value:
                        item = build(doc.path, node, _SECTIONS[key])
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


class _CanonicalWriter(yaml.SafeDumper):
    """Writes a value as ``SafeDumper`` does with sorted keys, Unicode, block
    style and width 100, but never with anchors and aliases, and with a string
    holding U+0085 double-quoted, where it is escaped as ``\\N``, and with text
    that JSON's number rule reads as a number (``1e3``) quoted.  The emitter's
    own rules choose each scalar's style and tag, and its writers fold what does
    not fit; in place of the serializer and the emitter's event states, one loop
    takes pending steps off a stack, so deep values cannot exhaust the call stack.
    """

    def __init__(self):
        super().__init__(io.StringIO(), allow_unicode=True, width=100)
        self.tag_prefixes = dict(self.DEFAULT_TAG_PREFIXES)
        self.forms, self.tags, self.steps = {}, {}, []

    def analyze_scalar(self, scalar):
        analysis = super().analyze_scalar(scalar)
        if "\x85" in scalar:  # written raw, it is a line break that reads back as a space
            analysis.allow_flow_plain = analysis.allow_block_plain = False
            analysis.allow_single_quoted = analysis.allow_block = False
        return analysis

    def dump(self, data) -> str:
        self.node(data, -2, False)  # the top-level mapping is at indent 0
        while self.steps:  # "-" and an item, ":" and the value of a ``? key``, or None and a pair
            indent, indicator, value = self.steps.pop()
            self.indent = indent
            self.write_indent()
            if indicator:
                self.write_indicator(indicator, True, indention=True)
                self.node(value, indent, indicator == ":")
            else:
                self.entry(*value, indent)
        self.indent = 0
        self.write_indent()
        return self.stream.getvalue()

    def node(self, value, indent: int, in_mapping: bool) -> None:
        """Write ``value`` inside a collection at ``indent``; a collection
        pushes its entries as steps."""
        kind = type(value)
        if kind not in (dict, list, set, tuple):
            return self.scalar(self.form(value), indent + 2, False)
        if kind is set:
            self.write_indicator("!!set", True)
            value, kind = dict.fromkeys(value), dict
        if kind is dict:
            items, indicator, indent = list(value.items()), None, indent + 2
            try:
                items = sorted(items)
            except TypeError:  # keys that do not compare keep their order
                pass
        else:
            items, indicator = value, "-"
            indent += 2 if self.indention or not in_mapping else 0
        if not items:  # written in flow style
            self.write_indicator("[" if indicator else "{", True, whitespace=True)
            return self.write_indicator("]" if indicator else "}", False)
        self.steps += [(indent, indicator, item) for item in reversed(items)]

    def entry(self, key, value, indent: int) -> None:
        form = None if type(key) is tuple else self.form(key)
        if form and form[3]:
            self.scalar(form, indent + 2, True)
        elif form is None and not key:  # an empty sequence is a simple key
            self.node(key, indent, True)
        else:
            self.write_indicator("?", True, indention=True)
            self.steps.append((indent, ":", value))
            return self.node(key, indent, True)
        self.write_indicator(":", False)
        self.node(value, indent, True)

    def scalar(self, form: tuple, indent: int, simple_key: bool) -> None:
        text, tag, style, _, inline = form
        if tag:
            self.write_indicator(tag, True)
        if inline and (simple_key or self.column + 1 + len(inline) <= self.best_width):
            data = inline if self.whitespace else " " + inline  # too short to fold
            self.column += len(data)
            self.whitespace = self.indention = False
            return self.stream.write(data)
        self.indent = indent
        if style == "|":
            return self.write_literal(text)
        write = {"": self.write_plain, "'": self.write_single_quoted}.get(style)
        (write or self.write_double_quoted)(text, not simple_key)

    def form(self, value) -> tuple:
        """``(text, tag, style, simple, inline)``: a scalar's text, the tag written
        before it or None, its style (the same as a value and as a simple key),
        whether it may be a simple key, and its text as written unless folded
        (None when the emitter's writer must write it)."""
        if type(value) is str:
            if value in self.forms:
                return self.forms[value]
            key, tag, text, hint = value, self.DEFAULT_SCALAR_TAG, value, None
        else:
            represent = self.yaml_representers.get(type(value)) or self.yaml_representers[None]
            node = represent(self, value)
            key = tag, text, hint = node.tag, node.value, node.style
        if key not in self.forms:
            self.analysis = analysis = self.analyze_scalar(text)
            detected = self.resolve(yaml.ScalarNode, text, (True, False))
            implicit = detected == tag, self.DEFAULT_SCALAR_TAG == tag
            self.event = yaml.ScalarEvent(None, tag, implicit, text, style=hint)
            if tag not in self.tags:
                self.tags[tag] = self.prepare_tag(tag)
            style, short = self.choose_scalar_style(), self.tags[tag]
            simple = len(short) + len(text) < 128 and not (analysis.empty or analysis.multiline)
            inline = {"": text, "'": "'%s'" % text.replace("'", "''")}.get(style)
            written_tag = None if implicit[style != ""] else short
            self.forms[key] = text, written_tag, style, simple, None if analysis.multiline else inline
        return self.forms[key]


# The canonical text reads back the same from a *.json file, which
# ``fmt --write`` may write it to.
_CanonicalWriter.add_implicit_resolver(*_JSON_FLOAT)


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
    return _CanonicalWriter().dump(data)


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
