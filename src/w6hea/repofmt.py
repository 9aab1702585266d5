"""Text format for architecture repositories: parse with located diagnostics,
serialize canonically.

A repository is one or more ``*.ea.yaml`` / ``*.ea.json`` files, each holding
``meta``, ``entities``, ``links``, and ``concerns`` sections.  Files are
combined into a single repository; cross-file references are allowed.  All
problems are reported as diagnostics pointing at the offending line; parsing
never raises on malformed input.  A file is read by ``yamlload.Reader``: each
declaration goes to its builder as soon as its values are built.
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass
from typing import Optional

import yaml
from yaml.constructor import ConstructorError
from yaml.reader import ReaderError

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
from .yamlload import JSON_FLOAT, Reader


@dataclass(frozen=True, slots=True)
class Location:
    """A 1-based position in a file; a problem with no position is at 1:1."""

    file: str
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(slots=True)
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


def _loc(path: str, mark) -> Location:
    return Location(path, mark.line + 1, mark.column + 1) if mark else Location(path)


def yaml_error(path: str, exc: yaml.YAMLError) -> Diagnostic:
    """The located error diagnostic, on one line, for YAML text that could not
    be loaded: the problem, after its context and the context's line and column.
    A character the reader refuses is named with its offset into the text."""
    if isinstance(exc, ReaderError):  # an offset and no mark: at 1:1
        problem = f"unacceptable character #x{exc.character:04x}: {exc.reason} (position {exc.position})"
        exc = yaml.MarkedYAMLError(problem=problem)
    context, mark = exc.context, exc.context_mark
    if context and mark:
        context += f" at {mark.line + 1}:{mark.column + 1}"
    message = ", ".join(part for part in (context, exc.problem, exc.note) if part)
    return Diagnostic("error", f"invalid YAML: {message}", _loc(path, exc.problem_mark))


class _Invalid(Exception):
    """``(message, key)``: a declaration the model cannot take, and the key of
    the field at fault, or None for the declaration as a whole."""


_NOT_TEXT = {list: "a sequence", dict: "a mapping"}


def _text(value, key: str, what: str = "") -> Optional[str]:
    """A scalar ``value`` as text, None as None.  A collection, which ``str``
    would turn into its Python repr, is an error at the value of ``key``."""
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


def _entity_data(e: Entity) -> dict:
    data = {"kind": e.kind, "name": e.name}
    if e.attributes:
        data["attributes"] = e.attributes
    return data


def _link(fields: dict) -> Link:
    kind, source, target = (_text(fields.get(key), key) for key in ("kind", "source", "target"))
    if kind is None or source is None or target is None:
        raise _Invalid("link requires 'kind', 'source' and 'target'", None)
    weight = fields.get("weight", 1.0)
    if not isinstance(weight, bool):  # float() reads true as 1.0
        try:
            return Link(kind=kind, source=source, target=target, weight=float(weight))
        except (TypeError, ValueError, OverflowError):
            pass
    raise _Invalid(f"link weight must be a number, got {weight!r}", "weight")


def _link_data(l: Link) -> dict:
    return {"kind": l.kind, "source": l.source, "target": l.target, "weight": l.weight}


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


# Each section of a file, named as the repository's collection of its items: the
# builder of its declarations, the name of the repository's adder and the writer of
# an item's record, in the order sections are added (links may point at concerns).
SECTIONS = {
    "entities": (_entity, "add_entity", _entity_data),
    "concerns": (_concern, "add_concern", _concern_data),
    "links": (_link, "add_link", _link_data),
}


def add_reported(
    repo: Repository, section: str, item, location: Location, diagnostics: list[Diagnostic]
) -> bool:
    """Add ``item`` through the adder of its ``section``, looked up on ``repo``
    at each call.  What the adder refuses is an error at ``location``, and an
    added entity's unknown attributes are warnings there.  Returns whether
    ``item`` went in."""
    try:
        getattr(repo, SECTIONS[section][1])(item)
    except ModelError as exc:
        diagnostics.append(Diagnostic("error", str(exc), location))
        return False
    if section == "entities":
        diagnostics += [Diagnostic("warning", m, location) for m in unknown_attributes(item)]
    return True


class _RepositoryReader(Reader):
    """Reads one repository file: each declaration goes to its builder as
    soon as it is built, and is not kept."""

    def __init__(self, doc: SourceDocument):
        super().__init__(doc.text, doc.path)
        self.path, self.diagnostics, self.meta = doc.path, [], {}
        self.decls: dict[str, list] = {section: [] for section in SECTIONS}  # [(item, location)]

    def read(self) -> None:
        for root in self.documents():
            if root.kind != "mapping":
                self.report("error", root.mark, "expected a mapping")

    def report(self, severity: str, mark, message: str) -> None:
        self.diagnostics.append(Diagnostic(severity, message, _loc(self.path, mark)))

    def role(self, parent, mapping):
        if parent is None:
            return "root" if mapping else None
        if parent.role == "root" and not mapping and parent.key and parent.key.text in SECTIONS:
            return parent.key.text  # a section's sequence: its items are declarations
        return None

    def place(self, top, key, value, error, mark, node):
        if top.role != "root":
            self.declaration(top.role, value, error, mark, node)
            return not top.keep
        if key.text is None:  # a collection as a key is an error in every mapping
            problem = ConstructorError("while constructing a mapping", top.mark, "found unhashable key", key.mark)
            self.diagnostics.append(yaml_error(self.path, problem))
        elif key.text == "meta":
            for mk, mv in (self.build(_meta, value, error, mark, node) or {}).items():
                self.meta.setdefault(mk, mv)  # the first document's value wins
        elif key.text not in SECTIONS:
            self.report("warning", key.mark, f"unknown top-level key {key.text!r} ignored")
        elif node is None or node.kind != "sequence":
            self.report("error", mark, "expected a sequence")
        elif node.role != key.text:  # an alias: the anchor's items are declarations again
            for item in node.raw:
                self.declaration(key.text, copy.deepcopy(item.value), item.err, item.mark, item)
        return True

    def declaration(self, section: str, value, error, mark, node) -> None:
        item = self.build(SECTIONS[section][0], value, error, mark, node)
        if item is not None:
            self.decls[section].append((item, _loc(self.path, mark)))

    def build(self, builder, value, error, mark, node):
        """What ``builder`` makes of a declaration's value; None on error."""
        if error:
            self.diagnostics.append(yaml_error(self.path, error[1]))
            return None
        if not isinstance(value, dict):
            self.report("error", mark, "expected a mapping")
            return None
        try:
            return builder(value)
        except _Invalid as exc:
            message, key = exc.args
            self.report("error", node.marks.get(key, mark), message)  # at the value of ``key``
            return None


def parse_repository(
    docs: list[SourceDocument],
) -> tuple[Optional[Repository], list[Diagnostic]]:
    """Parse source documents into a repository.

    Returns ``(repository, diagnostics)``; the repository is None when any
    error-severity diagnostic was produced.  Output is independent of the
    order entities/links/concerns appear in, across and within files.  A file
    whose YAML cannot be read is one error and contributes nothing else.
    """
    diagnostics: list[Diagnostic] = []
    meta: dict = {}
    decls: dict[str, list] = {section: [] for section in SECTIONS}  # [(item, location)]
    for doc in docs:
        try:
            reader = _RepositoryReader(doc)
            reader.read()
        except yaml.YAMLError as exc:
            diagnostics.append(yaml_error(doc.path, exc))
            continue
        diagnostics += reader.diagnostics
        for section, found in reader.decls.items():
            decls[section] += found
        for key, value in reader.meta.items():
            meta.setdefault(key, value)  # the first file's value wins

    repo = Repository(**meta)  # a name or version no file gives keeps its default
    for section in SECTIONS:
        for item, location in sorted(decls[section], key=lambda decl: decl[0].id):
            add_reported(repo, section, item, location, diagnostics)

    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return repo, diagnostics


class _CanonicalWriter(yaml.SafeDumper):
    """Writes a value as ``SafeDumper`` does with sorted keys, Unicode, block
    style and width 100, but never with anchors and aliases, and with a string
    holding U+0085 double-quoted, where it is escaped as ``\\N``, with text
    that JSON's number rule reads as a number (``1e3``) quoted.  It writes
    repository values only.  The emitter's own rules choose each scalar's style
    and tag, and its writers fold what does not fit; in place of the serializer
    and the emitter's event states, one loop takes pending steps off a stack, so
    deep values cannot exhaust the call stack.
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
        if kind is not dict and kind is not list:
            return self.scalar(self.form(value), indent + 2, False)
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
        form = self.form(key)
        if not form[3]:  # ``? key``, and ``: value`` as the next step
            self.write_indicator("?", True, indention=True)
            self.steps.append((indent, ":", value))
            return self.scalar(form, indent + 2, False)
        self.scalar(form, indent + 2, True)
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
            key, tag, text = value, self.DEFAULT_SCALAR_TAG, value
        else:
            represent = self.yaml_representers.get(type(value)) or self.yaml_representers[None]
            node = represent(self, value)
            key = tag, text = node.tag, node.value  # no repository value gets a style hint
        if key not in self.forms:
            self.analysis = analysis = self.analyze_scalar(text)
            detected = self.resolve(yaml.ScalarNode, text, (True, False))
            implicit = detected == tag, self.DEFAULT_SCALAR_TAG == tag
            self.event = yaml.ScalarEvent(None, tag, implicit, text)
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
_CanonicalWriter.add_implicit_resolver(*JSON_FLOAT)


def serialize_repository(repo: Repository) -> str:
    """Canonical YAML text: sorted ids, sorted keys, stable across runs.

    ``parse_repository([serialize_repository(r)])`` reproduces ``r``; a second
    serialization is byte-identical.
    """
    data = {"meta": {"name": repo.name, "version": repo.version}}
    for section, (_, _, writer) in SECTIONS.items():  # _CanonicalWriter sorts the keys
        items = getattr(repo, section)
        data[section] = [writer(items[key]) for key in sorted(items)]
    return _CanonicalWriter().dump(data)
