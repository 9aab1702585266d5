"""Text format for architecture repositories: parse with located diagnostics,
serialize canonically.

A repository is one or more ``*.ea.yaml`` / ``*.ea.json`` files, each holding
``meta``, ``entities``, ``links``, and ``concerns`` sections.  Files are
combined into a single repository; cross-file references are allowed.  All
problems are reported as diagnostics pointing at the offending line; parsing
never raises on malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import yaml

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


_constructor = yaml.constructor.SafeConstructor()


def _value(node):
    """Plain-Python value of a composed YAML node."""
    return _constructor.construct_object(node, deep=True)


def _loc(path: str, node) -> Location:
    mark = node.start_mark
    return Location(path, mark.line + 1, mark.column + 1)


class _DocWalker:
    """Walks one composed YAML document, collecting located declarations."""

    def __init__(self, path: str, diagnostics: list[Diagnostic]):
        self.path = path
        self.diagnostics = diagnostics

    def error(self, node, message: str):
        self.diagnostics.append(Diagnostic("error", message, _loc(self.path, node)))

    def warning(self, node, message: str):
        self.diagnostics.append(Diagnostic("warning", message, _loc(self.path, node)))

    def mapping_items(self, node):
        if not isinstance(node, yaml.MappingNode):
            self.error(node, "expected a mapping")
            return []
        return node.value

    def sequence_items(self, node):
        if not isinstance(node, yaml.SequenceNode):
            self.error(node, "expected a sequence")
            return []
        return node.value


@dataclass
class _Decl:
    """A parsed declaration plus where it came from."""

    payload: object
    location: Location


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
    entity_decls: list[_Decl] = []
    link_decls: list[_Decl] = []
    concern_decls: list[_Decl] = []

    for doc in docs:
        try:
            nodes = list(yaml.compose_all(doc.text))
        except yaml.YAMLError as exc:
            line, column = 1, 1
            if getattr(exc, "problem_mark", None) is not None:
                line = exc.problem_mark.line + 1
                column = exc.problem_mark.column + 1
            diagnostics.append(
                Diagnostic("error", f"invalid YAML: {exc}", Location(doc.path, line, column))
            )
            continue
        walker = _DocWalker(doc.path, diagnostics)
        for node in nodes:
            if node is None:
                continue
            _collect(walker, node, meta, entity_decls, link_decls, concern_decls)

    repo = Repository(name=meta.get("name", "repository"), version=str(meta.get("version", "0")))

    # Entities first, then concerns, then links: links may point at concerns.
    for decl in sorted(entity_decls, key=lambda d: d.payload.id):
        if _apply(repo.add_entity, decl, diagnostics):
            for message in unknown_attributes(decl.payload):
                diagnostics.append(Diagnostic("warning", message, decl.location))
    for decl in sorted(concern_decls, key=lambda d: d.payload.id):
        _apply(repo.add_concern, decl, diagnostics)
    for decl in sorted(link_decls, key=lambda d: d.payload.id):
        _apply(repo.add_link, decl, diagnostics)

    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return repo, diagnostics


def _apply(adder, decl: _Decl, diagnostics: list[Diagnostic]) -> bool:
    """Add one declaration; on a model error record it and return False."""
    try:
        adder(decl.payload)
    except ModelError as exc:
        diagnostics.append(Diagnostic("error", str(exc), decl.location))
        return False
    return True


def _collect(walker, root, meta, entity_decls, link_decls, concern_decls):
    for key_node, value_node in walker.mapping_items(root):
        key = _value(key_node)
        if key == "meta":
            for mk, mv in walker.mapping_items(value_node):
                meta.setdefault(_value(mk), _value(mv))  # the first file's value wins
        elif key == "entities":
            for item in walker.sequence_items(value_node):
                decl = _entity_decl(walker, item)
                if decl is not None:
                    entity_decls.append(decl)
        elif key == "links":
            for item in walker.sequence_items(value_node):
                decl = _link_decl(walker, item)
                if decl is not None:
                    link_decls.append(decl)
        elif key == "concerns":
            for item in walker.sequence_items(value_node):
                decl = _concern_decl(walker, item)
                if decl is not None:
                    concern_decls.append(decl)
        else:
            walker.warning(key_node, f"unknown top-level key {key!r} ignored")


def _fields(walker, node) -> Optional[dict]:
    """Mapping node -> {key: (value, value_node)}."""
    if not isinstance(node, yaml.MappingNode):
        walker.error(node, "expected a mapping")
        return None
    out = {}
    for key_node, value_node in node.value:
        out[_value(key_node)] = (_value(value_node), value_node)
    return out


def _entity_decl(walker, node) -> Optional[_Decl]:
    fields_ = _fields(walker, node)
    if fields_ is None:
        return None
    kind = fields_.get("kind", (None, node))[0]
    name = fields_.get("name", (None, node))[0]
    if kind is None or name is None:
        walker.error(node, "entity requires 'kind' and 'name'")
        return None
    attributes = fields_.get("attributes", ({}, node))[0] or {}
    if not isinstance(attributes, dict):
        walker.error(fields_["attributes"][1], "entity attributes must be a mapping")
        return None
    entity = Entity(kind=str(kind), name=str(name), attributes=attributes)
    return _Decl(entity, _loc(walker.path, node))


def _link_decl(walker, node) -> Optional[_Decl]:
    fields_ = _fields(walker, node)
    if fields_ is None:
        return None
    kind = fields_.get("kind", (None, node))[0]
    source = fields_.get("source", (None, node))[0]
    target = fields_.get("target", (None, node))[0]
    if kind is None or source is None or target is None:
        walker.error(node, "link requires 'kind', 'source' and 'target'")
        return None
    weight = fields_.get("weight", (1.0, node))[0]
    try:
        weight = float(weight)
    except (TypeError, ValueError):
        walker.error(fields_["weight"][1], f"link weight must be a number, got {weight!r}")
        return None
    link = Link(kind=str(kind), source=str(source), target=str(target), weight=weight)
    return _Decl(link, _loc(walker.path, node))


def _concern_decl(walker, node) -> Optional[_Decl]:
    fields_ = _fields(walker, node)
    if fields_ is None:
        return None
    cid = fields_.get("id", (None, node))[0]
    view_name = fields_.get("view", (None, node))[0]
    if cid is None or view_name is None:
        walker.error(node, "concern requires 'id' and 'view'")
        return None
    try:
        view = View(str(view_name))
    except ValueError:
        walker.error(fields_["view"][1], f"unknown view {view_name!r}")
        return None
    interrogative = None
    if "interrogative" in fields_:
        raw, raw_node = fields_["interrogative"]
        if raw is not None:
            try:
                interrogative = Interrogative(str(raw))
            except ValueError:
                walker.error(raw_node, f"unknown interrogative {raw!r}")
                return None
    try:
        cell = ViewCell(view, interrogative)
    except ModelError as exc:
        walker.error(node, str(exc))
        return None
    statement = fields_.get("statement", ("", node))[0] or ""
    entity_refs = fields_.get("entity_refs", ([], node))[0] or []
    records = fields_.get("records", ([], node))[0] or []
    if not isinstance(entity_refs, list):
        walker.error(fields_["entity_refs"][1], "entity_refs must be a sequence")
        return None
    if not isinstance(records, list):
        walker.error(fields_["records"][1], "records must be a sequence")
        return None
    concern = Concern(
        id=str(cid),
        cell=cell,
        statement=str(statement),
        entity_refs=[str(r) for r in entity_refs],
        records=records,
    )
    return _Decl(concern, _loc(walker.path, node))


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
    return yaml.safe_dump(
        data, sort_keys=True, allow_unicode=True, default_flow_style=False, width=100
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
