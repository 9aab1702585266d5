"""Extractors that populate designer/builder cells from OpenAPI documents and
Kubernetes manifests, plus the merge step that folds proposals into a
repository.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .model import (
    Concern,
    Entity,
    Interrogative,
    Link,
    Repository,
    View,
    ViewCell,
    entity_id,
    slugify,
)
from .repofmt import SECTIONS, Diagnostic, Location, SourceDocument, add_reported, yaml_error
from .yamlload import load, load_all

HTTP_VERBS = ("get", "put", "post", "delete", "options", "head", "patch", "trace")

K8S_WORKLOAD_KINDS = ("Deployment", "StatefulSet")
K8S_SUPPORTED_KINDS = K8S_WORKLOAD_KINDS + ("Service", "Namespace")

# Where a workload's ``app`` label is read, first to last.
APP_LABEL_PATHS = (
    ("spec", "selector", "matchLabels", "app"),
    ("metadata", "labels", "app"),
    ("spec", "template", "metadata", "labels", "app"),
)


@dataclass
class IngestProposal:
    """Entities/links/concerns extracted from one source, to be merged later."""

    entities: list[Entity] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    concerns: list[Concern] = field(default_factory=list)
    source: str = ""


def _warn(diags, path, message):
    diags.append(Diagnostic("warning", message, Location(path)))


def _at(value, *keys, kind=dict):
    """The field of ``value`` at ``keys``, walking through mappings, if it is a
    ``kind`` (a type or a tuple of types; a bool is only an ``object``), else
    None: in an outside document a field of the wrong shape reads as absent."""
    for key in keys:
        value = value.get(key) if isinstance(value, dict) else None
    if isinstance(value, bool) and kind is not object:
        return None
    return value if isinstance(value, kind) else None


def _items(value, *keys) -> list[dict]:
    """The mapping items of the list at ``keys`` below ``value``, else none."""
    return [item for item in _at(value, *keys, kind=list) or () if isinstance(item, dict)]


def ingest_openapi(doc: SourceDocument) -> tuple[IngestProposal, list[Diagnostic]]:
    """Extract api entities with method records from an OpenAPI 3.x document.

    Grouping: one api entity per declared tag when the document has tags,
    otherwise one per ``info.title``.  Each (path, verb) pair becomes one
    method record carrying the verb, declared response codes, and
    ``design_tech: OpenAPI``.  A concern holding the record table is proposed
    at the designer/how cell.
    """
    proposal = IngestProposal(source=doc.path)
    diags: list[Diagnostic] = []

    try:
        data = load(doc.text, doc.path)
    except yaml.YAMLError as exc:
        diags.append(yaml_error(doc.path, exc))
        return proposal, diags
    if not isinstance(data, dict):
        diags.append(Diagnostic("error", "not an OpenAPI document", Location(doc.path)))
        return proposal, diags

    version = str(data.get("openapi", data.get("swagger", "")))
    if not version.startswith("3"):
        _warn(diags, doc.path, f"unsupported OpenAPI version {version!r}; parsing best-effort")

    # A title that is not text, or has no letter or digit, reads as absent.
    title = _at(data, "info", "title", kind=str)
    title = title if title and slugify(title) else "untitled-api"
    names = (_at(tag, "name", kind=str) for tag in _items(data, "tags"))
    tags = [name for name in names if name and slugify(name)]

    methods: dict[str, list[dict]] = {}  # api name -> its method records
    paths = _at(data, "paths")
    if paths is None:
        paths = {}
        _warn(diags, doc.path, "document has no 'paths' mapping")
    if not paths:
        _warn(diags, doc.path, "document declares no operations")

    for path in sorted(paths, key=str):
        item = _at(paths, path)
        if item is None:
            _warn(diags, doc.path, f"path {path!r} is not a mapping; skipped")
            continue
        for verb in HTTP_VERBS:
            if (op := _at(item, verb)) is None:
                continue
            codes = sorted(str(c) for c in _at(op, "responses") or ())
            status = codes[0] if codes else None
            record = {
                "verb": verb,
                "path": path,
                "design_tech": "OpenAPI",
                "status_code": int(status) if status and status.isdecimal() else status,
            }
            if len(codes) > 1:
                record["status_codes"] = codes
            # Untagged operations fall back to the document title even when tags exist.
            group = next((t for t in _at(op, "tags", kind=list) or () if t in tags), title)
            methods.setdefault(group, []).append(record)

    if not methods:
        methods[title] = []

    proposal.entities = [Entity("api", n, {"methods": methods[n]}) for n in sorted(methods)]
    refs = [api.id for api in proposal.entities]
    records = [{"api": ref, **r} for ref, n in zip(refs, sorted(methods)) for r in methods[n]]
    concern_id = f"designer.how.openapi-{slugify(title)}"
    proposal.concerns.append(
        Concern(
            id=concern_id,
            cell=ViewCell(View.DESIGNER, Interrogative.HOW),
            statement=f"API design details extracted from {doc.path}",
            entity_refs=refs,
            records=records,
        )
    )
    return proposal, diags


def ingest_k8s(
    doc: SourceDocument, repo: Optional[Repository] = None
) -> tuple[IngestProposal, list[Diagnostic]]:
    """Extract deployment targets and networking records from K8s manifests.

    Deployments/StatefulSets become deployment_target entities (namespace,
    replica count, container images); Services contribute endpoint attributes
    to the like-named target.  When a workload's ``app`` label is non-empty
    text naming a microservice in ``repo``, a deployed_on link is proposed.
    A concern holding the pod/network table is proposed at the builder/where
    cell.  A manifest without a string ``metadata.name`` holding a letter or
    digit that folds to ASCII, or a workload whose ``spec.replicas`` is set but
    not an integer, is skipped with a warning.
    """
    proposal = IngestProposal(source=doc.path)
    diags: list[Diagnostic] = []
    targets: dict[str, Entity] = {}
    rows: list[dict] = []

    try:
        manifests = [m for m in load_all(doc.text, doc.path) if m is not None]
    except yaml.YAMLError as exc:
        diags.append(yaml_error(doc.path, exc))
        return proposal, diags
    for manifest in manifests:
        if not isinstance(manifest, dict):
            _warn(diags, doc.path, "manifest document is not a mapping; skipped")
            continue
        kind = manifest.get("kind")
        if kind not in K8S_SUPPORTED_KINDS:
            _warn(diags, doc.path, f"unsupported manifest kind {kind!r} skipped")
            continue
        name = _at(manifest, "metadata", "name", kind=str)
        if not (name and slugify(name)):
            _warn(diags, doc.path, f"{kind} without metadata.name skipped")
            continue

        if kind in K8S_WORKLOAD_KINDS:
            replicas = _at(manifest, "spec", "replicas", kind=object)
            replicas = 1 if replicas is None else replicas
            if type(replicas) is not int:  # a bool is not a replica count
                message = f"{kind} {name!r} has non-integer replicas {replicas!r}; skipped"
                _warn(diags, doc.path, message)
                continue
            containers = _items(manifest, "spec", "template", "spec", "containers")
            attributes = {
                "namespace": _at(manifest, "metadata", "namespace", kind=str) or "default",
                "replicas": replicas,
                "images": [i for c in containers if (i := _at(c, "image", kind=str))],
            }
            target = targets.setdefault(name, Entity(kind="deployment_target", name=name))
            target.attributes.update(attributes)
            app = next(filter(None, (_at(manifest, *p, kind=str) for p in APP_LABEL_PATHS)), None)
            ms_id = app and entity_id("microservice", app)
            if repo is not None and ms_id in repo.entities:
                proposal.links.append(Link("deployed_on", ms_id, target.id))
            rows.append({"workload": name, "kind": kind, **attributes})
        elif kind == "Service":
            ports = [
                {
                    "port": _at(port, "port", kind=int),
                    "target_port": _at(port, "targetPort", kind=(int, str)),
                    "protocol": _at(port, "protocol", kind=str) or "TCP",
                }
                for port in _items(manifest, "spec", "ports")
            ]
            target = targets.setdefault(name, Entity(kind="deployment_target", name=name))
            target.attributes["endpoints"] = ports
            selector = _at(manifest, "spec", "selector")
            if selector:
                target.attributes["selector"] = dict(selector)
            rows.append({"service": name, "endpoints": ports})
        elif kind == "Namespace":
            proposal.entities.append(Entity(kind="location", name=name))

    proposal.entities.extend(targets[name] for name in sorted(targets))
    if rows:
        proposal.concerns.append(
            Concern(
                id=f"builder.where.k8s-{slugify(doc.path) or 'manifests'}",
                cell=ViewCell(View.BUILDER, Interrogative.WHERE),
                statement="Cluster deployment and networking extracted from manifests",
                entity_refs=sorted({t.id for t in targets.values()}),
                records=rows,
            )
        )
    return proposal, diags


MERGE_STRATEGIES = ("add_only", "overwrite_attributes")


def merge_proposal(
    repo: Repository, proposal: IngestProposal, strategy: str = "add_only"
) -> tuple[Repository, list[Diagnostic]]:
    """Fold a proposal into a copy of ``repo``.  Idempotent for both strategies.

    ``add_only`` keeps existing entities/concerns untouched on id collision
    (warning); ``overwrite_attributes`` replaces the attribute map / records
    while preserving links.  Every item goes in through the repository's
    adders: a replacement takes the existing item's place, and one the adder
    refuses is reported and the existing item put back.  Dangling
    proposal links are reported and skipped; unknown attributes of merged
    entities are reported as warnings.
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(f"unknown merge strategy {strategy!r}")
    out = copy.deepcopy(repo)
    diags: list[Diagnostic] = []
    origin = Location(proposal.source or "<proposal>")
    for section in SECTIONS:
        items = getattr(out, section)
        for item in map(copy.deepcopy, getattr(proposal, section)):
            key = _key(item)
            old = items.get(key)
            if old is not None:
                if section == "links":
                    continue  # merging twice must equal merging once
                if strategy == "add_only":
                    noun = type(item).__name__.lower()  # entity or concern
                    message = f"{noun} {key!r} already present; kept as-is"
                    diags.append(Diagnostic("warning", message, origin))
                    continue
                if section == "entities":  # an overwrite keeps the existing name
                    item.name = old.name
                del items[key]  # the replacement takes its place
            if not add_reported(out, section, item, origin, diags) and old is not None:
                items[key] = old
    return out, diags


def _key(item) -> Optional[str]:
    """The id ``item`` is kept under, or None when a field it derives from is
    not text, which the item's adder reports."""
    if isinstance(item, Entity) and not (isinstance(item.kind, str) and isinstance(item.name, str)):
        return None
    key = item.id
    return key if isinstance(key, str) else None
