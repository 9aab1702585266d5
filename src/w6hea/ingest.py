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
    ModelError,
    Repository,
    View,
    ViewCell,
    slugify,
    unknown_attributes,
)
from .repofmt import Diagnostic, Location, SourceDocument, YamlLoader, yaml_error

HTTP_VERBS = ("get", "put", "post", "delete", "options", "head", "patch", "trace")

K8S_WORKLOAD_KINDS = ("Deployment", "StatefulSet")
K8S_SUPPORTED_KINDS = K8S_WORKLOAD_KINDS + ("Service", "Namespace")


@dataclass
class IngestProposal:
    """Entities/links/concerns extracted from one source, to be merged later."""

    entities: list[Entity] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    concerns: list[Concern] = field(default_factory=list)
    source: str = ""


def _warn(diags, path, message, line=1):
    diags.append(Diagnostic("warning", message, Location(path, line, 1)))


def _mapping(value) -> dict:
    """``value`` if it is a mapping, else an empty one: in an outside document
    a field of the wrong shape reads as absent."""
    return value if isinstance(value, dict) else {}


def _mappings(value) -> list[dict]:
    """The mapping items of ``value`` if it is a list, else none."""
    return [item for item in value if isinstance(item, dict)] if isinstance(value, list) else []


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
        data = yaml.load(doc.text, Loader=YamlLoader)
    except yaml.YAMLError as exc:
        diags.append(yaml_error(doc.path, exc))
        return proposal, diags
    if not isinstance(data, dict):
        diags.append(Diagnostic("error", "not an OpenAPI document", Location(doc.path, 1, 1)))
        return proposal, diags

    version = str(data.get("openapi", data.get("swagger", "")))
    if not version.startswith("3"):
        _warn(diags, doc.path, f"unsupported OpenAPI version {version!r}; parsing best-effort")

    # A name without a letter or digit would give an empty id: read it as absent.
    title = str(_mapping(data.get("info")).get("title") or "")
    title = title if slugify(title) else "untitled-api"
    tags = [
        t["name"]
        for t in _mappings(data.get("tags"))
        if isinstance(t.get("name"), str) and slugify(t["name"])
    ]

    apis: dict[str, Entity] = {}

    def api_for(group: str) -> Entity:
        if group not in apis:
            apis[group] = Entity(kind="api", name=group, attributes={"methods": []})
        return apis[group]

    paths = data.get("paths")
    if not isinstance(paths, dict):
        paths = {}
        _warn(diags, doc.path, "document has no 'paths' mapping")
    if not paths:
        _warn(diags, doc.path, "document declares no operations")

    for path in sorted(paths, key=str):
        item = paths[path]
        if not isinstance(item, dict):
            _warn(diags, doc.path, f"path {path!r} is not a mapping; skipped")
            continue
        for verb in HTTP_VERBS:
            op = item.get(verb)
            if not isinstance(op, dict):
                continue
            codes = sorted(str(c) for c in _mapping(op.get("responses")))
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
            op_tags = op.get("tags")
            if not isinstance(op_tags, list):
                op_tags = []
            group = next((t for t in op_tags if t in tags), title)
            api_for(group).attributes["methods"].append(record)

    if not apis:
        api_for(title)

    proposal.entities = [apis[name] for name in sorted(apis)]
    records = []
    for api in proposal.entities:
        for rec in api.attributes["methods"]:
            records.append({"api": api.id, **rec})
    concern_id = f"designer.how.openapi-{slugify(title)}"
    proposal.concerns.append(
        Concern(
            id=concern_id,
            cell=ViewCell(View.DESIGNER, Interrogative.HOW),
            statement=f"API design details extracted from {doc.path}",
            entity_refs=[a.id for a in proposal.entities],
            records=records,
        )
    )
    return proposal, diags


def ingest_k8s(
    docs: list[SourceDocument], repo: Optional[Repository] = None
) -> tuple[IngestProposal, list[Diagnostic]]:
    """Extract deployment targets and networking records from K8s manifests.

    Deployments/StatefulSets become deployment_target entities (namespace,
    replica count, container images); Services contribute endpoint attributes
    to the like-named target.  When a workload's ``app`` label matches a
    microservice in ``repo``, a deployed_on link is proposed.  A concern
    holding the pod/network table is proposed at the builder/where cell.
    A manifest without a string ``metadata.name`` holding an ASCII letter or
    digit, or a workload whose ``spec.replicas`` is set but not an integer, is
    skipped with a warning.
    """
    proposal = IngestProposal(source=";".join(d.path for d in docs))
    diags: list[Diagnostic] = []
    targets: dict[str, Entity] = {}
    rows: list[dict] = []
    pending_links: list[tuple[str, str]] = []  # (app label, target id)

    for doc in docs:
        try:
            manifests = [m for m in yaml.load_all(doc.text, Loader=YamlLoader) if m is not None]
        except yaml.YAMLError as exc:
            diags.append(yaml_error(doc.path, exc))
            continue
        for manifest in manifests:
            if not isinstance(manifest, dict):
                _warn(diags, doc.path, "manifest document is not a mapping; skipped")
                continue
            kind = manifest.get("kind")
            if kind not in K8S_SUPPORTED_KINDS:
                _warn(diags, doc.path, f"unsupported manifest kind {kind!r} skipped")
                continue
            metadata = _mapping(manifest.get("metadata"))
            name = metadata.get("name")
            if not isinstance(name, str) or not slugify(name):
                _warn(diags, doc.path, f"{kind} without metadata.name skipped")
                continue
            spec = _mapping(manifest.get("spec"))

            if kind in K8S_WORKLOAD_KINDS:
                replicas = 1 if spec.get("replicas") is None else spec["replicas"]
                if type(replicas) is not int:  # a bool is not a replica count
                    message = f"{kind} {name!r} has non-integer replicas {replicas!r}; skipped"
                    _warn(diags, doc.path, message)
                    continue
                template = _mapping(spec.get("template"))
                containers = _mappings(_mapping(template.get("spec")).get("containers"))
                attributes = {
                    "namespace": metadata.get("namespace", "default"),
                    "replicas": replicas,
                    "images": [c["image"] for c in containers if c.get("image")],
                }
                target = targets.setdefault(name, Entity(kind="deployment_target", name=name))
                target.attributes.update(attributes)
                for labels in (
                    _mapping(spec.get("selector")).get("matchLabels"),
                    metadata.get("labels"),
                    _mapping(template.get("metadata")).get("labels"),
                ):
                    app = _mapping(labels).get("app")
                    if app:
                        pending_links.append((str(app), target.id))
                        break
                rows.append({"workload": name, "kind": kind, **attributes})
            elif kind == "Service":
                ports = [
                    {
                        "port": port.get("port"),
                        "target_port": port.get("targetPort"),
                        "protocol": port.get("protocol", "TCP"),
                    }
                    for port in _mappings(spec.get("ports"))
                ]
                target = targets.setdefault(name, Entity(kind="deployment_target", name=name))
                target.attributes["endpoints"] = ports
                selector = _mapping(spec.get("selector"))
                if selector:
                    target.attributes["selector"] = dict(selector)
                rows.append({"service": name, "endpoints": ports})
            elif kind == "Namespace":
                proposal.entities.append(Entity(kind="location", name=name))

    proposal.entities.extend(targets[name] for name in sorted(targets))

    known_ms = set()
    if repo is not None:
        known_ms = {e.id for e in repo.entities_of_kind("microservice")}
    for app, target_id in pending_links:
        ms_id = f"microservice.{slugify(app)}"
        if ms_id in known_ms:
            proposal.links.append(Link(kind="deployed_on", source=ms_id, target=target_id))

    if rows:
        proposal.concerns.append(
            Concern(
                id=f"builder.where.k8s-{slugify(proposal.source) or 'manifests'}",
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
    while preserving links.  A replacement passes the checks an added item
    would; one that fails is reported and the existing item kept.  Dangling
    proposal links are reported and skipped; unknown attributes of merged
    entities are reported as warnings.
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(f"unknown merge strategy {strategy!r}")
    out = copy.deepcopy(repo)
    diags: list[Diagnostic] = []
    origin = Location(proposal.source or "<proposal>", 1, 1)

    def report(severity: str, message: str) -> None:
        diags.append(Diagnostic(severity, message, origin))

    overwrite = strategy == "overwrite_attributes"
    for entity in map(copy.deepcopy, proposal.entities):
        existing = out.entities.get(entity.id)
        if existing is not None and not overwrite:
            report("warning", f"entity {entity.id!r} already present; kept as-is")
            continue
        try:
            if existing is None:
                out.add_entity(entity)
            else:
                entity = Entity(existing.kind, existing.name, entity.attributes)
                out.check_entity(entity)
                existing.attributes = entity.attributes
        except ModelError as exc:
            report("error", str(exc))
            continue
        for message in unknown_attributes(entity):
            report("warning", message)

    for concern in map(copy.deepcopy, proposal.concerns):
        existing = concern.id in out.concerns
        if existing and not overwrite:
            report("warning", f"concern {concern.id!r} already present; kept as-is")
            continue
        try:
            if existing:
                out.check_concern(concern)
                out.concerns[concern.id] = concern
            else:
                out.add_concern(concern)
        except ModelError as exc:
            report("error", str(exc))

    for link in proposal.links:
        if link.id in out.links:
            continue  # merging twice must equal merging once
        try:
            out.add_link(copy.deepcopy(link))
        except ModelError as exc:
            report("error", str(exc))

    return out, diags
