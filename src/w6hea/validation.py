"""Structural rule engine over a repository.

``RULES`` is the whole catalog: one ``(rule_id, severity, fn)`` row per rule,
where ``fn`` inspects the read-only repository and yields ``(subject,
message)`` pairs.  Findings are sorted by (rule_id, subject) so output is
stable regardless of file order or rule execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Interrogative,
    Repository,
    View,
    ViewCell,
    prerequisites,
)


@dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: str
    subject: str  # entity/link id or "view/interrogative" cell key
    message: str


def _services_and_apis(repo: Repository):
    for e in repo.entities.values():
        if e.kind in ("microservice", "api"):
            yield e


def _motivation_missing(repo: Repository):
    # A why-cell concern reached via motivated_by, from any view, satisfies it.
    motivated = set()
    for link in repo.links_of_kind("motivated_by"):
        concern = repo.concerns.get(link.target)
        if concern and concern.cell.interrogative is Interrogative.WHY:
            motivated.add(link.source)
    for e in _services_and_apis(repo):
        if e.id not in motivated:
            yield e.id, (
                f"{e.kind} {e.name!r} is not motivated by any "
                "why-cell concern (motivated_by)"
            )


def _function_unlinked(repo: Repository):
    automating = {l.source for l in repo.links_of_kind("automates")}
    for e in repo.entities_of_kind("microservice"):
        if e.id not in automating:
            yield e.id, f"microservice {e.name!r} automates no business function"


def _data_ownership(repo: Repository):
    owners: dict[str, set[str]] = {}
    for link in repo.links_of_kind("owns_data"):
        owners.setdefault(link.target, set()).add(link.source)
    for data_id, owner_ids in owners.items():
        data = repo.entities.get(data_id)
        if data is None or not data.attributes.get("persisted"):
            continue
        if len(owner_ids) > 1:
            names = ", ".join(sorted(owner_ids))
            yield data_id, (
                f"persisted data element {data.name!r} is owned by "
                f"multiple microservices: {names}"
            )


def _category_exposure(repo: Repository):
    exposed_by: dict[str, set[str]] = {}
    for link in repo.links_of_kind("exposes"):
        api = repo.entities.get(link.source)
        if api is not None and api.attributes.get("exposure") == "external":
            exposed_by.setdefault(link.target, set()).add(link.source)
    for ms_id, api_ids in exposed_by.items():
        ms = repo.entities.get(ms_id)
        if ms is None or ms.attributes.get("category") != "integrity":
            continue
        names = ", ".join(sorted(api_ids))
        yield ms_id, (
            f"integrity microservice {ms.name!r} is reachable through "
            f"externally exposed APIs: {names}"
        )


def _lifecycle_missing(repo: Repository):
    scheduled = {l.source for l in repo.links_of_kind("scheduled_on")}
    for e in _services_and_apis(repo):
        if e.id not in scheduled:
            yield e.id, (
                f"{e.kind} {e.name!r} has no business-cycle link "
                "(renewal/retirement schedule)"
            )


def _link_integrity(repo: Repository):
    return repo.integrity_violations()


def _precedence(repo: Repository):
    """Flag occupied cells whose prerequisite cells are all empty within the view.

    For each non-consumer view V and interrogative i with at least one concern
    at (V, i): some alternative prerequisite set must be fully covered by
    non-empty cells of V, otherwise the cell is flagged once.
    """
    occupied: dict[View, set[Interrogative]] = {}
    for concern in repo.concerns.values():
        if concern.cell.interrogative is not None:
            occupied.setdefault(concern.cell.view, set()).add(concern.cell.interrogative)

    for view, interrogatives in occupied.items():
        for i in interrogatives:
            alternatives = prerequisites(i)
            if not alternatives or any(alt <= interrogatives for alt in alternatives):
                continue
            wanted = " or ".join(
                "{" + ", ".join(sorted(p.value for p in alt)) + "}"
                for alt in alternatives
            )
            cell = ViewCell(view, i).key()
            yield cell, (
                f"cell {cell} holds concerns but its prerequisites "
                f"{wanted} are not answered within the {view.value} view"
            )


RULES = (
    ("CATEGORY_EXPOSURE", "error", _category_exposure),
    ("DATA_OWNERSHIP", "error", _data_ownership),
    ("FUNCTION_UNLINKED", "warning", _function_unlinked),
    ("LIFECYCLE_MISSING", "info", _lifecycle_missing),
    ("LINK_INTEGRITY", "error", _link_integrity),
    ("MOTIVATION_MISSING", "error", _motivation_missing),
    ("PRECEDENCE_VIOLATION", "warning", _precedence),
)


def _run(repo: Repository, rules) -> list[Finding]:
    findings = [
        Finding(rule_id, severity, subject, message)
        for rule_id, severity, fn in rules
        for subject, message in fn(repo)
    ]
    return sorted(findings, key=lambda f: (f.rule_id, f.subject))


def validate(repo: Repository) -> list[Finding]:
    """Run the full rule catalog; an empty result means fully compliant."""
    return _run(repo, RULES)


def check_precedence(repo: Repository) -> list[Finding]:
    """The PRECEDENCE_VIOLATION findings alone (at most one per occupied cell)."""
    return _run(repo, [row for row in RULES if row[0] == "PRECEDENCE_VIOLATION"])
