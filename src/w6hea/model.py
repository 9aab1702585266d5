"""Core domain model: interrogatives, views, cells, entities, links, concerns.

The model is a 5-view x 7-interrogative grid (the consumer row is a single
merged cell, so 29 cells total) plus a typed entity/link graph with
referential integrity enforced on every mutation.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class ModelError(Exception):
    """Base class for repository mutation errors."""


class DuplicateEntity(ModelError):
    pass


class EmptyName(ModelError):
    pass


class DanglingReference(ModelError):
    pass


class KindMismatch(ModelError):
    pass


class DuplicateLink(ModelError):
    pass


class NegativeWeight(ModelError):
    pass


class InvalidCell(ModelError):
    pass


class InvalidAttribute(ModelError):
    """A known attribute key carries a value outside its vocabulary."""


class NestedTooDeep(ModelError):
    """Attributes or records nest more collections than a repository file holds."""


class Interrogative(str, Enum):
    WHO = "who"
    WHAT = "what"
    WHICH = "which"
    WHERE = "where"
    HOW = "how"
    WHY = "why"
    WHEN = "when"

    @property
    def rank(self) -> int:
        return _INTERROGATIVE_RANK[self]

    @property
    def alias(self) -> str:
        return _INTERROGATIVE_ALIAS[self]


_INTERROGATIVE_RANK = {
    Interrogative.WHO: 1,
    Interrogative.WHAT: 2,
    Interrogative.WHICH: 3,
    Interrogative.WHERE: 4,
    Interrogative.HOW: 5,
    Interrogative.WHY: 6,
    Interrogative.WHEN: 7,
}

_INTERROGATIVE_ALIAS = {
    Interrogative.WHO: "people",
    Interrogative.WHAT: "data",
    Interrogative.WHICH: "selection",
    Interrogative.WHERE: "network",
    Interrogative.HOW: "function",
    Interrogative.WHY: "motivation",
    Interrogative.WHEN: "time",
}


class PrecedenceGraph:
    """Prerequisite formulas over the interrogatives, in disjunctive form.

    ``requirements[q]`` is a tuple of alternative prerequisite sets: asking
    ``q`` is justified once every member of at least one alternative is
    answered.  An edge p -> q exists when p appears in any alternative of q;
    the induced graph must be acyclic.
    """

    DEFAULT_REQUIREMENTS: dict[Interrogative, tuple[frozenset[Interrogative], ...]] = {
        Interrogative.WHO: (),
        Interrogative.WHAT: (),
        Interrogative.WHICH: (),
        Interrogative.WHERE: (),
        Interrogative.HOW: (
            frozenset({Interrogative.WHAT, Interrogative.WHICH}),
            frozenset({Interrogative.WHAT, Interrogative.WHERE}),
        ),
        Interrogative.WHY: (
            frozenset({Interrogative.WHAT, Interrogative.HOW}),
        ),
        Interrogative.WHEN: (
            frozenset({Interrogative.WHERE, Interrogative.HOW}),
        ),
    }

    def __init__(self, requirements=None):
        self.requirements = dict(
            requirements if requirements is not None else self.DEFAULT_REQUIREMENTS
        )
        for i in Interrogative:
            self.requirements.setdefault(i, ())
        order = self.topological_order()
        if len(order) != len(Interrogative):
            raise ValueError("precedence graph contains a cycle")

    def prerequisites(self, i: Interrogative) -> list[frozenset[Interrogative]]:
        return list(self.requirements[i])

    def edges(self) -> set[tuple[Interrogative, Interrogative]]:
        out = set()
        for q, alternatives in self.requirements.items():
            for alt in alternatives:
                for p in alt:
                    out.add((p, q))
        return out

    def topological_order(self) -> list[Interrogative]:
        """Kahn's algorithm with interrogative rank as the tie-break."""
        indegree = {i: 0 for i in Interrogative}
        successors: dict[Interrogative, set[Interrogative]] = {i: set() for i in Interrogative}
        for p, q in self.edges():
            if q not in successors[p]:
                successors[p].add(q)
                indegree[q] += 1
        ready = [(i.rank, i) for i in Interrogative if indegree[i] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            _, node = heapq.heappop(ready)
            order.append(node)
            for succ in successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, (succ.rank, succ))
        return order


_DEFAULT_PRECEDENCE = PrecedenceGraph()


def interrogative_order() -> list[Interrogative]:
    """The canonical who..when ordering (topological sort, rank tie-break)."""
    return _DEFAULT_PRECEDENCE.topological_order()


def prerequisites(i: Interrogative) -> list[frozenset[Interrogative]]:
    """Alternative prerequisite sets for one interrogative (empty for the first four)."""
    return _DEFAULT_PRECEDENCE.prerequisites(i)


class View(str, Enum):
    SCOPE = "scope"
    OWNER = "owner"
    DESIGNER = "designer"
    BUILDER = "builder"
    CONSUMER = "consumer"

    @property
    def rank(self) -> int:
        return _VIEW_RANK[self]

    @property
    def label(self) -> str:
        return _VIEW_LABEL[self]

    @property
    def stakeholder_groups(self) -> list[str]:
        return list(_VIEW_STAKEHOLDERS[self])


_VIEW_RANK = {
    View.SCOPE: 1,
    View.OWNER: 2,
    View.DESIGNER: 3,
    View.BUILDER: 4,
    View.CONSUMER: 5,
}

_VIEW_LABEL = {
    View.SCOPE: "Scope (Ballpark View)",
    View.OWNER: "Business Model (Owner's View)",
    View.DESIGNER: "System Model (Designer's View)",
    View.BUILDER: "Technology Model (Builder's View)",
    View.CONSUMER: "Detailed Representations (Consumer's View)",
}

_VIEW_STAKEHOLDERS = {
    View.SCOPE: (
        "business development directors",
        "delivery managers",
        "CIOs",
        "CFOs",
        "CSOs",
    ),
    View.OWNER: (
        "shareholders",
        "investors",
        "founders",
        "board of governors",
    ),
    View.DESIGNER: (
        "enterprise architects",
        "requirements engineers",
        "project managers",
        "security architects",
        "privacy specialists",
        "regulators",
        "auditors",
        "business continuity planners",
    ),
    View.BUILDER: (
        "developers",
        "programmers",
        "DevOps engineers",
        "network engineers",
        "SRE engineers",
    ),
    View.CONSUMER: (
        "partner business owners",
        "external architects",
        "external developers",
    ),
}


@dataclass(frozen=True, order=True)
class ViewCell:
    """One cell of the grid; the consumer view is a single merged cell."""

    view: View
    interrogative: Optional[Interrogative] = None

    def __post_init__(self):
        if self.view is View.CONSUMER:
            if self.interrogative is not None:
                raise InvalidCell("consumer view is a single merged cell")
        elif self.interrogative is None:
            raise InvalidCell(f"view {self.view.value!r} requires an interrogative")

    def key(self) -> str:
        if self.interrogative is None:
            return self.view.value
        return f"{self.view.value}/{self.interrogative.value}"

    @property
    def sort_key(self) -> tuple[int, int]:
        irank = self.interrogative.rank if self.interrogative else 0
        return (self.view.rank, irank)


def cells() -> list[ViewCell]:
    """All 29 cells in row-major order, merged consumer cell last."""
    out = []
    for view in sorted((v for v in View if v is not View.CONSUMER), key=lambda v: v.rank):
        for interrogative in interrogative_order():
            out.append(ViewCell(view, interrogative))
    out.append(ViewCell(View.CONSUMER))
    return out


ENTITY_KINDS = (
    "microservice",
    "api",
    "business_function",
    "business_process",
    "organization",
    "data_element",
    "location",
    "deployment_target",
    "business_cycle",
    "business_rule",
    "stakeholder_group",
    "sdk",
    "code_sample",
)

MICROSERVICE_CATEGORIES = ("presentation", "system", "integrity")
API_EXPOSURES = ("internal", "external")
DATA_PATTERNS = ("event_sourcing", "side_car")

# (kind, attribute key) -> the values an enumerated attribute may take.
ATTRIBUTE_ENUMS: dict[tuple[str, str], tuple[str, ...]] = {
    ("microservice", "category"): MICROSERVICE_CATEGORIES,
    ("api", "exposure"): API_EXPOSURES,
    ("data_element", "pattern"): DATA_PATTERNS,
}

# Known attribute keys per kind; anything else is accepted but flagged.
ATTRIBUTE_VOCABULARY: dict[str, tuple[str, ...]] = {
    "microservice": ("category", "tech_stack"),
    "api": ("methods", "exposure", "gateway_rules", "endpoint_mappings"),
    "data_element": ("pattern", "persisted"),
    "deployment_target": ("namespace", "replicas", "images", "endpoints", "selector"),
    "location": ("region",),
    "sdk": ("language", "url"),
    "code_sample": ("language", "url"),
}

# kind -> (allowed source entity kinds, allowed target kinds).
# "concern" as a target kind means the link points at a concern id.
LINK_SIGNATURES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "automates": (("microservice",), ("business_function",)),
    "exposes": (("api",), ("microservice",)),
    "owns_data": (("microservice",), ("data_element",)),
    "resides_at": (("microservice", "deployment_target"), ("location",)),
    "deployed_on": (("microservice",), ("deployment_target",)),
    "motivated_by": (("microservice", "api"), ("concern",)),
    "scheduled_on": (("microservice", "api"), ("business_cycle",)),
    "implements_rule": (("microservice", "api"), ("business_rule",)),
    "serves": (("api",), ("organization",)),
    "documents": (("sdk", "code_sample"), ("microservice", "api")),
}


# Collections an entity's attributes or a concern's records may nest, themselves
# included.  A repository file holds both three levels down, so a repository
# the model accepts is always written within the file format's 100 levels.
FIELD_NESTING_LIMIT = 97


def nesting(value) -> int:
    """How many collections deep ``value`` nests, itself included (0 for a scalar),
    counted up to one past ``FIELD_NESTING_LIMIT`` (a list holding itself stops there)."""
    depth, level = 0, [value]
    while depth <= FIELD_NESTING_LIMIT and (
        level := [v for v in level if isinstance(v, (dict, list, tuple, set))]
    ):
        depth += 1
        level = [c for v in level for c in ((*v, *v.values()) if isinstance(v, dict) else v)]
    return depth


_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(text: str) -> str:
    return _SLUG_RE.sub("-", text.lower()).strip("-")


def entity_id(kind: str, name: str) -> str:
    return f"{kind}.{slugify(name)}"


def link_id(kind: str, source: str, target: str) -> str:
    return f"{kind}--{source}--{target}"


@dataclass
class Entity:
    kind: str
    name: str
    attributes: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        return entity_id(self.kind, self.name)


@dataclass
class Link:
    kind: str
    source: str
    target: str
    weight: float = 1.0

    @property
    def id(self) -> str:
        return link_id(self.kind, self.source, self.target)


@dataclass
class Concern:
    id: str
    cell: ViewCell
    statement: str = ""
    entity_refs: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)


@dataclass
class Repository:
    """Id-indexed entity/link/concern collections with referential integrity."""

    name: str = "repository"
    version: str = "0"
    entities: dict[str, Entity] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)
    concerns: dict[str, Concern] = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------

    def entities_of_kind(self, kind: str) -> list[Entity]:
        return [e for e in self.entities.values() if e.kind == kind]

    def links_of_kind(self, kind: str) -> list[Link]:
        return [l for l in self.links.values() if l.kind == kind]

    def concerns_at(self, cell: ViewCell) -> list[Concern]:
        return [c for c in self.concerns.values() if c.cell == cell]

    # -- mutation --------------------------------------------------------

    def add_entity(self, e: Entity) -> str:
        eid = e.id
        if eid in self.entities:
            raise DuplicateEntity(f"entity {eid!r} already exists")
        self.check_entity(e)
        self.entities[eid] = e
        return eid

    def check_entity(self, e: Entity) -> None:
        """Raise the ModelError ``add_entity`` would, short of a duplicate id."""
        if e.kind not in ENTITY_KINDS:
            raise KindMismatch(f"unknown entity kind {e.kind!r}")
        if not slugify(e.name):  # a name with no ASCII letter or digit has an empty id
            raise EmptyName(f"entity of kind {e.kind!r} has an empty name")
        if nesting(e.attributes) > FIELD_NESTING_LIMIT:
            raise NestedTooDeep(
                f"entity {e.id!r}: attributes nest more than {FIELD_NESTING_LIMIT} deep"
            )
        for key, value in e.attributes.items():
            allowed = ATTRIBUTE_ENUMS.get((e.kind, key))
            if allowed is not None and value is not None and value not in allowed:
                raise InvalidAttribute(
                    f"entity {e.id!r}: {key} must be one of {allowed}, got {value!r}"
                )

    def add_link(self, l: Link) -> str:
        for error, message in self._link_faults(l):
            raise error(message)
        lid = l.id
        if lid in self.links:
            raise DuplicateLink(f"link {lid!r} already exists")
        self.links[lid] = l
        return lid

    def _link_faults(self, l: Link):
        """Yield ``(ModelError subclass, message)`` for each fault of one link."""
        if l.kind not in LINK_SIGNATURES:
            yield KindMismatch, f"unknown link kind {l.kind!r}"
            return
        if l.weight < 0:
            yield NegativeWeight, f"link {l.id!r} has negative weight {l.weight}"
        elif not math.isfinite(l.weight):
            yield NegativeWeight, f"link {l.id!r} has non-finite weight {l.weight}"
        source_kinds, target_kinds = LINK_SIGNATURES[l.kind]
        src = self.entities.get(l.source)
        if src is None:
            yield DanglingReference, f"link source {l.source!r} does not resolve"
        elif src.kind not in source_kinds:
            yield KindMismatch, (
                f"{l.kind} source must be one of {source_kinds}, "
                f"got {src.kind!r} ({l.source})"
            )
        if "concern" in target_kinds and l.target in self.concerns:
            return
        tgt = self.entities.get(l.target)
        if tgt is None:
            yield DanglingReference, f"link target {l.target!r} does not resolve"
        elif tgt.kind not in target_kinds:
            yield KindMismatch, (
                f"{l.kind} target must be one of {target_kinds}, "
                f"got {tgt.kind!r} ({l.target})"
            )

    def add_concern(self, c: Concern) -> str:
        if c.id in self.concerns:
            raise DuplicateEntity(f"concern {c.id!r} already exists")
        self.check_concern(c)
        self.concerns[c.id] = c
        return c.id

    def check_concern(self, c: Concern) -> None:
        """Raise the ModelError ``add_concern`` would, short of a duplicate id."""
        if not isinstance(c.cell, ViewCell):
            raise InvalidCell(f"concern {c.id!r} has no valid cell")
        if not c.id or not c.id.strip():
            raise EmptyName("concern id must be non-empty")
        if nesting(c.records) > FIELD_NESTING_LIMIT:
            raise NestedTooDeep(
                f"concern {c.id!r}: records nest more than {FIELD_NESTING_LIMIT} deep"
            )
        for ref in c.entity_refs:
            if ref not in self.entities:
                raise DanglingReference(
                    f"concern {c.id!r} references unknown entity {ref!r}"
                )

    # -- integrity -------------------------------------------------------

    def integrity_violations(self) -> list[tuple[str, str]]:
        """Full-scan referential integrity check as ``(subject, message)``
        pairs; an empty list means clean."""
        problems = [
            (l.id, f"link {l.id}: {message}")
            for l in self.links.values()
            for _, message in self._link_faults(l)
        ]
        problems += [
            (c.id, f"concern {c.id}: dangling entity ref {ref!r}")
            for c in self.concerns.values()
            for ref in c.entity_refs
            if ref not in self.entities
        ]
        return problems


def unknown_attributes(e: Entity) -> list[str]:
    """One message per attribute key outside the kind's vocabulary; such
    keys are accepted, and callers report the messages as warnings."""
    vocab = ATTRIBUTE_VOCABULARY.get(e.kind, ())
    return [
        f"entity {e.id!r}: attribute {key!r} is not in the {e.kind!r} vocabulary"
        for key in e.attributes
        if key not in vocab
    ]
