"""Core domain model: interrogatives, views, cells, entities, links, concerns.

The model is a 5-view x 7-interrogative grid (the consumer row is a single
merged cell, so 29 cells total) plus a typed entity/link graph with
referential integrity enforced on every mutation.  The enums' declaration
order is the grid's one ordering: rows scope..consumer, columns who..when.
"""

from __future__ import annotations

import datetime
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class ModelError(Exception):
    """A value or mutation the model refuses; the message names the rule it breaks."""


class Interrogative(str, Enum):
    WHO = "who"
    WHAT = "what"
    WHICH = "which"
    WHERE = "where"
    HOW = "how"
    WHY = "why"
    WHEN = "when"

    @property
    def label(self) -> str:
        return _INTERROGATIVE_LABEL[self]


# Column labels as the paper writes them: the column, then the interrogative.
_INTERROGATIVE_LABEL = {
    Interrogative.WHO: "People (who)",
    Interrogative.WHAT: "Data (what)",
    Interrogative.WHICH: "Selection (which)",
    Interrogative.WHERE: "Network (where)",
    Interrogative.HOW: "Function (How)",
    Interrogative.WHY: "Motivation (Why)",
    Interrogative.WHEN: "Time (when)",
}

# Prerequisite formulas in disjunctive form: asking ``q`` is justified once
# every member of at least one alternative set of PREREQUISITES[q] is answered
# (who, what, which and where need nothing).  Each prerequisite is declared
# before the interrogative that needs it, so declaration order is also an
# order of the precedence.
PREREQUISITES: dict[Interrogative, tuple[frozenset[Interrogative], ...]] = {
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


def interrogative_order() -> list[Interrogative]:
    """The canonical who..when ordering: declaration order."""
    return list(Interrogative)


def prerequisites(i: Interrogative) -> list[frozenset[Interrogative]]:
    """Alternative prerequisite sets for one interrogative (empty for the first four)."""
    return list(PREREQUISITES.get(i, ()))


class View(str, Enum):
    SCOPE = "scope"
    OWNER = "owner"
    DESIGNER = "designer"
    BUILDER = "builder"
    CONSUMER = "consumer"

    @property
    def label(self) -> str:
        return _VIEW_LABEL[self]

    @property
    def stakeholder_groups(self) -> list[str]:
        return list(_VIEW_STAKEHOLDERS[self])


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


@dataclass(frozen=True, slots=True)
class ViewCell:
    """One cell of the grid; the consumer view is a single merged cell."""

    view: View
    interrogative: Optional[Interrogative] = None

    def __post_init__(self):
        if not isinstance(self.view, View):
            raise ModelError(f"cell view must be a View, got {self.view!r}")
        if not isinstance(self.interrogative, (Interrogative, type(None))):
            raise ModelError(
                f"cell interrogative must be an Interrogative, got {self.interrogative!r}"
            )
        if self.view is View.CONSUMER:
            if self.interrogative is not None:
                raise ModelError("consumer view is a single merged cell")
        elif self.interrogative is None:
            raise ModelError(f"view {self.view.value!r} requires an interrogative")

    def key(self) -> str:
        if self.interrogative is None:
            return self.view.value
        return f"{self.view.value}/{self.interrogative.value}"


def cells() -> list[ViewCell]:
    """All 29 cells in row-major order, merged consumer cell last."""
    out = []
    for view in (v for v in View if v is not View.CONSUMER):
        for interrogative in Interrogative:
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

# The kinds concerns motivate, whose stakeholder value the analyses score.
SERVICE_KINDS = ("microservice", "api")

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
    "motivated_by": (SERVICE_KINDS, ("concern",)),
    "scheduled_on": (SERVICE_KINDS, ("business_cycle",)),
    "implements_rule": (SERVICE_KINDS, ("business_rule",)),
    "serves": (("api",), ("organization",)),
    "documents": (("sdk", "code_sample"), SERVICE_KINDS),
}


# Collections an entity's attributes or a concern's records may nest, themselves
# included.
FIELD_NESTING_LIMIT = 97

# The scalars of a repository value: text, an int, a float, a bool, null, a date or a timestamp.
_SCALARS = {str, int, float, bool, type(None), datetime.date, datetime.datetime}


def value_fault(value, what: str) -> Optional[str]:
    """What makes ``value`` no repository value, or None.  A repository value
    is a scalar, a list, or a mapping with scalar keys, and nests at most
    ``FIELD_NESTING_LIMIT`` collections deep, itself included.  The fault is
    the first value or key, level by level, of another type, or a collection
    past the bound (where a list holding itself stops).  ``what`` names the
    value in the message."""
    level, depth = [value], 0
    while level := [v for v in level if type(v) not in _SCALARS]:
        for v in level:
            if type(v) is not list and type(v) is not dict:
                return f"{what} hold a value of type {type(v).__name__}, not a repository value"
        depth += 1
        if depth > FIELD_NESTING_LIMIT:
            return f"{what} nest more than {FIELD_NESTING_LIMIT} deep"
        level = [c for v in level for c in ((*v, *v.values()) if type(v) is dict else v)]
    return None


_SLUG_RE = re.compile(r"[^a-z0-9]+")


# Letters that Unicode does not decompose into an ASCII letter and marks.
_LETTERS = str.maketrans(
    {"ø": "o", "ł": "l", "ß": "ss", "æ": "ae", "œ": "oe", "đ": "d", "þ": "th"}
    | {"Ø": "O", "Ł": "L", "ẞ": "SS", "Æ": "AE", "Œ": "OE", "Đ": "D", "Þ": "TH"}
)


def slugify(text: str) -> str:
    if not text.isascii():  # fold accents, so "Zürich" is "zurich", not "z-rich"
        import unicodedata

        text = unicodedata.normalize("NFD", text.translate(_LETTERS))
        text = "".join(c for c in text if not unicodedata.combining(c))
    return _SLUG_RE.sub("-", text.lower()).strip("-")


def entity_id(kind: str, name: str) -> str:
    return f"{kind}.{slugify(name)}"


_GROUP_PREFIX = "group."


def group_id(name: str) -> str:
    """The value graph's node id for a stakeholder group; no concern id has this form."""
    return _GROUP_PREFIX + slugify(name)


def link_id(kind: str, source: str, target: str) -> str:
    return f"{kind}--{source}--{target}"


_TYPE_NAMES = {str: "text", dict: "a mapping", list: "a list"}


def _type_fault(record, **types: type) -> Optional[str]:
    """The message for the first field of ``record`` that is not of its type, if any."""
    for name, kind in types.items():
        value = getattr(record, name)
        if not isinstance(value, kind):
            return f"{type(record).__name__.lower()} {name} must be {_TYPE_NAMES[kind]}, got {value!r}"
    return None


def weight_fault(value) -> Optional[str]:
    """What is wrong with a link or view weight, or None for an ``int`` or
    ``float`` (not a ``bool``) from 0 to the largest float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"weight {value!r}, not a number"
    if value < 0:
        return f"negative weight {value}"
    if not value <= sys.float_info.max:  # NaN, infinity, or an int past any float
        return f"non-finite weight {value}"
    return None


@dataclass(slots=True)
class Entity:
    kind: str
    name: str
    attributes: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        """``kind.slug``, derived from kind and name with ``slugify`` on each
        access; ``Repository.entities`` keys each entity by it."""
        return entity_id(self.kind, self.name)


@dataclass(slots=True)
class Link:
    kind: str
    source: str
    target: str
    weight: float = 1.0

    @property
    def id(self) -> str:
        return link_id(self.kind, self.source, self.target)


@dataclass(slots=True)
class Concern:
    id: str
    cell: ViewCell
    statement: str = ""
    entity_refs: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)


@dataclass
class Repository:
    """Id-indexed entity/link/concern collections with referential integrity;
    they start empty and change only through the adders."""

    name: str = "repository"
    version: str = "0"
    entities: dict[str, Entity] = field(default_factory=dict, init=False)
    links: dict[str, Link] = field(default_factory=dict, init=False)
    concerns: dict[str, Concern] = field(default_factory=dict, init=False)

    # -- lookups ---------------------------------------------------------

    def entities_of_kind(self, kind: str) -> list[Entity]:
        return [e for e in self.entities.values() if e.kind == kind]

    def links_of_kind(self, kind: str) -> list[Link]:
        return [l for l in self.links.values() if l.kind == kind]

    def concerns_at(self, cell: ViewCell) -> list[Concern]:
        return [c for c in self.concerns.values() if c.cell == cell]

    # -- mutation --------------------------------------------------------

    def add_entity(self, e: Entity) -> str:
        if fault := _type_fault(e, kind=str, name=str, attributes=dict):
            raise ModelError(fault)
        eid = e.id
        if eid in self.entities:
            raise ModelError(f"entity {eid!r} already exists")
        if eid in self.concerns:  # entity and concern ids share one namespace
            raise ModelError(f"entity {eid!r}: a concern already has this id")
        if e.kind not in ENTITY_KINDS:
            raise ModelError(f"unknown entity kind {e.kind!r}")
        if eid.endswith("."):  # no letter or digit of the name folds to ASCII: an empty slug
            raise ModelError(f"entity of kind {e.kind!r} has an empty name")
        if fault := value_fault(e.attributes, f"entity {eid!r}: attributes"):
            raise ModelError(fault)
        for key, value in e.attributes.items():
            allowed = ATTRIBUTE_ENUMS.get((e.kind, key))
            if allowed is not None and value is not None and value not in allowed:
                raise ModelError(
                    f"entity {eid!r}: {key} must be one of {allowed}, got {value!r}"
                )
        self.entities[eid] = e
        return eid

    def add_link(self, l: Link) -> str:
        for message in self._link_faults(l):
            raise ModelError(message)
        lid = l.id
        if lid in self.links:
            raise ModelError(f"link {lid!r} already exists")
        self.links[lid] = l
        return lid

    def _link_faults(self, l: Link):
        """Yield the message of each fault of one link."""
        if fault := _type_fault(l, kind=str, source=str, target=str):
            yield fault
            return
        if l.kind not in LINK_SIGNATURES:
            yield f"unknown link kind {l.kind!r}"
            return
        if fault := weight_fault(l.weight):
            yield f"link {l.id!r} has {fault}"
        source_kinds, target_kinds = LINK_SIGNATURES[l.kind]
        for end, ref, kinds in (("source", l.source, source_kinds), ("target", l.target, target_kinds)):
            if "concern" in kinds and ref in self.concerns:
                continue
            entity = self.entities.get(ref)
            if entity is None:
                yield f"link {end} {ref!r} does not resolve"
            elif entity.kind not in kinds:
                yield f"{l.kind} {end} must be one of {kinds}, got {entity.kind!r} ({ref})"

    def add_concern(self, c: Concern) -> str:
        if fault := _type_fault(c, id=str, statement=str, records=list):
            raise ModelError(fault)
        if not (isinstance(c.entity_refs, list) and all(isinstance(r, str) for r in c.entity_refs)):
            raise ModelError(f"concern entity_refs must be a list of text, got {c.entity_refs!r}")
        if c.id in self.concerns:
            raise ModelError(f"concern {c.id!r} already exists")
        if c.id in self.entities:
            raise ModelError(f"concern {c.id!r}: an entity already has this id")
        if not isinstance(c.cell, ViewCell):
            raise ModelError(f"concern {c.id!r} has no valid cell")
        if not c.id or not c.id.strip():
            raise ModelError("concern id must be non-empty")
        if c.id.startswith(_GROUP_PREFIX):
            raise ModelError(
                f"concern {c.id!r}: ids starting with {_GROUP_PREFIX!r} name stakeholder groups"
            )
        if fault := value_fault(c.records, f"concern {c.id!r}: records"):
            raise ModelError(fault)
        for ref in c.entity_refs:
            if ref not in self.entities:
                raise ModelError(
                    f"concern {c.id!r} references unknown entity {ref!r}"
                )
        self.concerns[c.id] = c
        return c.id

    # -- integrity -------------------------------------------------------

    def integrity_violations(self) -> list[tuple[str, str]]:
        """Full-scan referential integrity check as ``(subject, message)``
        pairs; an empty list means clean."""
        problems = [
            (l.id, f"link {l.id}: {message}")
            for l in self.links.values()
            for message in self._link_faults(l)
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
    unknown = [key for key in e.attributes if key not in vocab]
    if not unknown:
        return []
    eid = e.id  # derived once, not once per key
    return [
        f"entity {eid!r}: attribute {key!r} is not in the {e.kind!r} vocabulary" for key in unknown
    ]
