"""Seeded input generator for the benchmark workloads.

Everything the program sees is produced here from one integer seed: the
same seed gives the same bytes.  Beside the files, each function returns the
facts it planted (violations per rule, occupied cells, expected counts) so
that ``oracle.py`` can check the program's outputs without asking the
program what to expect.

The generator knows the rule catalogue and the precedence formulas only as
the specification states them (docs/format.md and the paper's viewpoint
table); it never imports the package under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

VIEWS = ("scope", "owner", "designer", "builder")
INTERROGATIVES = ("who", "what", "which", "where", "how", "why", "when")

# Precedence formulas of the specification: a dependent cell needs every
# member of at least one alternative answered within its view.
PRECEDENCE = {
    "how": ({"what", "which"}, {"what", "where"}),
    "why": ({"what", "how"},),
    "when": ({"where", "how"},),
}

# Stakeholder groups per view (the paper's viewpoint table); each concern is
# tied to every group of its view in the value graph.
STAKEHOLDER_GROUPS = {
    "scope": 5,
    "owner": 4,
    "designer": 8,
    "builder": 5,
    "consumer": 3,
}

ERROR_RULES = ("MOTIVATION_MISSING", "DATA_OWNERSHIP", "CATEGORY_EXPOSURE")
SOFT_RULES = ("FUNCTION_UNLINKED", "LIFECYCLE_MISSING")
ALL_RULES = ERROR_RULES + SOFT_RULES + ("LINK_INTEGRITY", "PRECEDENCE_VIOLATION")

TECH = ("python", "java", "go", "node", "postgres", "kafka", "redis")
CYCLES = 4
REGIONS = 3
WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0)


def precedence_violations(occupied: set[str]) -> int:
    """Occupied dependent cells of one view whose formulas all fail."""
    count = 0
    for i in occupied:
        alternatives = PRECEDENCE.get(i)
        if alternatives and not any(alt <= occupied for alt in alternatives):
            count += 1
    return count


@dataclass
class RepoParams:
    """Shape of one generated repository."""

    services: int
    files: int = 1
    refs_per_concern: int = 3
    violation_share: float = 0.05
    unknown_share: float = 0.03
    plant_errors: bool = False
    deployment_targets: int = 0  # already modelled targets, for K8s ingest to collide with


@dataclass
class RepoFacts:
    """What the generator planted, in terms a reader of the outputs can check."""

    name: str
    entities: dict[str, str] = field(default_factory=dict)  # id -> kind
    links: list[tuple[str, str, str, float]] = field(default_factory=list)
    concerns: dict[str, tuple[str, str | None, list[str]]] = field(default_factory=dict)
    findings: dict[str, int] = field(default_factory=dict)
    unknown_attributes: int = 0
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text

    @property
    def services(self) -> list[str]:
        return sorted(e for e, k in self.entities.items() if k in ("microservice", "api"))

    @property
    def expected_exit(self) -> int:
        return 1 if any(self.findings[r] for r in ERROR_RULES) else 0

    def occupied_cells(self) -> dict[str, str]:
        """Cell key -> "filled" or "partial" for every cell holding concerns."""
        out: dict[str, str] = {}
        for view, interrogative, refs in self.concerns.values():
            key = view if interrogative is None else f"{view}/{interrogative}"
            if refs:
                out[key] = "filled"
            else:
                out.setdefault(key, "partial")
        return out

    def shape(self) -> dict:
        return {
            "services": sum(1 for k in self.entities.values() if k == "microservice"),
            "files": len(self.files),
            "entities": len(self.entities),
            "links": len(self.links),
            "concerns": len(self.concerns),
            "bytes": sum(len(t.encode()) for t in self.files.values()),
        }


def _pick(rng: random.Random, population: list, share: float, minimum: int) -> set:
    k = min(len(population), max(minimum, round(share * len(population))))
    return set(rng.sample(population, k))


def _occupied_sets(rng: random.Random, plant: bool) -> dict[str, set[str]]:
    """Five occupied interrogatives per view.  Every view is
    precedence-clean unless ``plant``, in which case exactly one view other
    than scope gets one bad cell."""
    clean_choices = (
        {"who", "what", "where", "how", "why"},
        {"what", "which", "where", "how", "when"},
        {"who", "what", "which", "how", "why"},
        {"what", "where", "how", "why", "when"},
        {"who", "what", "which", "where", "how"},
    )
    sets = {v: set(rng.choice(clean_choices)) for v in VIEWS}
    sets["scope"] = {"who", "what", "where", "how", "why"}  # why-cells for motivated_by
    if plant:
        sets[rng.choice(VIEWS[1:])] = {"who", "what", "which", "where", "when"}  # when without how
    return sets


def _split(rng: random.Random, items: list, shares: tuple[float, ...]) -> list[list]:
    """Shuffle ``items`` and cut them into parts of the given shares (the
    last part takes the rest), so the part sizes do not depend on the seed."""
    items = list(items)
    rng.shuffle(items)
    parts, at = [], 0
    for share in shares:
        k = round(share * len(items))
        parts.append(items[at:at + k])
        at += k
    parts.append(items[at:])
    return parts


def make_repo(rng: random.Random, name: str, p: RepoParams) -> RepoFacts:
    """A repository whose amounts (entities, links, concerns, planted
    violations, unknown attributes) depend only on ``p``; the seed picks
    which items they are."""
    n = p.services
    facts = RepoFacts(name=name)
    entities: list[tuple[str, str, dict]] = []  # (kind, name, attributes)

    def add(kind: str, ename: str, attributes: dict | None = None) -> str:
        eid = f"{kind}.{ename}"
        facts.entities[eid] = kind
        entities.append((kind, ename, attributes or {}))
        return eid

    presentation, system, integrity_idx = _split(rng, range(n), (0.4, 0.4))
    category = {}
    for group, cat in ((presentation, "presentation"), (system, "system"), (integrity_idx, "integrity")):
        category.update(dict.fromkeys(group, cat))
    ms = [add("microservice", f"svc-{i:04d}", {"category": category[i], "tech_stack": sorted(rng.sample(TECH, 2))})
          for i in range(n)]
    # An integrity service is only ever behind an internal API, unless planted.
    external, _ = _split(rng, presentation + system, (0.5,))
    external = set(external)
    apis = [add("api", f"api-{i:04d}", {"exposure": "external" if i in external else "internal"})
            for i in range(n)]
    functions = [add("business_function", f"fn-{j:03d}") for j in range(max(3, n // 4))]
    orgs = [add("organization", f"org-{j:03d}") for j in range(max(2, n // 10))]
    persisted_idx, _ = _split(rng, range(n), (0.8,))
    persisted_idx = set(persisted_idx)
    data = [add("data_element", f"data-{i:04d}",
                {"persisted": i in persisted_idx, "pattern": rng.choice(("event_sourcing", "side_car"))})
            for i in range(n)]
    cycles = [add("business_cycle", f"cycle-{j}") for j in range(CYCLES)]
    regions = [add("location", f"region-{j}") for j in range(REGIONS)]
    for m in rng.sample(ms, p.deployment_targets):
        add("deployment_target", "deploy-" + m.split(".", 1)[1])

    # -- concerns: views in turn, every tenth at the consumer cell ----------
    occupied = _occupied_sets(rng, p.plant_errors)
    # Why-cells come first so that motivated_by always has a target.
    view_cells = {v: sorted(occupied[v], key=lambda i: (i != "why", INTERROGATIVES.index(i))) for v in VIEWS}
    referable = ms + apis + data
    why_concerns = []
    placed = 0
    for k in range(2 * n):
        if k % 10 == 9:
            facts.concerns[f"consumer.c{k:04d}"] = ("consumer", None, [])
            continue
        view = VIEWS[placed % len(VIEWS)]
        cells = view_cells[view]
        # The first round visits every occupied cell once.
        interrogative = cells[placed // len(VIEWS)] if placed < 4 * len(cells) else rng.choice(cells)
        placed += 1
        cid = f"{view}.{interrogative}.c{k:04d}"
        facts.concerns[cid] = (view, interrogative, sorted(rng.sample(referable, p.refs_per_concern)))
        if interrogative == "why":
            why_concerns.append(cid)

    # -- planted violations -------------------------------------------------
    services = ms + apis
    findings = dict.fromkeys(ALL_RULES, 0)
    unmotivated = owned_twice = exposed_integrity = set()
    if p.plant_errors:
        unmotivated = _pick(rng, services, p.violation_share, 1)
        owned_twice = _pick(rng, [data[i] for i in sorted(persisted_idx)], p.violation_share, 1)
        exposed_integrity = _pick(rng, integrity_idx, p.violation_share, 1)
        for i in exposed_integrity:
            entities[n + i][2]["exposure"] = "external"
    unscheduled = _pick(rng, services, p.violation_share, 1)
    unautomated = _pick(rng, ms, p.violation_share, 1)
    findings["MOTIVATION_MISSING"] = len(unmotivated)
    findings["DATA_OWNERSHIP"] = len(owned_twice)
    findings["CATEGORY_EXPOSURE"] = len(exposed_integrity)
    findings["LIFECYCLE_MISSING"] = len(unscheduled)
    findings["FUNCTION_UNLINKED"] = len(unautomated)
    answered = {v: {i for view, i, _ in facts.concerns.values() if view == v} for v in VIEWS}
    findings["PRECEDENCE_VIOLATION"] = sum(precedence_violations(s) for s in answered.values())
    facts.findings = findings

    # -- links ----------------------------------------------------------------
    links = facts.links

    def link(kind, source, target, weight=1.0):
        links.append((kind, source, target, weight))

    automated = [i for i in range(n) if ms[i] not in unautomated]
    two_functions, _ = _split(rng, automated, (0.3,))
    two_functions = set(two_functions)
    # A second exposure lets an API inherit another service's functions; an
    # external API never reaches an integrity service this way.
    second_exposure, _ = _split(rng, range(n), (0.15,))
    not_integrity = [ms[i] for i in presentation + system]
    resident, _ = _split(rng, range(n), (0.5,))
    resident = set(resident)
    for i in range(n):
        m, a, d = ms[i], apis[i], data[i]
        if m not in unautomated:
            for f in rng.sample(functions, 2 if i in two_functions else 1):
                link("automates", m, f, rng.choice(WEIGHTS))
        link("exposes", a, m, rng.choice(WEIGHTS))
        link("owns_data", m, d)
        if d in owned_twice:
            link("owns_data", ms[(i + 1) % n], d)
        link("serves", a, rng.choice(orgs), rng.choice(WEIGHTS))
        for s in (m, a):
            if s not in unmotivated:
                link("motivated_by", s, rng.choice(why_concerns), rng.choice(WEIGHTS))
            if s not in unscheduled:
                link("scheduled_on", s, rng.choice(cycles))
        if i in resident:
            link("resides_at", m, rng.choice(regions))
    for i in second_exposure:
        candidates = not_integrity if entities[n + i][2]["exposure"] == "external" else ms
        link("exposes", apis[i], rng.choice([c for c in candidates if c != ms[i]]), 1.0)

    # -- unknown attributes (warning path of the parser) ----------------------
    flagged = _pick(rng, list(range(2 * n)), p.unknown_share, 1)
    for idx in flagged:
        entities[idx][2]["owner_team"] = f"team-{idx % 7}"
    facts.unknown_attributes = len(flagged)

    facts.files = _split_files(rng, facts, entities, p.files)
    return facts


def _entity_text(kind: str, name: str, attributes: dict) -> str:
    lines = [f"  - kind: {kind}", f"    name: {name}"]
    if attributes:
        lines.append("    attributes:")
        for key, value in attributes.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, list):
                value = "[" + ", ".join(value) + "]"
            lines.append(f"      {key}: {value}")
    return "\n".join(lines)


def _link_text(kind, source, target, weight) -> str:
    text = f"  - {{kind: {kind}, source: {source}, target: {target}"
    return text + (f", weight: {weight}}}" if weight != 1.0 else "}")


def _concern_text(cid: str, view: str, interrogative, refs: list[str]) -> str:
    lines = [f"  - id: {cid}", f"    view: {view}"]
    if interrogative is not None:
        lines.append(f"    interrogative: {interrogative}")
    lines.append(f"    statement: Stakeholders of the {view} view ask about {cid.rsplit('.', 1)[-1]}")
    if refs:
        lines.append("    entity_refs: [" + ", ".join(refs) + "]")
    return "\n".join(lines)


def _split_files(rng, facts: RepoFacts, entities, nfiles: int) -> dict[str, str]:
    """Scatter the declarations over ``nfiles`` files in shuffled order;
    later files sit in a subdirectory so discovery recurses."""
    sections = [([], [], []) for _ in range(nfiles)]
    for e in entities:
        sections[rng.randrange(nfiles)][0].append(_entity_text(*e))
    for l in facts.links:
        sections[rng.randrange(nfiles)][1].append(_link_text(*l))
    for cid, (view, interrogative, refs) in facts.concerns.items():
        sections[rng.randrange(nfiles)][2].append(_concern_text(cid, view, interrogative, refs))
    files = {}
    for k, (ents, lnks, cons) in enumerate(sections):
        parts = []
        if k == 0:
            parts.append(f'meta:\n  name: {facts.name}\n  version: "{rng.randrange(1, 9)}"')
        for key, items in (("entities", ents), ("links", lnks), ("concerns", cons)):
            if items:
                rng.shuffle(items)
                parts.append(f"{key}:\n" + "\n".join(items))
        path = f"part-{k}.ea.yaml" if k < 2 else f"more/part-{k}.ea.yaml"
        files[path] = "\n".join(parts) + "\n"
    return files


# -- write_back documents ---------------------------------------------------

VERBS = ("get", "post", "put", "delete", "patch")


def make_openapi(rng: random.Random, repo: RepoFacts, paths: int, tags: int, colliding: int) -> tuple[str, dict]:
    """OpenAPI 3 document; ``colliding`` of the tags name existing APIs so
    the overwrite merge replaces their attributes."""
    existing = [e.split(".", 1)[1] for e, k in repo.entities.items() if k == "api"]
    tag_names = sorted(rng.sample(existing, colliding)) + [f"tag-{j:02d}" for j in range(tags - colliding)]
    lines = ['openapi: "3.0.3"', "info:", "  title: Bench API", '  version: "1.0"', "tags:"]
    lines += [f"  - name: {t}" for t in tag_names]
    lines.append("paths:")
    operations = untagged = 0
    for k in range(paths):
        lines.append(f"  /r{k:03d}/items/{{id}}:")
        tagged = k % 50 != 49
        for verb in sorted(rng.sample(VERBS, 1 + k % 3)):
            lines.append(f"    {verb}:")
            if tagged:
                lines.append(f"      tags: [{tag_names[k % tags]}]")
            else:
                untagged += 1
            lines.append("      responses:")
            for code in sorted(rng.sample(("200", "201", "204", "400", "404", "409"), 1 + (k + 1) % 3)):
                lines.append(f'        "{code}": {{description: r{code}}}')
            operations += 1
    apis_before = len(existing)
    facts = {
        "operations": operations,
        "apis_after": apis_before + (tags - colliding) + (1 if untagged else 0),
    }
    return "\n".join(lines) + "\n", facts


def make_k8s(rng: random.Random, repo: RepoFacts, deployments: int) -> tuple[str, dict]:
    """Deployments and like-named Services whose ``app`` label names a
    generated microservice.  Every target the repository already models is
    among them, so the add-only merge keeps those and warns once each."""
    modelled = sorted(e.split(".", 1)[1][len("deploy-"):] for e, k in repo.entities.items()
                      if k == "deployment_target")
    names = sorted(e.split(".", 1)[1] for e, k in repo.entities.items()
                   if k == "microservice" and e.split(".", 1)[1] not in modelled)
    chosen = sorted(modelled + rng.sample(names, deployments - len(modelled)))
    docs = []
    for name in chosen:
        ns = f"ns-{rng.randrange(4)}"
        docs.append(
            "\n".join(
                [
                    "apiVersion: apps/v1",
                    "kind: Deployment",
                    "metadata:",
                    f"  name: deploy-{name}",
                    f"  namespace: {ns}",
                    "  labels:",
                    f"    app: {name}",
                    "spec:",
                    f"  replicas: {rng.randint(1, 5)}",
                    "  selector:",
                    "    matchLabels:",
                    f"      app: {name}",
                    "  template:",
                    "    metadata:",
                    "      labels:",
                    f"        app: {name}",
                    "    spec:",
                    "      containers:",
                    f"        - name: {name}",
                    f"          image: registry.example/{name}:{rng.randint(1, 9)}.{rng.randint(0, 20)}",
                ]
            )
        )
        docs.append(
            "\n".join(
                [
                    "apiVersion: v1",
                    "kind: Service",
                    "metadata:",
                    f"  name: deploy-{name}",
                    f"  namespace: {ns}",
                    "spec:",
                    "  selector:",
                    f"    app: {name}",
                    "  ports:",
                    f"    - port: {rng.choice((80, 443, 8080))}",
                    f"      targetPort: {rng.randint(3000, 9000)}",
                    "      protocol: TCP",
                ]
            )
        )
    return "---\n".join(d + "\n" for d in docs), {"deployments": deployments, "kept": len(modelled)}


def log_grid(lo: int, hi: int, k: int) -> list[int]:
    """``k`` sizes spread log-uniformly over [lo, hi] at fixed quantiles, so
    the total work is the same for every seed."""
    return [round(lo * math.exp((j + 0.5) / k * math.log(hi / lo))) for j in range(k)]
