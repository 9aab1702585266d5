"""Independent checks of the program's outputs against the generator's facts.

Expectations come only from what ``gen.py`` planted; nothing here imports
the package under test.  Each ``check_*`` function returns a mapping from
output name to the list of problems found (empty when the output is right).
"""

from __future__ import annotations

import json
import re
from collections import Counter

import yaml

from gen import ALL_RULES, STAKEHOLDER_GROUPS, RepoFacts

try:
    _Loader = yaml.CSafeLoader
except AttributeError:  # PyYAML built without libyaml
    _Loader = yaml.SafeLoader

_DOT_NODE = re.compile(r'^  "([^"]+)" \[shape=\w+\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -- "([^"]+)" \[weight=[^\]]+\];$')
_COVERAGE = re.compile(r"^Coverage: (\d+)/29 cells hold concerns\.$", re.M)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# -- ci_gate ----------------------------------------------------------------


def check_validate(facts: RepoFacts, exit_code: int, stdout: str, stderr: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", exit_code, facts.expected_exit)
    per_rule = Counter(line.split()[1] for line in stdout.splitlines() if line.strip())
    _expect(problems, "findings per rule", {r: per_rule.get(r, 0) for r in ALL_RULES}, facts.findings)
    _expect(problems, "unknown-attribute warnings", stderr.count("is not in the"), facts.unknown_attributes)
    return problems


def check_export_json(facts: RepoFacts, findings_text: str, scores_text: str) -> list[str]:
    problems: list[str] = []
    per_rule = Counter(f["rule_id"] for f in json.loads(findings_text))
    _expect(problems, "findings.json per rule", {r: per_rule.get(r, 0) for r in ALL_RULES}, facts.findings)
    _expect(problems, "scores.json ids", sorted(json.loads(scores_text)), facts.services)
    return problems


def check_matrix(facts: RepoFacts, stdout: str) -> list[str]:
    problems: list[str] = []
    cells = facts.occupied_cells()
    match = _COVERAGE.search(stdout)
    _expect(problems, "occupied cells", int(match.group(1)) if match else None, len(cells))
    statuses = Counter(re.findall(r"\| (empty|partial|filled) \(", stdout))
    want = Counter(cells.values())
    want["empty"] = 29 - len(cells)
    _expect(problems, "cell statuses", dict(statuses), dict(want))
    return problems


# -- what_if -----------------------------------------------------------------


def expected_reuse(facts: RepoFacts) -> dict[str, int]:
    """Distinct functions/organisations reached per service: automates and
    serves directly, exposes through the exposed service's automates."""
    automates: dict[str, set] = {}
    for kind, source, target, _ in facts.links:
        if kind == "automates":
            automates.setdefault(source, set()).add(target)
    reach: dict[str, set] = {}
    for kind, source, target, _ in facts.links:
        if kind in ("automates", "serves"):
            reach.setdefault(source, set()).add(target)
        elif kind == "exposes" and target in automates:
            reach.setdefault(source, set()).update(automates[target])
    return {s: len(t) for s, t in reach.items()}


def expected_graph_size(facts: RepoFacts) -> tuple[int, int]:
    """Nodes and edges of the value graph: entities, concerns and the
    stakeholder groups of every view in use; concern-ref, concern-group and
    link edges, parallel pairs merged."""
    views = {view for view, _, _ in facts.concerns.values()}
    nodes = len(facts.entities) + len(facts.concerns) + sum(STAKEHOLDER_GROUPS[v] for v in views)
    pairs = set()
    group_edges = 0
    for cid, (view, _, refs) in facts.concerns.items():
        pairs.update(frozenset((cid, r)) for r in refs)
        group_edges += STAKEHOLDER_GROUPS[view]
    pairs.update(frozenset((s, t)) for _, s, t, _ in facts.links)
    return nodes, len(pairs) + group_edges


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    nodes, edges = [], []
    for line in text.splitlines():
        if m := _DOT_NODE.match(line):
            nodes.append(m.group(1))
        elif m := _DOT_EDGE.match(line):
            edges.append((m.group(1), m.group(2)))
    return nodes, edges


def _components(nodes: list[str], edges: list[tuple[str, str]]) -> dict[str, str]:
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return {n: find(n) for n in nodes}


def check_what_if(facts: RepoFacts, outputs: dict[str, str], sweep_maps: int, cluster_seeds) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {name: [] for name in outputs}

    lines = outputs["sweep.txt"].splitlines()
    _expect(out["sweep.txt"], "weight maps", len(lines), sweep_maps)
    sizes = {int(line.split()[2]) for line in lines}
    _expect(out["sweep.txt"], "scored services per map", sizes, {len(facts.services)})

    reuse = json.loads(outputs["reuse.json"])
    counts = expected_reuse(facts)
    _expect(out["reuse.json"], "reuse counts", reuse["counts"], dict(sorted(counts.items())))
    want = sorted((s for s, n in counts.items() if n >= 2), key=lambda s: (-counts[s], s))
    _expect(out["reuse.json"], "reuse candidates", reuse["candidates"], want)

    prompts = outputs["elicit.txt"].splitlines()
    _expect(out["elicit.txt"], "prompts", len(prompts), 29)
    answered = sum(1 for p in prompts if p.endswith(" answered"))
    _expect(out["elicit.txt"], "answered prompts", answered, len(facts.occupied_cells()))

    nodes, edges = parse_dot(outputs["graph.dot"])
    _expect(out["graph.dot"], "DOT nodes and edges", (len(nodes), len(edges)), expected_graph_size(facts))
    component = _components(nodes, edges)
    for seed in cluster_seeds:
        name = f"clusters-{seed}.json"
        clusters = json.loads(outputs[name])
        members = [n for c in clusters for n in c]
        if len(members) != len(set(members)) or set(members) != set(nodes):
            out[name].append("clusters do not partition the graph's nodes")
        split = sum(1 for c in clusters if len({component.get(n) for n in c}) != 1)
        _expect(out[name], "clusters spanning several components", split, 0)
    return out


# -- write_back --------------------------------------------------------------


def _load(text: str) -> dict:
    return yaml.load(text, Loader=_Loader)


def check_fmt(facts: RepoFacts, text: str) -> list[str]:
    problems: list[str] = []
    data = _load(text)
    got = (len(data["entities"]), len(data["links"]), len(data["concerns"]))
    _expect(problems, "entities/links/concerns", got, (len(facts.entities), len(facts.links), len(facts.concerns)))
    return problems


def check_openapi(api_facts: dict, text: str) -> list[str]:
    problems: list[str] = []
    apis = [e for e in _load(text)["entities"] if e["kind"] == "api"]
    _expect(problems, "api entities", len(apis), api_facts["apis_after"])
    methods = sum(len((e.get("attributes") or {}).get("methods") or []) for e in apis)
    _expect(problems, "method records", methods, api_facts["operations"])
    return problems


def check_k8s(k8s_facts: dict, text: str, stderr: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, "targets kept by the add-only merge", stderr.count("already present; kept as-is"),
            k8s_facts["kept"])
    data = _load(text)
    targets = sum(1 for e in data["entities"] if e["kind"] == "deployment_target")
    deployed = sum(1 for l in data["links"] if l["kind"] == "deployed_on")
    _expect(problems, "deployment_target / deployed_on", (targets, deployed),
            (k8s_facts["deployments"], k8s_facts["deployments"]))
    return problems
