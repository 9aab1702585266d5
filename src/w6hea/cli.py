"""Command-line front end.

Exit codes: 0 on success, 1 when error-severity findings are reported,
2 on parse or usage failure.  Human-readable output goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from . import analysis, ingest, report, validation
from .model import Repository, View
from .repofmt import SourceDocument, parse_repository, serialize_repository

REPO_PATTERNS = ("*.ea.yaml", "*.ea.json")
CONFIG_FILENAME = ".w6hea.toml"


def discover_files(paths: tuple[str, ...]) -> list[Path]:
    """Expand positional paths: files as given, directories searched
    recursively for repository files."""
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for pattern in REPO_PATTERNS:
                found.extend(sorted(p.rglob(pattern)))
        else:
            found.append(p)
    return found


def _read_docs(paths: tuple[str, ...]) -> list[SourceDocument]:
    files = discover_files(paths)
    if not files:
        raise click.UsageError("no repository files found")
    docs = []
    for f in files:
        try:
            docs.append(SourceDocument.read(f))
        except OSError as exc:
            raise click.UsageError(f"cannot read {f}: {exc}")
    return docs


def _load_repo(paths: tuple[str, ...]) -> Repository:
    """Parse a repository or exit 2 with diagnostics on stderr."""
    repo, diagnostics = parse_repository(_read_docs(paths))
    for d in diagnostics:
        click.echo(str(d), err=True)
    if repo is None:
        sys.exit(2)
    return repo


def _load_config(path: str | None) -> dict:
    """Flat key=value config (``.w6hea.toml``); section headers are ignored."""
    candidates = [Path(path)] if path else [Path.cwd() / CONFIG_FILENAME]
    out: dict[str, str] = {}
    for candidate in candidates:
        if not candidate.is_file():
            continue
        for line in candidate.read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("["):
                continue
            if "=" in line:
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip().strip("\"'")
    return out


def _parse_weights(spec: str | None) -> dict[str, float]:
    weights: dict[str, float] = {}
    if not spec:
        return weights
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise click.UsageError(f"weights must be view=value pairs, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            weights[key.strip()] = float(value)
        except ValueError:
            raise click.UsageError(f"weight for {key.strip()!r} is not a number")
    return weights


def _config_number(config: dict, key: str, convert, default):
    """A numeric config default; a value that does not convert is a usage error."""
    try:
        return convert(config.get(key, default))
    except ValueError:
        raise click.UsageError(
            f"config value {key} = {config[key]!r} is not a valid {convert.__name__}"
        )


@click.group()
@click.option("--config", "config_path", default=None, help="Config file with defaults.")
@click.pass_context
def main(ctx, config_path):
    """Architecture-as-code toolkit for viewpoint-driven microservice models."""
    ctx.ensure_object(dict)
    ctx.obj["config"] = _load_config(config_path)


@main.command()
@click.argument("paths", nargs=-1, required=True)
@click.pass_context
def validate(ctx, paths):
    """Run the structural rule catalog; exit 1 on error findings."""
    repo = _load_repo(paths)
    findings = validation.validate(repo)
    # click strips the styling itself when stdout is not a terminal.
    use_color = False if os.environ.get("EA_NO_COLOR") else None
    has_errors = False
    for f in findings:
        fg = {"error": "red", "warning": "yellow", "info": "cyan"}.get(f.severity)
        click.echo(
            f"{click.style(f.severity.upper(), fg=fg)} {f.rule_id} {f.subject}: {f.message}",
            color=use_color,
        )
        has_errors = has_errors or f.severity == "error"
    sys.exit(1 if has_errors else 0)


@main.command()
@click.argument("paths", nargs=-1, required=True)
@click.option("--out", "out_dir", default=None, help="Write matrix.md here instead of stdout.")
def matrix(paths, out_dir):
    """Render the 29-cell coverage matrix as Markdown."""
    repo = _load_repo(paths)
    text = report.render_matrix(analysis.coverage_matrix(repo))
    _emit(text, out_dir, "matrix.md")


@main.command()
@click.argument("paths", nargs=-1, required=True)
@click.option("--view", "view_name", default=None, type=click.Choice([v.value for v in View]))
def elicit(paths, view_name):
    """Print the ordered elicitation prompts, marking answered cells."""
    repo = _load_repo(paths)
    view = View(view_name) if view_name else None
    plan = analysis.elicitation_plan(repo, view)
    for prompt in plan.prompts:
        cell = prompt.view.value
        if prompt.interrogative is not None:
            cell += f"/{prompt.interrogative.value}"
        marker = "x" if prompt.status == "answered" else " "
        click.echo(f"[{marker}] {cell}: {prompt.question}")


@main.group(name="ingest")
def ingest_group():
    """Extract model elements from external documents."""


def _run_merge(proposal, diags, repo_paths, merge_strategy, write):
    for d in diags:
        click.echo(str(d), err=True)
    if any(d.severity == "error" for d in diags):
        sys.exit(2)
    strategy = "overwrite_attributes" if merge_strategy == "overwrite" else "add_only"
    if repo_paths:
        repo = _load_repo(tuple(repo_paths))
    else:
        repo = Repository()
    merged, merge_diags = ingest.merge_proposal(repo, proposal, strategy)
    for d in merge_diags:
        click.echo(str(d), err=True)
    text = serialize_repository(merged)
    if write:
        if len(repo_paths) != 1 or not Path(repo_paths[0]).is_file():
            raise click.UsageError("--write requires exactly one repository file (--repo)")
        Path(repo_paths[0]).write_text(text, encoding="utf-8")
        click.echo(f"wrote {repo_paths[0]}")
    else:
        click.echo(text, nl=False)
    sys.exit(0)


_ingest_options = [
    click.option(
        "--repo",
        "repo_paths",
        multiple=True,
        help="Repository file(s) to merge the proposal into.",
    ),
    click.option(
        "--merge",
        "merge_strategy",
        type=click.Choice(["add-only", "overwrite"]),
        default="add-only",
        show_default=True,
    ),
    click.option("--write", is_flag=True, help="Rewrite the repository file in place."),
]


def _with_ingest_options(fn):
    for option in reversed(_ingest_options):
        fn = option(fn)
    return fn


@ingest_group.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_with_ingest_options
def openapi(file, repo_paths, merge_strategy, write):
    """Ingest an OpenAPI 3.x document."""
    proposal, diags = ingest.ingest_openapi(SourceDocument.read(file))
    _run_merge(proposal, diags, repo_paths, merge_strategy, write)


@ingest_group.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_with_ingest_options
def k8s(file, repo_paths, merge_strategy, write):
    """Ingest Kubernetes manifests (multi-document YAML)."""
    target = _load_repo(tuple(repo_paths)) if repo_paths else None
    proposal, diags = ingest.ingest_k8s([SourceDocument.read(file)], target)
    _run_merge(proposal, diags, repo_paths, merge_strategy, write)


@main.command()
@click.argument("what", type=click.Choice(["scores", "retire", "reuse", "cluster"]))
@click.argument("paths", nargs=-1, required=True)
@click.option("--threshold", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--weights", "weights_spec", default=None, help="Per-view multipliers, e.g. owner=2,scope=0.5")
@click.pass_context
def analyze(ctx, what, paths, threshold, seed, weights_spec):
    """Score, rank, or cluster the repository's services."""
    config = ctx.obj.get("config", {}) if ctx.obj else {}
    if threshold is None:
        threshold = _config_number(config, "threshold", float, 1.0)
    if seed is None:
        seed = _config_number(config, "seed", int, 0)
    if weights_spec is None:
        weights_spec = config.get("weights")
    repo = _load_repo(paths)
    try:
        weights = _parse_weights(weights_spec)
        if what == "scores":
            scores = analysis.value_scores(repo, weights)
            for eid in sorted(scores):
                click.echo(f"{eid}\t{scores[eid]:g}")
        elif what == "retire":
            for eid, score in analysis.retirement_candidates(repo, threshold, weights):
                click.echo(f"{eid}\t{score:g}")
        elif what == "reuse":
            counts = analysis.reuse_counts(repo)
            for eid in analysis.reuse_candidates(repo):
                click.echo(f"{eid}\t{counts[eid]}")
        else:
            graph = analysis.build_value_graph(repo)
            for idx, cluster in enumerate(analysis.cluster_graph(graph, seed)):
                click.echo(f"cluster {idx}: " + ", ".join(sorted(cluster)))
    except (analysis.UnknownView, ValueError) as exc:
        raise click.UsageError(str(exc))


@main.command()
@click.argument("what", type=click.Choice(["dot", "json"]))
@click.argument("paths", nargs=-1, required=True)
@click.option("--out", "out_dir", required=True, help="Output directory.")
def export(what, paths, out_dir):
    """Write machine-readable exports (graph.dot, findings.json, scores.json)."""
    repo = _load_repo(paths)
    if what == "dot":
        graph = analysis.build_value_graph(repo)
        _emit(report.export_graph_dot(graph), out_dir, "graph.dot")
    else:
        findings = validation.validate(repo)
        _emit(report.export_findings_json(findings), out_dir, "findings.json")
        _emit(report.export_scores_json(analysis.value_scores(repo)), out_dir, "scores.json")


@main.command()
@click.argument("paths", nargs=-1, required=True)
@click.option("--write", is_flag=True, help="Rewrite files in place (single-file output).")
def fmt(paths, write):
    """Canonicalize repository files (idempotent)."""
    text = serialize_repository(_load_repo(paths))
    if write:
        files = discover_files(paths)
        if len(files) != 1:
            raise click.UsageError("--write needs exactly one file (multi-file merge is lossy)")
        files[0].write_text(text, encoding="utf-8")
        click.echo(f"wrote {files[0]}")
    else:
        click.echo(text, nl=False)


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        click.echo(text, nl=False)
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / filename).write_text(text, encoding="utf-8")
    click.echo(f"wrote {out / filename}")


if __name__ == "__main__":
    main()
