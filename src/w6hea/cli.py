"""Command-line front end.

Exit codes: 0 on success, 1 when error-severity findings are reported,
2 on parse or usage failure.  Human-readable output goes to stdout,
diagnostics to stderr.  Each command imports the layers it uses in its body,
so a command pays only for the code it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .model import Repository, View, ViewCell
from .repofmt import SourceDocument, parse_repository, serialize_repository, undecodable

REPO_PATTERNS = ("*.ea.yaml", "*.ea.json")
CONFIG_FILENAME = ".w6hea.toml"


class UsageError(Exception):
    """A bad invocation: reported under the command's usage line, exit 2."""


def discover_files(paths: list[str]) -> list[Path]:
    """Expand positional paths: files as given, directories searched
    recursively for repository files.  A file reached twice is kept once,
    where it was first reached."""
    found: dict[Path, Path] = {}  # resolved path -> the path as first reached
    for raw in paths:
        p = Path(raw)
        named = [f for pattern in REPO_PATTERNS for f in sorted(p.rglob(pattern))] if p.is_dir() else [p]
        for path in named:
            found.setdefault(path.resolve(), path)
    return list(found.values())


def _read(path) -> SourceDocument:
    """Read one input file; one that is not UTF-8 is a located error."""
    try:
        return SourceDocument.read(path)
    except UnicodeDecodeError as exc:
        _report([undecodable(path, exc)])
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _emit(text: str, path=None) -> None:
    """Print ``text``, or write it to ``path`` and say so."""
    if path is None:
        print(text, end="")
        return
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")
    print(f"wrote {path}")


def _rewritable(path):
    """``path``, the one repository file that ``--write`` replaces with the
    canonical text; that text is YAML, so it may not be a ``.json`` file."""
    if str(path).endswith(".json"):
        raise UsageError(f"--write cannot rewrite {path}: the canonical text is YAML, not JSON")
    return path


def _report(diagnostics) -> None:
    """Print diagnostics to stderr; exit 2 if any of them is an error."""
    for d in diagnostics:
        print(d, file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        sys.exit(2)


def _load_repo(paths: list[str]) -> Repository:
    """Parse a repository or exit 2 with diagnostics on stderr."""
    files = discover_files(paths)
    if not files:
        raise UsageError("no repository files found")
    repo, diagnostics = parse_repository([_read(f) for f in files])
    _report(diagnostics)  # the repository is None exactly when one is an error
    return repo


def _load_config(path: str | None) -> dict:
    """Flat key=value config (``.w6hea.toml``); section headers are ignored.
    An explicit path must be readable; the default file is skipped when absent."""
    if path is None:
        path = Path.cwd() / CONFIG_FILENAME
        if not path.exists():
            return {}
    out: dict[str, str] = {}
    for line in _read(path).text.splitlines():
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
            raise UsageError(f"weights must be view=value pairs, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            weights[key.strip()] = float(value)
        except ValueError:
            raise UsageError(f"weight for {key.strip()!r} is not a number")
    return weights


def _config_number(config: dict, key: str, convert, default):
    """A numeric config default; a value that does not convert is a usage error."""
    try:
        return convert(config.get(key, default))
    except ValueError:
        raise UsageError(f"config value {key} = {config[key]!r} is not a valid {convert.__name__}")


def validate(args) -> None:
    """Run the structural rule catalog; exit 1 on error findings."""
    from . import validation

    findings = validation.validate(_load_repo(args.paths))
    colors = {"error": 31, "warning": 33, "info": 36}  # ANSI red, yellow, cyan
    if not (sys.stdout and sys.stdout.isatty()) or os.environ.get("EA_NO_COLOR"):
        colors = {}
    for f in findings:
        label = f.severity.upper()
        if f.severity in colors:
            label = f"\x1b[{colors[f.severity]}m{label}\x1b[0m"
        print(f"{label} {f.rule_id} {f.subject}: {f.message}")
    sys.exit(1 if any(f.severity == "error" for f in findings) else 0)


def matrix(args) -> None:
    """Render the 29-cell coverage matrix as Markdown."""
    from . import analysis, report

    repo = _load_repo(args.paths)
    out = None if args.out is None else Path(args.out) / "matrix.md"
    _emit(report.render_matrix(analysis.coverage_matrix(repo)), out)


def elicit(args) -> None:
    """Print the ordered elicitation prompts, marking answered cells."""
    from . import analysis

    for prompt in analysis.elicitation_plan(_load_repo(args.paths), args.view).prompts:
        marker = "x" if prompt.status == "answered" else " "
        print(f"[{marker}] {ViewCell(prompt.view, prompt.interrogative).key()}: {prompt.question}")


def ingest_documents(args) -> None:
    """Extract model elements from external documents.

    ``openapi`` reads an OpenAPI 3.x document, ``k8s`` Kubernetes manifests
    (multi-document YAML)."""
    document = _read(args.file)
    from . import ingest

    if args.kind == "openapi":
        proposal, diags = ingest.ingest_openapi(document)
    else:
        target = _load_repo(args.repo) if args.repo else None
        proposal, diags = ingest.ingest_k8s(document, target)
    _report(diags)
    repo = _load_repo(args.repo) if args.repo else Repository()
    strategy = "overwrite_attributes" if args.merge == "overwrite" else "add_only"
    merged, merge_diags = ingest.merge_proposal(repo, proposal, strategy)
    _report(merge_diags)
    if args.write and (len(args.repo) != 1 or not Path(args.repo[0]).is_file()):
        raise UsageError("--write requires exactly one repository file (--repo)")
    _emit(serialize_repository(merged), _rewritable(args.repo[0]) if args.write else None)


def analyze(args) -> None:
    """Score, rank, or cluster the repository's services."""
    from . import analysis

    config = args.config  # the mapping main loaded
    if args.threshold is None:
        args.threshold = _config_number(config, "threshold", float, 1.0)
    if args.seed is None:
        args.seed = _config_number(config, "seed", int, 0)
    repo = _load_repo(args.paths)
    try:
        weights = _parse_weights(config.get("weights") if args.weights is None else args.weights)
        if args.what == "scores":
            scores = analysis.value_scores(repo, weights)
            for eid in sorted(scores):
                print(f"{eid}\t{scores[eid]:g}")
        elif args.what == "retire":
            for eid, score in analysis.retirement_candidates(repo, args.threshold, weights):
                print(f"{eid}\t{score:g}")
        elif args.what == "reuse":
            counts = analysis.reuse_counts(repo)
            for eid in analysis.reuse_candidates(repo):
                print(f"{eid}\t{counts[eid]}")
        else:
            graph = analysis.build_value_graph(repo)
            for idx, cluster in enumerate(analysis.cluster_graph(graph, args.seed)):
                print(f"cluster {idx}: " + ", ".join(sorted(cluster)))
    except ValueError as exc:
        raise UsageError(str(exc))


def export(args) -> None:
    """Write machine-readable exports (graph.dot, findings.json, scores.json)."""
    from . import analysis, report, validation

    repo, out = _load_repo(args.paths), Path(args.out)
    if args.what == "dot":
        _emit(report.export_graph_dot(analysis.build_value_graph(repo)), out / "graph.dot")
    else:
        _emit(report.export_findings_json(validation.validate(repo)), out / "findings.json")
        _emit(report.export_scores_json(analysis.value_scores(repo)), out / "scores.json")


def fmt(args) -> None:
    """Canonicalize repository files (idempotent)."""
    text = serialize_repository(_load_repo(args.paths))
    files = discover_files(args.paths) if args.write else [None]
    if len(files) != 1:
        raise UsageError("--write needs exactly one file (multi-file merge is lossy)")
    _emit(text, files[0] and _rewritable(files[0]))


def _parser(commands, name: str, doc: str, run=None) -> argparse.ArgumentParser:
    """The top-level parser, or a subcommand of ``commands``; ``--help`` shows ``doc``."""
    kwargs = dict(description=doc, add_help=False, allow_abbrev=False)
    if commands is None:
        parser = argparse.ArgumentParser(prog=name, **kwargs)
    else:
        parser = commands.add_parser(name, help=doc.splitlines()[0], **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.set_defaults(run=run, parser=parser)
    return parser


def _arg(*flags, **kwargs):
    return flags, kwargs


PATHS = _arg("paths", nargs="+", metavar="PATHS")
# Command name -> the function that runs the command, then its arguments.
COMMANDS = {
    "validate": (validate, PATHS),
    "matrix": (matrix, PATHS, _arg("--out", help="Write matrix.md here instead of stdout.")),
    "elicit": (elicit, PATHS, _arg("--view", choices=[v.value for v in View])),
    "ingest": (ingest_documents, _arg("kind", choices=("openapi", "k8s")),
               _arg("file", metavar="FILE"),
               _arg("--repo", action="append", default=[],
                    help="Repository file(s) to merge the proposal into."),
               _arg("--merge", choices=("add-only", "overwrite"), default="add-only",
                    help="[default: add-only]"),
               _arg("--write", action="store_true", help="Rewrite the repository file in place.")),
    "analyze": (analyze, _arg("what", choices=("scores", "retire", "reuse", "cluster")), PATHS,
                _arg("--threshold", type=float), _arg("--seed", type=int),
                _arg("--weights", help="Per-view multipliers, e.g. owner=2,scope=0.5")),
    "export": (export, _arg("what", choices=("dot", "json")), PATHS,
               _arg("--out", required=True, help="Output directory.")),
    "fmt": (fmt, PATHS, _arg("--write", action="store_true",
                             help="Rewrite files in place (single-file output).")),
}


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Architecture-as-code toolkit for viewpoint-driven microservice models."""
    top = _parser(None, prog_name or "w6hea", main.__doc__)
    top.add_argument("--config", help="Config file with defaults.")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, *arguments) in COMMANDS.items():
        parser = _parser(commands, name, run.__doc__, run)
        for flags, kwargs in arguments:
            parser.add_argument(*flags, **kwargs)
    ns, extra = top.parse_known_args(args)  # None: sys.argv[1:]
    # Like the positional paths before them, paths after an option are paths.
    if extra and (not hasattr(ns, "paths") or any(a.startswith("-") for a in extra)):
        ns.parser.error("unrecognized arguments: " + " ".join(extra))
    ns.paths = getattr(ns, "paths", []) + extra
    try:
        ns.config = _load_config(ns.config)  # every command checks it; analyze reads it
        try:
            ns.run(ns)
        finally:
            if sys.stdout:  # None when the process started with stdout closed
                sys.stdout.flush()
    except UsageError as exc:
        ns.parser.error(str(exc))
    except BrokenPipeError:  # the reader of stdout went away, as in `validate r | head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
