"""The three workloads: inputs, one repetition of the op sequence, and checks.

A repetition is a closed loop: one caller, the next op only after the
previous one returned, at most one child process at a time.  Each op
records its latency (spawn to reap), the child's max RSS (``os.wait4``),
its exit code and a SHA-256 over everything it printed or wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
from child import CLUSTER_SEEDS, SWEEP_MAPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120

# Input sizes.  They are fixed per workload, so the seed changes content but
# not the amount of work, and one repetition is short enough to repeat
# several times within a run.
CI_GATE_REPOS = 8
CI_GATE_SERVICES = (12, 48)  # log-uniform grid over this range
CI_GATE_FILES = (1, 6)
WHAT_IF_SERVICES = 120
WRITE_BACK_SERVICES = 30
OPENAPI_PATHS, OPENAPI_TAGS, OPENAPI_COLLIDING = 30, 6, 2
K8S_DEPLOYMENTS, K8S_MODELLED = 12, 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["EA_NO_COLOR"] = "1"
    return env


@dataclass
class Proc:
    seconds: float
    exit_code: int
    maxrss_kb: int
    stdout: str
    stderr: str


def spawn(argv: list[str], cwd: Path) -> Proc:
    """Run one child to completion; stdout/stderr go to files so no pipe
    can fill up, and the child is reaped with ``os.wait4`` for its rusage."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    env = child_env()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        seconds,
        proc.returncode,
        usage.ru_maxrss,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def setup_probe(statement: str, cwd: Path) -> float:
    """Fresh interpreter start plus import of the workload's entry point."""
    proc = spawn([sys.executable, "-c", statement], cwd)
    if proc.exit_code != 0:
        raise RuntimeError(f"cannot import the package: {proc.stderr.strip()[-500:]}")
    return proc.seconds


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Op:
    name: str  # unique within the workload
    stage: str
    seconds: float
    maxrss_kb: int = 0
    output: str = ""  # digest key: the op itself, or the output file it feeds
    digest: str = ""
    problems: list[str] = field(default_factory=list)


@dataclass
class Rep:
    ops: list[Op]
    wall: float
    outputs: dict  # what the oracle reads: CLI op name -> (Proc, files written), or output file -> text
    traces: list[dict] = field(default_factory=list)


def _write_files(base: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


class CliWorkload:
    """Shared runner for the workloads that drive ``python -m w6hea.cli``."""

    entry = "import w6hea.cli"

    def __init__(self, work: Path):
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)

    def commands(self) -> list[tuple[str, str, list[str], int, list[str]]]:
        """(op name, stage, CLI args, expected exit code, files it writes)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore inputs that a repetition rewrites."""

    def rep(self, traced: bool, rep_id: str) -> Rep:
        self.reset()
        ops, outputs, traces = [], {}, []
        trace_file = self.work / ".trace.json"
        for name, stage, args, want_exit, writes in self.commands():
            if traced:
                argv = [sys.executable, str(CHILD), "cli", "--trace", str(trace_file),
                        "--trace-id", f"{rep_id}:{name}", "--", *args]
            else:
                argv = [sys.executable, "-m", "w6hea.cli", *args]
            proc = spawn(argv, self.work)
            files = {}
            for rel in writes:
                path = self.work / rel
                files[rel] = path.read_text(encoding="utf-8") if path.is_file() else ""
            op = Op(name, stage, proc.seconds, proc.maxrss_kb, output=name)
            op.digest = digest(f"exit={proc.exit_code}", proc.stdout, proc.stderr,
                               *(p for rel in writes for p in (rel, files[rel])))
            if proc.exit_code != want_exit:
                op.problems.append(f"exit code {proc.exit_code}, expected {want_exit}")
            if "Traceback" in proc.stderr:
                op.problems.append("traceback: " + proc.stderr.strip().splitlines()[-1])
            if traced and trace_file.is_file():
                traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
                trace_file.unlink()
            outputs[name] = (proc, files)
            ops.append(op)
        return Rep(ops, sum(op.seconds for op in ops), outputs, traces)


class CiGate(CliWorkload):
    """CI / pre-commit use: validate, export json and matrix per repository."""

    def __init__(self, seed: int, work: Path):
        super().__init__(work)
        rng = random.Random(f"ci_gate:{seed}")
        sizes = gen.log_grid(*CI_GATE_SERVICES, CI_GATE_REPOS)
        rng.shuffle(sizes)
        splits = [CI_GATE_FILES[0] + k % (CI_GATE_FILES[1] - CI_GATE_FILES[0] + 1) for k in range(CI_GATE_REPOS)]
        rng.shuffle(splits)
        planted = set(rng.sample(range(CI_GATE_REPOS), CI_GATE_REPOS // 2))
        self.repos = []
        for k, n in enumerate(sizes):
            params = gen.RepoParams(services=n, files=splits[k], plant_errors=k in planted)
            facts = gen.make_repo(rng, f"corp-{k}", params)
            _write_files(self.work / f"repo-{k}", facts.files)
            self.repos.append(facts)

    def reset(self) -> None:
        for k in range(len(self.repos)):
            shutil.rmtree(self.work / f"out-{k}", ignore_errors=True)

    def commands(self):
        out = []
        for k, facts in enumerate(self.repos):
            repo = f"repo-{k}"
            out.append((f"validate {repo}", "validate", ["validate", repo], facts.expected_exit, []))
            out.append((f"export-json {repo}", "export_json", ["export", "json", repo, "--out", f"out-{k}"], 0,
                        [f"out-{k}/findings.json", f"out-{k}/scores.json"]))
            out.append((f"matrix {repo}", "matrix", ["matrix", repo], 0, []))
        return out

    def check(self, rep: Rep) -> dict[str, list[str]]:
        out = {}
        for k, facts in enumerate(self.repos):
            proc, _ = rep.outputs[f"validate repo-{k}"]
            out[f"validate repo-{k}"] = oracle.check_validate(facts, proc.exit_code, proc.stdout, proc.stderr)
            _, files = rep.outputs[f"export-json repo-{k}"]
            out[f"export-json repo-{k}"] = oracle.check_export_json(
                facts, files[f"out-{k}/findings.json"], files[f"out-{k}/scores.json"])
            proc, _ = rep.outputs[f"matrix repo-{k}"]
            out[f"matrix repo-{k}"] = oracle.check_matrix(facts, proc.stdout)
        return out

    def shape(self) -> dict:
        shapes = [f.shape() for f in self.repos]
        return {"repos": len(shapes), **{k: sum(s[k] for s in shapes) for k in shapes[0]}}


class WriteBack(CliWorkload):
    """The write path: fmt, OpenAPI and K8s ingest with --write, fmt again."""

    def __init__(self, seed: int, work: Path):
        super().__init__(work)
        rng = random.Random(f"write_back:{seed}")
        params = gen.RepoParams(services=WRITE_BACK_SERVICES, deployment_targets=K8S_MODELLED)
        self.facts = gen.make_repo(rng, "shop", params)
        self.pristine = self.facts.files["part-0.ea.yaml"]
        openapi, self.api_facts = gen.make_openapi(rng, self.facts, OPENAPI_PATHS, OPENAPI_TAGS, OPENAPI_COLLIDING)
        k8s, self.k8s_facts = gen.make_k8s(rng, self.facts, K8S_DEPLOYMENTS)
        _write_files(self.work, {"openapi.yaml": openapi, "k8s.yaml": k8s})

    def reset(self) -> None:
        _write_files(self.work, {"repo.ea.yaml": self.pristine})

    def commands(self):
        repo = "repo.ea.yaml"
        return [
            ("fmt-1", "fmt", ["fmt", repo, "--write"], 0, [repo]),
            ("ingest-openapi", "ingest_openapi",
             ["ingest", "openapi", "openapi.yaml", "--repo", repo, "--merge", "overwrite", "--write"], 0, [repo]),
            ("ingest-k8s", "ingest_k8s", ["ingest", "k8s", "k8s.yaml", "--repo", repo, "--write"], 0, [repo]),
            ("fmt-2", "fmt", ["fmt", repo, "--write"], 0, [repo]),
        ]

    def check(self, rep: Rep) -> dict[str, list[str]]:
        text = {name: files["repo.ea.yaml"] for name, (_, files) in rep.outputs.items()}
        fmt2 = []
        if text["fmt-2"] != text["ingest-k8s"]:
            fmt2.append("second fmt changed an already canonical file")
        return {
            "fmt-1": oracle.check_fmt(self.facts, text["fmt-1"]),
            "ingest-openapi": oracle.check_openapi(self.api_facts, text["ingest-openapi"]),
            "ingest-k8s": oracle.check_k8s(self.k8s_facts, text["ingest-k8s"], rep.outputs["ingest-k8s"][0].stderr),
            "fmt-2": fmt2,
        }

    def shape(self) -> dict:
        return {**self.facts.shape(), "openapi_paths": OPENAPI_PATHS, "openapi_tags": OPENAPI_TAGS,
                "openapi_operations": self.api_facts["operations"], "k8s_deployments": K8S_DEPLOYMENTS,
                "k8s_services": K8S_DEPLOYMENTS}


class WhatIf:
    """The library API in one child interpreter: parse once, then analyses."""

    entry = "import w6hea, w6hea.analysis, w6hea.report"
    outputs = ("sweep.txt", "reuse.json", "elicit.txt", "graph.dot",
               *(f"clusters-{s}.json" for s in CLUSTER_SEEDS))
    # Which output carries the result of each call (parse feeds all of them;
    # its output is judged through the graph).
    call_output = {
        "value_scores": "sweep.txt", "retirement_candidates": "sweep.txt",
        "reuse_counts": "reuse.json", "reuse_candidates": "reuse.json",
        "elicitation_plan": "elicit.txt", "parse_repository": "graph.dot",
        "build_value_graph": "graph.dot", "export_graph_dot": "graph.dot",
    }
    calls_per_rep = 1 + 2 * SWEEP_MAPS + 2 + 1 + 1 + len(CLUSTER_SEEDS) + 1

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"what_if:{seed}")
        self.facts = gen.make_repo(rng, "enterprise", gen.RepoParams(services=WHAT_IF_SERVICES))
        _write_files(self.work, {"repo.ea.yaml": self.facts.files["part-0.ea.yaml"]})

    def rep(self, traced: bool, rep_id: str) -> Rep:
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        argv = [sys.executable, str(CHILD), "whatif", "--repo", "repo.ea.yaml", "--out", "out"]
        trace_file = self.work / ".trace.json"
        if traced:
            argv += ["--trace", str(trace_file)]
        proc = spawn(argv, self.work)
        calls_path = out_dir / "calls.json"
        calls = json.loads(calls_path.read_text()) if calls_path.is_file() else []
        texts = {}
        for name in self.outputs:
            path = out_dir / name
            texts[name] = path.read_text(encoding="utf-8") if path.is_file() else ""
        crashed = []
        if proc.exit_code != 0:
            crashed.append(f"exit code {proc.exit_code}")
        if "Traceback" in proc.stderr:
            crashed.append("traceback: " + proc.stderr.strip().splitlines()[-1])
        ops = []
        for stage, name, seconds in calls:
            base, _, arg = name.partition("[")
            output = f"clusters-{arg[:-1]}.json" if base == "cluster_graph" else self.call_output[base]
            ops.append(Op(name, stage, seconds, proc.maxrss_kb, output, digest(texts[output]), list(crashed)))
        # Calls that never ran count as attempted and failed.
        for k in range(self.calls_per_rep - len(ops)):
            ops.append(Op(f"missing[{k}]", "missing", 0.0, proc.maxrss_kb, problems=crashed or ["call did not run"]))
        traces = []
        if traced and trace_file.is_file():
            traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
            trace_file.unlink()
        return Rep(ops, proc.seconds, texts, traces)

    def check(self, rep: Rep) -> dict[str, list[str]]:
        per_output = oracle.check_what_if(self.facts, rep.outputs, SWEEP_MAPS, CLUSTER_SEEDS)
        return {op.name: per_output.get(op.output, []) for op in rep.ops if op.output}

    def shape(self) -> dict:
        return self.facts.shape()


WORKLOADS = {"ci_gate": CiGate, "what_if": WhatIf, "write_back": WriteBack}
