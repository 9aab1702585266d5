import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from w6hea import model

from conftest import fixture_path, invoke
from test_repofmt import NESTING_LIMIT, REFUSALS

COMPLIANT = str(fixture_path("compliant.ea.yaml"))
VIOLATIONS = str(fixture_path("violations.ea.yaml"))
MALFORMED = str(fixture_path("malformed.ea.yaml"))
OPENAPI = str(fixture_path("petstore.openapi.yaml"))
K8S = str(fixture_path("cart.k8s.yaml"))


def run(*args, **kwargs):
    return invoke(args, **kwargs)


class TestValidate:
    def test_compliant_exits_zero_silently(self):
        result = run("validate", COMPLIANT)
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_violations_exit_one_with_findings(self):
        result = run("validate", VIOLATIONS)
        assert result.exit_code == 1
        assert "MOTIVATION_MISSING" in result.stdout

    def test_malformed_exits_two_with_located_diagnostic(self):
        result = run("validate", MALFORMED)
        assert result.exit_code == 2
        assert "malformed.ea.yaml:" in result.stderr

    def test_a_yaml_error_is_one_line_located_in_its_file(self):
        result = run("validate", MALFORMED)
        assert result.stderr == (
            f"{MALFORMED}:6:1: error: invalid YAML: "
            "while parsing a flow sequence at 5:11, did not find expected ',' or ']'\n"
        )

    def test_unknown_subcommand_exits_two(self):
        result = run("frobnicate")
        assert result.exit_code == 2

    def test_directory_discovery(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "r.ea.yaml").write_text(
            Path(COMPLIANT).read_text(encoding="utf-8")
        )
        result = run("validate", str(tmp_path))
        assert result.exit_code == 0

    @pytest.mark.parametrize("twice", ["directory-and-file", "same-file"])
    def test_a_file_named_twice_is_read_once(self, tmp_path, twice):
        (tmp_path / "sub").mkdir()
        path = tmp_path / "sub" / "r.ea.yaml"
        path.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
        first = tmp_path if twice == "directory-and-file" else path
        result = run("validate", str(first), str(tmp_path / "sub" / ".." / "sub" / "r.ea.yaml"))
        assert (result.exit_code, result.output) == (0, "")

    def test_discovery_keeps_the_first_naming_of_each_file(self, tmp_path):
        from w6hea.cli import discover_files

        for name in ("a.ea.yaml", "b.ea.yaml"):
            (tmp_path / name).write_text("")
        a, b = str(tmp_path / "a.ea.yaml"), str(tmp_path / "b.ea.yaml")
        assert discover_files([b, str(tmp_path), a, b]) == [Path(b), Path(a)]


class TestMatrixAndElicit:
    def test_matrix_stdout(self, tmp_path, monkeypatch):
        result = run("matrix", COMPLIANT)
        assert result.exit_code == 0
        assert "Motivation (Why)" in result.stdout
        monkeypatch.chdir(tmp_path)  # an empty --out is the current directory
        written = run("matrix", COMPLIANT, "--out", "")
        assert (written.exit_code, (tmp_path / "matrix.md").read_text()) == (0, result.stdout)

    def test_elicit_all(self):
        result = run("elicit", COMPLIANT)
        assert result.exit_code == 0
        assert result.stdout.count("[") == 29

    def test_elicit_exact_stdout(self):
        expected = fixture_path("compliant.elicit.txt").read_text(encoding="utf-8")
        assert run("elicit", COMPLIANT).stdout == expected
        consumer = run("elicit", COMPLIANT, "--view", "consumer")
        assert (consumer.exit_code, consumer.stdout) == (0, expected.splitlines(True)[-1])
        assert consumer.stdout.startswith("[ ] consumer: What SDKs")

    def test_elicit_view_filter(self):
        result = run("elicit", COMPLIANT, "--view", "scope")
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("[ ] scope/who") or lines[0].startswith("[x] scope/who")


class TestAnalyze:
    def test_scores(self):
        result = run("analyze", "scores", COMPLIANT)
        assert result.exit_code == 0
        assert "microservice.cart" in result.stdout

    def test_retire_with_threshold(self):
        result = run("analyze", "retire", VIOLATIONS, "--threshold", "1")
        assert result.exit_code == 0
        assert "microservice.audit" in result.stdout

    def test_weights_flag(self):
        result = run("analyze", "scores", COMPLIANT, "--weights", "scope=2")
        assert result.exit_code == 0

    def test_bad_weights_usage_error(self):
        result = run("analyze", "scores", COMPLIANT, "--weights", "bogus=1")
        assert result.exit_code == 2

    def test_cluster_deterministic_default_seed(self):
        first = run("analyze", "cluster", COMPLIANT)
        second = run("analyze", "cluster", COMPLIANT)
        assert first.exit_code == 0
        assert first.stdout == second.stdout

    def test_config_file_defaults(self, tmp_path, monkeypatch):
        (tmp_path / ".w6hea.toml").write_text("[analysis]\nthreshold = 100\n")
        monkeypatch.chdir(tmp_path)
        result = run("analyze", "retire", VIOLATIONS)
        assert result.exit_code == 0
        assert "microservice.audit" in result.stdout

    @pytest.mark.parametrize("where", ["missing.toml", "."])
    def test_config_that_cannot_be_read_is_a_usage_error(self, tmp_path, where):
        config = tmp_path / where
        result = run("--config", config, "analyze", "reuse", COMPLIANT)
        assert (result.exit_code, result.stdout) == (2, "")
        assert f"cannot read {config}" in result.stderr
        assert "Traceback" not in result.output

    def test_nan_threshold_is_a_usage_error(self):
        result = run("analyze", "retire", VIOLATIONS, "--threshold", "nan")
        assert (result.exit_code, result.stdout) == (2, "")
        assert "threshold must be >= 0" in result.stderr

    def test_nan_threshold_in_config_is_a_usage_error(self, tmp_path, monkeypatch):
        (tmp_path / ".w6hea.toml").write_text("threshold = nan\n")
        monkeypatch.chdir(tmp_path)
        result = run("analyze", "retire", VIOLATIONS)
        assert (result.exit_code, result.stdout) == (2, "")
        assert "threshold must be >= 0" in result.stderr


class TestExport:
    def test_export_json_writes_files(self, tmp_path):
        out = tmp_path / "out"
        result = run("export", "json", VIOLATIONS, "--out", str(out))
        assert result.exit_code == 0
        findings = json.loads((out / "findings.json").read_text())
        assert any(f["rule_id"] == "DATA_OWNERSHIP" for f in findings)
        assert (out / "scores.json").is_file()

    def test_export_dot(self, tmp_path):
        out = tmp_path / "out"
        result = run("export", "dot", COMPLIANT, "--out", str(out))
        assert result.exit_code == 0
        assert (out / "graph.dot").read_text().startswith("graph value_graph {")

    def test_exports_byte_identical_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("export", "dot", COMPLIANT, "--out", str(out_a))
        run("export", "dot", COMPLIANT, "--out", str(out_b))
        assert (out_a / "graph.dot").read_bytes() == (out_b / "graph.dot").read_bytes()


class TestFmt:
    def test_fmt_prints_canonical_form(self):
        result = run("fmt", COMPLIANT)
        assert result.exit_code == 0
        assert result.stdout.startswith("concerns:") or "meta:" in result.stdout

    def test_fmt_write_is_idempotent(self, tmp_path):
        target = tmp_path / "r.ea.yaml"
        target.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
        assert run("fmt", str(target), "--write").exit_code == 0
        once = target.read_bytes()
        assert run("fmt", str(target), "--write").exit_code == 0
        assert target.read_bytes() == once

    def test_alias_bomb_is_one_error(self, tmp_path):
        # Six levels of ten aliases each would expand to a million values.
        levels = ["a0: &a0 [" + ", ".join(["x"] * 10) + "]"] + [
            f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 6)
        ]
        target = tmp_path / "bomb.ea.yaml"
        target.write_text(
            "entities:\n  - kind: microservice\n    name: cart\n    attributes:\n"
            + "".join(f"      {level}\n" for level in levels)
        )
        result = run("fmt", str(target))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.count(": error: invalid YAML: ") == 1


class TestIngestCli:
    def test_ingest_openapi_stdout(self):
        result = run("ingest", "openapi", OPENAPI)
        assert result.exit_code == 0
        assert "api.petstore" in result.stdout

    def test_ingest_k8s_merge_write(self, tmp_path):
        target = tmp_path / "r.ea.yaml"
        target.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
        result = run("ingest", "k8s", K8S, "--repo", str(target), "--write")
        assert result.exit_code == 0
        text = target.read_text()
        assert "deployment_target" in text
        assert "deployed_on" in text

    def test_merge_error_exits_two_and_writes_nothing(self, tmp_path, monkeypatch):
        # No manifest makes an entity the model rejects, so the model gets a
        # vocabulary for deployment namespaces that this manifest is outside of.
        monkeypatch.setitem(model.ATTRIBUTE_ENUMS, ("deployment_target", "namespace"), ("prod",))
        manifest = tmp_path / "dev.k8s.yaml"
        manifest.write_text("kind: Deployment\nmetadata: {name: cart, namespace: dev}\n")
        target = tmp_path / "r.ea.yaml"
        target.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
        before = target.read_bytes()
        result = run("ingest", "k8s", str(manifest), "--repo", str(target), "--write")
        assert result.exit_code == 2
        assert "error: entity 'deployment_target.cart': namespace must be one of" in result.stderr
        assert result.stdout == ""
        assert target.read_bytes() == before

    def test_cyclic_alias_is_one_error(self, tmp_path):
        manifest = tmp_path / "cyclic.k8s.yaml"
        manifest.write_text(
            "kind: Service\nmetadata: {name: cart}\nspec:\n  selector: &s {app: cart, self: *s}\n"
        )
        result = run("ingest", "k8s", str(manifest))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.count(": error: invalid YAML: ") == 1
        assert "cyclic.k8s.yaml:4:" in result.stderr

    def test_read_only_without_write(self, tmp_path):
        target = tmp_path / "r.ea.yaml"
        target.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
        before = target.read_bytes()
        run("ingest", "k8s", K8S, "--repo", str(target))
        assert target.read_bytes() == before

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: ingest k8s --repo parses the repository twice, "
        "so each of its warnings is printed twice",
    )
    def test_repository_warning_is_printed_once(self, tmp_path):
        target = tmp_path / "r.ea.yaml"
        target.write_text(
            "entities:\n  - {kind: microservice, name: cart, attributes: {colour: red}}\n"
        )
        result = run("ingest", "k8s", K8S, "--repo", str(target))
        assert result.exit_code == 0
        warning = "entity 'microservice.cart': attribute 'colour' is not in the 'microservice' vocabulary"
        assert result.stderr.count(warning) == 1


@pytest.mark.parametrize("command", [
    ["validate", COMPLIANT], ["matrix", COMPLIANT], ["fmt", COMPLIANT], ["elicit", COMPLIANT],
    ["export", "json", COMPLIANT, "--out", "OUT"], ["ingest", "openapi", OPENAPI],
], ids=["validate", "matrix", "fmt", "elicit", "export-json", "ingest-openapi"])
def test_every_command_checks_the_config(tmp_path, command):
    config, out = tmp_path / "missing.toml", tmp_path / "out"
    result = run("--config", config, *[out if arg == "OUT" else arg for arg in command])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: ")
    assert f": error: cannot read {config}: " in result.stderr
    assert not out.exists()


def write_repo(tmp_path, **files) -> Path:
    for name, text in files.items():
        (tmp_path / f"{name}.ea.yaml").write_text(text)
    return tmp_path


SPLIT_REPO = {  # one repository in two files
    "a": "entities:\n  - {kind: microservice, name: cart}\n",
    "b": "concerns:\n  - {id: c1, view: consumer, entity_refs: [microservice.cart]}\n",
}


# Invocations that are usage errors: exit 2, the message under the usage line,
# nothing on stdout and nothing written.
USAGE_ERRORS = [
    pytest.param(["validate", "EMPTY"], "no repository files found", id="empty-directory"),
    pytest.param(["analyze", "scores", COMPLIANT, "--weights", "x"],
                 "weights must be view=value pairs, got 'x'", id="weights-without-equals"),
    pytest.param(["analyze", "scores", COMPLIANT, "--weights", "owner=abc"],
                 "weight for 'owner' is not a number", id="weight-not-a-number"),
    pytest.param(["ingest", "openapi", OPENAPI, "--write"],
                 "--write requires exactly one repository file (--repo)", id="ingest-write-no-repo"),
    pytest.param(["ingest", "openapi", OPENAPI, "--repo", "SPLIT", "--write"],
                 "--write requires exactly one repository file (--repo)",
                 id="ingest-write-directory"),
    pytest.param(["fmt", "SPLIT", "--write"],
                 "--write needs exactly one file (multi-file merge is lossy)", id="fmt-write-two-files"),
]


@pytest.mark.parametrize("command, message", USAGE_ERRORS)
def test_usage_error(tmp_path, command, message):
    (tmp_path / "empty").mkdir()
    (tmp_path / "split").mkdir()
    split = write_repo(tmp_path / "split", **SPLIT_REPO)
    before = {p: p.read_bytes() for p in split.iterdir()}
    paths = {"EMPTY": tmp_path / "empty", "SPLIT": split}
    result = run(*[paths.get(arg, arg) for arg in command])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: ")
    assert result.stderr.endswith(f": error: {message}\n")
    assert {p: p.read_bytes() for p in split.iterdir()} == before


@pytest.mark.parametrize("command", [
    ["fmt", "REPO", "--write"], ["ingest", "openapi", OPENAPI, "--repo", "REPO", "--write"],
], ids=["fmt", "ingest-openapi"])
def test_write_to_a_json_file_is_a_usage_error(tmp_path, command):
    """The canonical text is YAML, which a .json file cannot hold."""
    target = tmp_path / "r.ea.json"
    target.write_text('{"entities": [{"kind": "microservice", "name": "cart"}]}\n')
    before = target.read_bytes()
    result = run(*[target if arg == "REPO" else arg for arg in command])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: ")
    assert result.stderr.endswith(
        f": error: --write cannot rewrite {target}: the canonical text is YAML, not JSON\n"
    )
    assert target.read_bytes() == before


def test_analyze_reuse_prints_each_candidate(tmp_path):
    write_repo(tmp_path, r=(
        "entities:\n  - {kind: microservice, name: cart}\n"
        "  - {kind: business_function, name: billing}\n"
        "  - {kind: business_function, name: ordering}\n"
        "links:\n  - {kind: automates, source: microservice.cart, target: business_function.billing}\n"
        "  - {kind: automates, source: microservice.cart, target: business_function.ordering}\n"
    ))
    result = run("analyze", "reuse", tmp_path)
    assert (result.exit_code, result.stdout, result.stderr) == (0, "microservice.cart\t2\n", "")


@pytest.mark.parametrize("text, expected", REFUSALS)
def test_validate_refuses_what_is_no_repository_value(tmp_path, text, expected):
    path = tmp_path / "r.ea.yaml"
    path.write_text(text, encoding="utf-8")
    result = run("validate", path)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"{path}:{expected}\n")


def test_empty_weight_pair_is_skipped():
    skipped = run("analyze", "scores", COMPLIANT, "--weights", "owner=2,,scope=1")
    assert (skipped.exit_code, skipped.stderr) == (0, "")
    assert skipped.stdout == run("analyze", "scores", COMPLIANT, "--weights", "owner=2,scope=1").stdout


@pytest.mark.parametrize("kind", ["openapi", "k8s"])
@pytest.mark.parametrize("where", ["missing.yaml", "."])
def test_ingest_file_that_cannot_be_read_is_a_usage_error(tmp_path, kind, where):
    path = tmp_path / where
    with pytest.raises(OSError) as reason:
        open(path, encoding="utf-8")
    result = run("ingest", kind, path)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: ")
    assert result.stderr.endswith(f": error: cannot read {path}: {reason.value}\n")


@pytest.mark.parametrize("weight, fault", [
    ("inf", "non-finite weight inf"), ("nan", "non-finite weight nan"), ("-1", "negative weight -1.0"),
])
def test_a_refused_weight_names_its_fault(weight, fault):
    result = run("analyze", "scores", COMPLIANT, "--weights", f"owner={weight}")
    assert result.exit_code == 2
    assert result.stderr.endswith(f"w6hea analyze: error: view weight for 'owner': {fault}\n")


def test_nan_weight_is_a_usage_error():
    result = run("analyze", "scores", COMPLIANT, "--weights", "owner=nan")
    assert result.exit_code == 2
    assert "Traceback" not in result.output


@pytest.mark.parametrize("key, value", [("seed", "abc"), ("threshold", "x")])
def test_non_numeric_config_value_is_a_usage_error(tmp_path, key, value):
    config = tmp_path / "bad.toml"
    config.write_text(f"{key} = {value}\n")
    result = run("--config", str(config), "analyze", "scores", COMPLIANT)
    assert result.exit_code == 2
    assert f"{key} = {value!r}" in result.stderr
    assert "Traceback" not in result.output


def test_no_color_env_disables_styling():
    styled = run("validate", VIOLATIONS, color=True)
    plain = run("validate", VIOLATIONS, color=True, env={"EA_NO_COLOR": "1"})
    assert "\x1b[31mERROR\x1b[0m" in styled.stdout
    assert "\x1b[" not in plain.stdout
    assert plain.stdout == run("validate", VIOLATIONS).stdout


@pytest.mark.parametrize("past", [0, 1], ids=["at-bound", "past-bound"])
def test_nesting_bound_in_fmt(tmp_path, past):
    path = tmp_path / "deep.ea.yaml"
    # Above the lists: the top-level mapping, entities, the entity, attributes.
    lists = NESTING_LIMIT + past - 4
    path.write_text(
        "entities:\n  - kind: microservice\n    name: cart\n"
        f"    attributes: {{tech_stack: {'[' * lists + ']' * lists}}}\n"
    )
    result = run("fmt", str(path))
    if past:
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.count(": error: invalid YAML: ") == 1
        assert result.stderr.startswith(f"{path}:4:126: error: invalid YAML: nesting too deep")
    else:
        assert (result.exit_code, result.stderr) == (0, "")
        assert "- - - -" in result.stdout


def k8s_selector(tmp_path, lists: int) -> Path:
    manifest = tmp_path / "deep.k8s.yaml"
    nested = "[" * lists + "]" * lists
    manifest.write_text(
        f"kind: Service\nmetadata: {{name: cart}}\nspec:\n  selector: {{app: {nested}}}\n"
    )
    return manifest


def test_nesting_past_the_bound_in_ingest(tmp_path):
    # Above the lists: the manifest, spec, the selector.
    manifest = k8s_selector(tmp_path, NESTING_LIMIT + 1 - 3)
    result = run("ingest", "k8s", str(manifest))
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.count(": error: invalid YAML: ") == 1
    assert result.stderr.startswith(f"{manifest}:4:116: error: invalid YAML: nesting too deep")


# In the repository a selector sits two levels deeper than in its manifest:
# the top-level mapping, entities, the entity, attributes and the selector are
# above its lists.  The deepest selector that can be written back is read back.
@pytest.mark.parametrize("lists", [NESTING_LIMIT - 5, NESTING_LIMIT - 4])
def test_ingest_writes_only_what_reads_back(tmp_path, lists):
    manifest = k8s_selector(tmp_path, lists)
    target = tmp_path / "r.ea.yaml"
    target.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
    before = target.read_bytes()
    result = run("ingest", "k8s", str(manifest), "--repo", str(target), "--write")
    if lists == NESTING_LIMIT - 5:
        assert result.exit_code == 0
        assert run("fmt", str(target)).exit_code == 0
        assert "- - - -" in target.read_text(encoding="utf-8")
    else:
        assert (result.exit_code, result.stdout) == (2, "")
        assert (
            "error: entity 'deployment_target.cart': attributes nest more than 97 deep"
            in result.stderr
        )
        assert target.read_bytes() == before


@pytest.mark.parametrize("name", ["'--'", "'²'", "' '"])
def test_name_with_no_letter_or_digit(tmp_path, name):
    repo = tmp_path / "r.ea.yaml"
    repo.write_text(
        f"entities:\n  - kind: microservice\n    name: {name}\n"
        f"  - kind: microservice\n    name: {name}\n"
    )
    result = run("fmt", str(repo))
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"{repo}:{line}:5: error: entity of kind 'microservice' has an empty name"
        for line in (2, 4)
    ]
    manifest = tmp_path / "svc.k8s.yaml"
    manifest.write_text(f"kind: Service\nmetadata: {{name: {name}}}\n")
    result = run("ingest", "k8s", str(manifest))
    assert result.exit_code == 0
    assert result.stderr == f"{manifest}:1:1: warning: Service without metadata.name skipped\n"


# The first undecodable byte: line 3, after "  - kind: mïcro" (15 characters,
# one of them two bytes long).  The long comment puts it past the first 8 kB.
NOT_UTF8 = b"# " + b"x" * 9000 + b"\nentities:\n  - kind: m\xc3\xafcro\xff\xfe\n"


def not_utf8_error(path) -> str:
    return f"{path}:3:16: error: not UTF-8: invalid start byte (byte 0xff)\n"


@pytest.mark.parametrize(
    "command", [["validate"], ["fmt"], ["matrix"], ["ingest", "openapi"], ["ingest", "k8s"]]
)
def test_input_that_is_not_utf8_is_one_located_error(tmp_path, command):
    path = tmp_path / "bad.ea.yaml"
    path.write_bytes(NOT_UTF8)
    result = run(*command, path)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == not_utf8_error(path)


def test_repository_that_is_not_utf8_is_not_written(tmp_path):
    target = tmp_path / "r.ea.yaml"
    target.write_bytes(NOT_UTF8)
    result = run("ingest", "openapi", OPENAPI, "--repo", target, "--write")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == not_utf8_error(target)
    assert target.read_bytes() == NOT_UTF8


def test_config_that_is_not_utf8_is_a_located_error(tmp_path):
    config = tmp_path / "bad.toml"
    config.write_bytes(b"seed = 1\n# \xff\n")
    result = run("--config", config, "analyze", "scores", COMPLIANT)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"{config}:2:3: error: not UTF-8: invalid start byte (byte 0xff)\n"


@pytest.mark.parametrize(
    "command", [["export", "json", VIOLATIONS], ["export", "dot", COMPLIANT], ["matrix", COMPLIANT]]
)
def test_out_that_is_a_file_is_a_usage_error(tmp_path, command):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    result = run(*command, "--out", afile)
    assert (result.exit_code, result.stdout) == (2, "")
    assert f"error: cannot write {afile}" in result.stderr
    assert afile.read_text() == "keep\n"


def refuse_writes(monkeypatch):
    def write_text(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", write_text)


def test_fmt_write_that_fails_is_a_usage_error(tmp_path, monkeypatch):
    target = tmp_path / "r.ea.yaml"
    target.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
    refuse_writes(monkeypatch)
    result = run("fmt", target, "--write")
    assert (result.exit_code, result.stdout) == (2, "")
    assert f"error: cannot write {target}: " in result.stderr
    assert "Permission denied" in result.stderr


def test_ingest_write_that_fails_is_a_usage_error(tmp_path, monkeypatch):
    target = tmp_path / "r.ea.yaml"
    target.write_text(Path(COMPLIANT).read_text(encoding="utf-8"))
    refuse_writes(monkeypatch)
    result = run("ingest", "k8s", K8S, "--repo", target, "--write")
    assert (result.exit_code, result.stdout) == (2, "")
    assert f"error: cannot write {target}: " in result.stderr


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    src = Path(__file__).parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    return set(out.stdout.split())


def test_importing_the_cli_loads_no_layer_and_no_click():
    loaded = modules_after("import w6hea.cli")
    assert "w6hea.cli" in loaded
    layers = {"w6hea.analysis", "w6hea.ingest", "w6hea.report", "w6hea.validation"}
    assert not loaded & (layers | {"click"})


def test_validate_loads_only_validation():
    run_validate = f"""
from w6hea.cli import main
try:
    main(["validate", {COMPLIANT!r}])
except SystemExit as exc:
    assert exc.code == 0
"""
    loaded = modules_after(run_validate)
    assert "w6hea.validation" in loaded
    assert not loaded & {"w6hea.analysis", "w6hea.ingest", "w6hea.report"}


def test_matrix_loads_analysis_and_report_only():
    run_matrix = f"""
import contextlib, io
from w6hea.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["matrix", {COMPLIANT!r}])
"""
    loaded = modules_after(run_matrix)
    assert {"w6hea.analysis", "w6hea.report"} <= loaded
    assert not loaded & {"w6hea.validation", "w6hea.ingest"}


def test_nothing_imports_click():
    root = Path(__file__).parents[1]
    pattern = re.compile(r"^\s*(import|from)\s+click\b", re.MULTILINE)
    for path in [*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")]:
        assert not pattern.search(path.read_text(encoding="utf-8")), path
