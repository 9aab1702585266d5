import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from w6hea import model
from w6hea.cli import main

from conftest import fixture_path
from test_repofmt import NESTING_LIMIT

COMPLIANT = str(fixture_path("compliant.ea.yaml"))
VIOLATIONS = str(fixture_path("violations.ea.yaml"))
MALFORMED = str(fixture_path("malformed.ea.yaml"))
OPENAPI = str(fixture_path("petstore.openapi.yaml"))
K8S = str(fixture_path("cart.k8s.yaml"))


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


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


class TestMatrixAndElicit:
    def test_matrix_stdout(self):
        result = run("matrix", COMPLIANT)
        assert result.exit_code == 0
        assert "Motivation (Why)" in result.stdout

    def test_elicit_all(self):
        result = run("elicit", COMPLIANT)
        assert result.exit_code == 0
        assert result.stdout.count("[") == 29

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
