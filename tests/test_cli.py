import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from w6hea.cli import main

from conftest import fixture_path

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
