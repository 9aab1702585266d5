import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

from w6hea.cli import main
from w6hea.repofmt import SourceDocument, parse_repository

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture_repo(*names: str):
    docs = [SourceDocument.read(fixture_path(n)) for n in names]
    repo, diagnostics = parse_repository(docs)
    assert repo is not None, [str(d) for d in diagnostics]
    return repo


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class _Terminal(io.StringIO):
    def isatty(self) -> bool:
        return True


def invoke(args, color: bool = False, env=None) -> CliResult:
    """Run the CLI in this process with ``args``; capture stdout and stderr.

    ``color`` makes stdout a terminal, ``env`` sets environment variables for
    the run.  Any exception other than ``SystemExit`` propagates.
    """
    stdout, stderr = _Terminal() if color else io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main(args=[str(a) for a in args])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return CliResult(code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture
def compliant_repo():
    return load_fixture_repo("compliant.ea.yaml")


@pytest.fixture
def violations_repo():
    return load_fixture_repo("violations.ea.yaml")


@pytest.fixture
def paper_table_repo():
    return load_fixture_repo("paper_api_table.ea.yaml")
