"""Every benchmark workload's outputs on seeds 0 and 1009 are byte-identical to
the digests recorded in ``perfbench/digests.json``.

The CLI workloads run each of their commands in this process through
``conftest.invoke``; what_if runs its library sequence in this process.  Each
output is digested as ``perfbench/workloads.py`` digests it.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from conftest import invoke

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402  (perfbench/ is on the path only from here)
from workloads import WORKLOADS, WhatIf, digest  # noqa: E402

RECORDED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def cli_digests(workload) -> dict:
    """Each command's digest, over its exit code, output and the files it writes."""
    workload.reset()
    digests = {}
    for name, _, args, _, writes in workload.commands():
        result = invoke(args, env={"EA_NO_COLOR": "1"})
        files = [(rel, (workload.work / rel).read_text(encoding="utf-8")) for rel in writes]
        parts = [part for rel, text in files for part in (rel, text)]
        digests[name] = digest(f"exit={result.exit_code}", result.stdout, result.stderr, *parts)
    return digests


def what_if_digests(workload: WhatIf) -> dict:
    """Each output file's digest, from the library sequence run in this process."""
    (workload.work / "out").mkdir()
    child.run_whatif(argparse.Namespace(repo="repo.ea.yaml", out="out", trace=None))
    return {name: digest((workload.work / "out" / name).read_text(encoding="utf-8")) for name in WhatIf.outputs}


@pytest.mark.parametrize("seed", [0, 1009])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_match_the_recorded_digests(name, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS[name](seed, tmp_path)
    digests = what_if_digests(workload) if name == "what_if" else cli_digests(workload)
    assert digests == RECORDED[name][str(seed)]
