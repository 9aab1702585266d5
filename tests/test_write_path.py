"""Property: the write path as users run it, a sequence of commands on one
repository file.

Each step is ``ingest openapi|k8s … --merge add-only|overwrite --write``,
``fmt --write``, or a ``--write`` the CLI must refuse: into a ``.ea.json``
``--repo``, or into a repository given as two files.  After every step the
exit code is 0 or 2, a step that exits 2 wrote nothing, the repository file
is canonical (``fmt`` prints exactly its bytes), and ``validate`` exits 0
or 1.  An ingest that wrote repeats as a no-op.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import fixture_path, invoke
from test_ingest_properties import documents
from test_ingest_properties import pytestmark  # the Hypothesis warning filter, here too
from w6hea.repofmt import SourceDocument, parse_repository, serialize_repository

merges = st.sampled_from(["add-only", "overwrite"])


class WritePath(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        root = Path(self.tmp.name)
        compliant = SourceDocument.read(fixture_path("compliant.ea.yaml"))
        canonical = serialize_repository(parse_repository([compliant])[0])
        self.repo, self.json, self.document = root / "repo.ea.yaml", root / "repo.ea.json", root / "doc.yaml"
        self.split = [root / "split" / "a.ea.yaml", root / "split" / "b.ea.yaml"]
        self.split[0].parent.mkdir()
        head, tail = canonical.split("links:")
        texts = [canonical, canonical, head, "links:" + tail]
        for path, text in zip([self.repo, self.json, *self.split], texts):
            path.write_text(text, encoding="utf-8")

    def teardown(self):
        self.tmp.cleanup()

    def files(self) -> dict:
        return {path: path.read_bytes() for path in Path(self.tmp.name).rglob("*.ea.*")}

    def run(self, *args) -> int:
        """Run the CLI; on exit 2 no repository file may have changed."""
        before = self.files()
        code = invoke(args).exit_code
        assert code in (0, 2)
        if code == 2:
            assert self.files() == before
        return code

    def ingest(self, document, merge, *repo) -> int:
        kind, text = document
        self.document.write_text(text, encoding="utf-8")
        return self.run("ingest", kind, self.document, *repo, "--merge", merge, "--write")

    @rule(document=documents, merge=merges)
    def ingest_into_the_repository(self, document, merge):
        if self.ingest(document, merge, "--repo", self.repo) == 0:
            written = self.repo.read_bytes()
            assert self.ingest(document, merge, "--repo", self.repo) == 0
            assert self.repo.read_bytes() == written

    @rule()
    def fmt_write(self):
        self.run("fmt", self.repo, "--write")

    @rule(document=documents, merge=merges)
    def ingest_into_a_json_file_is_refused(self, document, merge):
        assert self.ingest(document, merge, "--repo", self.json) == 2

    @rule(document=documents, merge=merges)
    def ingest_into_two_files_is_refused(self, document, merge):
        assert self.ingest(document, merge, "--repo", self.split[0], "--repo", self.split[1]) == 2

    @invariant()
    def the_repository_file_is_canonical_and_validates(self):
        result = invoke(["fmt", self.repo])
        assert (result.exit_code, result.stdout) == (0, self.repo.read_text(encoding="utf-8"))
        assert invoke(["validate", self.repo]).exit_code in (0, 1)


WritePath.TestCase.settings = settings(
    max_examples=12, stateful_step_count=4, derandomize=True, deadline=None,
    report_multiple_bugs=False,
)
test_write_path = WritePath.TestCase
