"""Property: whatever the input files and flags, every command ends with exit
code 0, 1 or 2, and nothing but ``SystemExit`` leaves ``main``."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, invoke
from test_ingest_properties import dump, manifest, openapi_doc
from test_ingest_properties import pytestmark  # the Hypothesis warning filter, here too
from test_repofmt import repository_texts

contents = (
    st.just(fixture_path("compliant.ea.yaml").read_bytes())
    | repository_texts.map(str.encode)
    | st.lists(manifest, max_size=2).map(lambda docs: dump(*docs).encode())
    | openapi_doc.map(lambda document: dump(document).encode())
    | st.text(":-[]{},&*!|>'\"%@`#? \n\tab", max_size=30).map(str.encode)
    | st.binary(max_size=12).map(lambda tail: b"a: 1\n\xff" + tail)  # not UTF-8
)
# An input path: a file, a path that does not exist, or a directory holding a file.
inputs = st.tuples(st.sampled_from(["file", "missing", "directory"]), contents)

COMMANDS = [
    ["validate"], ["matrix"], ["elicit"], ["fmt"], ["analyze", "scores"], ["analyze", "retire"],
    ["analyze", "reuse"], ["analyze", "cluster"], ["export", "dot"], ["export", "json"],
    ["ingest", "openapi"], ["ingest", "k8s"],
]
# Options by command, good and bad; "{a}", "{b}" and "{out}" are paths.
OPTIONS = {
    "validate": [],
    "matrix": [["--out", "{out}"], ["--out", "{a}"]],
    "elicit": [["--view", "owner"], ["--view", "nope"]],
    "fmt": [["--write"]],
    "analyze": [
        ["--threshold", "2"], ["--threshold", "x"], ["--seed", "7"], ["--seed", "1.5"],
        ["--weights", "owner=2"], ["--weights", "owner=nan"], ["--weights", "x"],
    ],
    "export": [["--out", "{out}"], ["--out", "{a}"]],
    "ingest": [["--repo", "{b}"], ["--repo", "{a}"], ["--merge", "overwrite"], ["--write"]],
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    options = st.sampled_from(OPTIONS[command[0]] + [["--bogus"], ["--config", "{b}"]])
    config = draw(st.sampled_from([[], ["--config", "{b}"]]))
    words = [*config, *command, "{a}"]
    for option in draw(st.lists(options, max_size=3)):
        words.extend(option)
    return words


def place(root: Path, name: str, kind: str, content: bytes) -> str:
    path = root / name
    if kind == "directory":
        path.mkdir()
        (path / "r.ea.yaml").write_bytes(content)
    elif kind == "file":
        path.write_bytes(content)
    return str(path)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(command_lines(), inputs, inputs)
def test_every_command_exits_0_1_or_2(words, a, b):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {"a": place(root, "a.ea.yaml", *a), "b": place(root, "b.ea.yaml", *b)}
        result = invoke([word.format(out=root / "out", **paths) for word in words])
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output
