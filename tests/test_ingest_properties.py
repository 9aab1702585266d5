"""Property tests: the extractors and the merge never raise on outside input.

Each known field of a generated document is either well-shaped or an
arbitrary small YAML value, so the strategies reach the nested reads that a
flat random mapping never gets past.
"""

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from w6hea.ingest import (
    HTTP_VERBS,
    K8S_SUPPORTED_KINDS,
    ingest_k8s,
    ingest_openapi,
    merge_proposal,
)
from w6hea.model import Entity, Repository
from w6hea.repofmt import SourceDocument

# Hypothesis's pytest plugin trips this third-party deprecation while it
# reports a failing example; under the project-wide "error" filter that would
# abort the session instead of reporting the failure.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

# One shrunk example per failing test: shrinking every distinct bug of a
# broken extractor takes minutes.
PROPERTY_SETTINGS = settings(
    max_examples=100, derandomize=True, deadline=None, report_multiple_bugs=False
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(width=16)
    | st.text(max_size=4)
    | st.dates()
)
yaml_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(scalars, children, max_size=3),
    max_leaves=6,
)
names = st.sampled_from(["cart", "a", "Cart Svc", " ", "²"]) | st.text(max_size=6)


def shaped(well_shaped):
    """A field that is well-shaped or any small YAML value."""
    return well_shaped | yaml_values


def mapping(**fields):
    """A mapping whose every known field is present, each one ``shaped``."""
    return st.fixed_dictionaries({k: shaped(v) for k, v in fields.items()})


labels = mapping(app=names)
container = mapping(name=names, image=names)
template = mapping(
    metadata=mapping(labels=labels),
    spec=mapping(containers=st.lists(shaped(container), max_size=2)),
)
port = mapping(
    port=st.integers(1, 65535),
    targetPort=st.integers(1, 65535) | names,
    protocol=st.sampled_from(["TCP", "UDP"]),
)
spec = mapping(
    replicas=st.integers(0, 5),
    selector=mapping(matchLabels=labels, app=names),
    template=template,
    ports=st.lists(shaped(port), max_size=2),
)
manifest = st.fixed_dictionaries(
    {"kind": shaped(st.sampled_from(K8S_SUPPORTED_KINDS))},
    optional={
        "metadata": shaped(mapping(name=names, namespace=names, labels=labels)),
        "spec": shaped(spec),
    },
)

operation = mapping(
    tags=st.lists(shaped(names), max_size=2),
    responses=st.dictionaries(
        st.sampled_from(["200", "404", "default", "²"]) | scalars, yaml_values, max_size=3
    ),
)
path_item = st.dictionaries(st.sampled_from(HTTP_VERBS) | scalars, shaped(operation), max_size=3)
openapi_doc = mapping(
    openapi=st.just("3.0.0"),
    info=mapping(title=names),
    tags=st.lists(shaped(mapping(name=names)), max_size=3),
    paths=st.dictionaries(
        st.sampled_from(["/a", "/b/{id}"]) | scalars, shaped(path_item), max_size=3
    ),
)


def dump(*documents) -> str:
    # Mixed-type keys cannot be sorted; the extractors see them in any order.
    return yaml.safe_dump_all(documents, sort_keys=False, allow_unicode=True)


def known_microservice() -> Repository:
    repo = Repository()
    repo.add_entity(Entity("microservice", "cart"))
    return repo


@PROPERTY_SETTINGS
@given(st.lists(shaped(manifest), max_size=3))
def test_ingest_k8s_and_merge_never_raise(manifests):
    repo = known_microservice()
    proposal, _ = ingest_k8s([SourceDocument("m.yaml", dump(*manifests))], repo)
    merge_proposal(repo, proposal)


@PROPERTY_SETTINGS
@given(shaped(openapi_doc))
def test_ingest_openapi_and_merge_never_raise(document):
    proposal, _ = ingest_openapi(SourceDocument("api.yaml", dump(document)))
    merge_proposal(Repository(), proposal)
