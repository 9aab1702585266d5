import pytest

from w6hea.ingest import ingest_k8s, ingest_openapi, merge_proposal
from w6hea.model import Interrogative, Repository, View, ViewCell
from w6hea.repofmt import SourceDocument, serialize_repository

from conftest import fixture_path


def read(name):
    return SourceDocument.read(fixture_path(name))


class TestOpenAPI:
    def test_three_method_records(self):
        proposal, diagnostics = ingest_openapi(read("petstore.openapi.yaml"))
        assert [d for d in diagnostics if d.severity == "error"] == []
        assert len(proposal.entities) == 1
        api = proposal.entities[0]
        assert api.kind == "api"
        assert len(api.attributes["methods"]) == 3

    def test_record_shape_matches_design_table_row(self):
        proposal, _ = ingest_openapi(read("petstore.openapi.yaml"))
        records = proposal.entities[0].attributes["methods"]
        get_a = next(r for r in records if r["verb"] == "get")
        assert get_a["design_tech"] == "OpenAPI"
        assert get_a["status_code"] == 300

    def test_concern_proposed_at_designer_how(self):
        proposal, _ = ingest_openapi(read("petstore.openapi.yaml"))
        assert len(proposal.concerns) == 1
        concern = proposal.concerns[0]
        assert concern.cell == ViewCell(View.DESIGNER, Interrogative.HOW)
        assert len(concern.records) == 3

    def test_empty_paths_warns(self):
        doc = SourceDocument("empty.yaml", "openapi: '3.0.0'\ninfo:\n  title: Empty\npaths: {}\n")
        proposal, diagnostics = ingest_openapi(doc)
        assert len(proposal.entities) == 1
        assert proposal.entities[0].attributes["methods"] == []
        assert any(d.severity == "warning" for d in diagnostics)

    def test_tag_grouping(self):
        text = (
            "openapi: '3.0.0'\n"
            "info: {title: Shop}\n"
            "tags:\n  - name: carts\n  - name: orders\n"
            "paths:\n"
            "  /carts:\n"
            "    get: {tags: [carts], responses: {'200': {description: ok}}}\n"
            "  /orders:\n"
            "    get: {tags: [orders], responses: {'200': {description: ok}}}\n"
        )
        proposal, _ = ingest_openapi(SourceDocument("shop.yaml", text))
        names = sorted(e.name for e in proposal.entities)
        assert names == ["carts", "orders"]

    def test_deterministic(self):
        a, _ = ingest_openapi(read("petstore.openapi.yaml"))
        b, _ = ingest_openapi(read("petstore.openapi.yaml"))
        assert a.entities == b.entities
        assert a.concerns == b.concerns


class TestK8s:
    def test_deployment_and_service(self):
        proposal, diagnostics = ingest_k8s(read("cart.k8s.yaml"))
        assert [d for d in diagnostics if d.severity == "error"] == []
        targets = [e for e in proposal.entities if e.kind == "deployment_target"]
        assert len(targets) == 1
        target = targets[0]
        assert target.attributes["replicas"] == 3
        assert target.attributes["images"] == ["registry.example/cart:1.2.3"]
        assert target.attributes["endpoints"] == [
            {"port": 80, "target_port": 8080, "protocol": "TCP"}
        ]

    def test_concern_proposed_at_builder_where(self):
        proposal, _ = ingest_k8s(read("cart.k8s.yaml"))
        assert proposal.concerns[0].cell == ViewCell(View.BUILDER, Interrogative.WHERE)

    def test_unknown_kind_skipped_with_warning(self):
        doc = SourceDocument(
            "cron.yaml", "apiVersion: batch/v1\nkind: CronJob\nmetadata:\n  name: tidy\n"
        )
        proposal, diagnostics = ingest_k8s(doc)
        assert proposal.entities == []
        assert len([d for d in diagnostics if d.severity == "warning"]) == 1

    def test_app_label_proposes_deployed_on(self, compliant_repo):
        proposal, _ = ingest_k8s(read("cart.k8s.yaml"), compliant_repo)
        kinds = [(l.kind, l.source, l.target) for l in proposal.links]
        assert ("deployed_on", "microservice.cart", "deployment_target.cart") in kinds

    def test_no_link_without_matching_microservice(self):
        proposal, _ = ingest_k8s(read("cart.k8s.yaml"))
        assert proposal.links == []


class TestMerge:
    def test_merge_twice_equals_merge_once(self, compliant_repo):
        proposal, _ = ingest_k8s(read("cart.k8s.yaml"), compliant_repo)
        once, _ = merge_proposal(compliant_repo, proposal, "add_only")
        twice, _ = merge_proposal(once, proposal, "add_only")
        assert once == twice
        over_once, _ = merge_proposal(compliant_repo, proposal, "overwrite_attributes")
        over_twice, _ = merge_proposal(over_once, proposal, "overwrite_attributes")
        assert over_once == over_twice

    def test_add_only_keeps_existing(self, compliant_repo):
        proposal, _ = ingest_openapi(
            SourceDocument(
                "orders.yaml",
                "openapi: '3.0.0'\ninfo: {title: orders}\n"
                "paths:\n  /x:\n    get: {responses: {'200': {description: ok}}}\n",
            )
        )
        merged, diagnostics = merge_proposal(compliant_repo, proposal, "add_only")
        assert "methods" not in merged.entities["api.orders"].attributes
        assert any("already present" in d.message for d in diagnostics)

    def test_overwrite_replaces_attributes_keeps_links(self, compliant_repo):
        proposal, _ = ingest_openapi(
            SourceDocument(
                "orders.yaml",
                "openapi: '3.0.0'\ninfo: {title: orders}\n"
                "paths:\n  /x:\n    get: {responses: {'200': {description: ok}}}\n",
            )
        )
        merged, _ = merge_proposal(compliant_repo, proposal, "overwrite_attributes")
        assert len(merged.entities["api.orders"].attributes["methods"]) == 1
        assert any(
            l.kind == "exposes" and l.source == "api.orders" for l in merged.links.values()
        )

    def test_dangling_proposal_link_is_error_diagnostic(self, compliant_repo):
        from w6hea.ingest import IngestProposal
        from w6hea.model import Link

        proposal = IngestProposal(
            links=[Link("deployed_on", "microservice.cart", "deployment_target.ghost")]
        )
        merged, diagnostics = merge_proposal(compliant_repo, proposal, "add_only")
        assert any(d.severity == "error" for d in diagnostics)
        assert merged.links.keys() == compliant_repo.links.keys()

    def test_merge_does_not_mutate_input(self, compliant_repo):
        import copy

        before = copy.deepcopy(compliant_repo)
        proposal, _ = ingest_k8s(read("cart.k8s.yaml"), compliant_repo)
        merge_proposal(compliant_repo, proposal, "overwrite_attributes")
        assert compliant_repo == before


class TestOverwriteChecks:
    def test_overwrite_with_dangling_concern_ref_is_rejected(self, compliant_repo):
        from w6hea.ingest import IngestProposal
        from w6hea.model import Concern

        kept = compliant_repo.concerns["scope.why.growth"]
        proposal = IngestProposal(
            concerns=[
                Concern(
                    "scope.why.growth",
                    ViewCell(View.SCOPE, Interrogative.WHY),
                    entity_refs=["api.ghost"],
                )
            ]
        )
        merged, diagnostics = merge_proposal(compliant_repo, proposal, "overwrite_attributes")
        errors = [d for d in diagnostics if d.severity == "error"]
        assert len(errors) == 1
        assert "api.ghost" in errors[0].message
        assert merged.concerns["scope.why.growth"] == kept

    def test_overwrite_with_invalid_category_is_rejected(self, compliant_repo):
        from w6hea.ingest import IngestProposal
        from w6hea.model import Entity

        kept = dict(compliant_repo.entities["microservice.cart"].attributes)
        proposal = IngestProposal(
            source="bogus.yaml",
            entities=[Entity("microservice", "cart", {"category": "bogus"})],
        )
        merged, diagnostics = merge_proposal(compliant_repo, proposal, "overwrite_attributes")
        errors = [d for d in diagnostics if d.severity == "error"]
        assert len(errors) == 1
        assert "category" in errors[0].message
        assert errors[0].location.file == "bogus.yaml"
        assert merged.entities["microservice.cart"].attributes == kept


def test_merge_reports_unknown_attribute_as_diagnostic(compliant_repo):
    import warnings

    from w6hea.ingest import IngestProposal
    from w6hea.model import Entity

    proposal = IngestProposal(
        source="extra.yaml", entities=[Entity("location", "eu", {"colour": "red"})]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merged, diagnostics = merge_proposal(compliant_repo, proposal)
    assert "location.eu" in merged.entities
    assert [(d.severity, d.message, d.location.file) for d in diagnostics] == [
        (
            "warning",
            "entity 'location.eu': attribute 'colour' is not in the 'location' vocabulary",
            "extra.yaml",
        )
    ]


# Wrong-shaped fields of outside documents read as absent; a manifest without a
# usable name or replica count is skipped with one warning.
K8S_MALFORMED = [
    pytest.param(
        "kind: Deployment\nmetadata: {name: cart}\nspec: {replicas: '{{ .Values.replicas }}'}\n",
        "Deployment 'cart' has non-integer replicas '{{ .Values.replicas }}'; skipped",
        {},
        id="templated-replicas",
    ),
    pytest.param(
        "kind: Deployment\nmetadata: {name: cart}\nspec: {replicas: null}\n",
        None,
        {"cart": {"namespace": "default", "replicas": 1, "images": []}},
        id="null-replicas",
    ),
    pytest.param(
        "kind: Service\nmetadata: {name: 123}\n",
        "Service without metadata.name skipped",
        {},
        id="int-name",
    ),
    pytest.param(
        "kind: Service\nmetadata: {name: '--'}\n",
        "Service without metadata.name skipped",
        {},
        id="punctuation-name",
    ),
    pytest.param(
        "kind: Deployment\nmetadata: {name: ' '}\n",
        "Deployment without metadata.name skipped",
        {},
        id="blank-name",
    ),
    pytest.param(
        "kind: Namespace\nmetadata: {name: '²'}\n",
        "Namespace without metadata.name skipped",
        {},
        id="superscript-name",
    ),
    pytest.param(
        "kind: Deployment\nmetadata: [cart]\n",
        "Deployment without metadata.name skipped",
        {},
        id="list-metadata",
    ),
    pytest.param(
        "kind: Deployment\nmetadata: {name: cart}\n"
        "spec: {template: {spec: {containers: [nginx, {image: 'nginx:1'}]}}}\n",
        None,
        {"cart": {"namespace": "default", "replicas": 1, "images": ["nginx:1"]}},
        id="string-container",
    ),
    pytest.param(
        "kind: Service\nmetadata: {name: cart}\nspec: {ports: [80]}\n",
        None,
        {"cart": {"endpoints": []}},
        id="scalar-port",
    ),
    pytest.param(
        "kind: Deployment\nmetadata: {name: cart}\nspec: {template: [spec]}\n",
        None,
        {"cart": {"namespace": "default", "replicas": 1, "images": []}},
        id="list-template",
    ),
    pytest.param(
        "kind: Deployment\nmetadata: {name: cart, namespace: [a, b]}\n"
        "spec: {template: {spec: {containers: [{image: {x: 1}}]}}}\n---\n"
        "kind: Service\nmetadata: {name: cart}\n"
        "spec: {ports: [{port: [80], targetPort: {a: 1}, protocol: 6},"
        " {port: true, targetPort: http}]}\n",
        None,
        {
            "cart": {
                "namespace": "default",
                "replicas": 1,
                "images": [],
                "endpoints": [
                    {"port": None, "target_port": None, "protocol": "TCP"},
                    {"port": None, "target_port": "http", "protocol": "TCP"},
                ],
            }
        },
        id="wrong-shaped-values",
    ),
    pytest.param(
        "kind: Deployment\nmetadata: {name: cart, namespace: null}\n",
        None,
        {"cart": {"namespace": "default", "replicas": 1, "images": []}},
        id="null-namespace",
    ),
]


@pytest.mark.parametrize("text, warning, targets", K8S_MALFORMED)
def test_k8s_wrong_shaped_field_reads_as_absent(text, warning, targets):
    proposal, diagnostics = ingest_k8s(SourceDocument("bad.yaml", text))
    assert [(d.severity, d.message, str(d.location)) for d in diagnostics] == (
        [] if warning is None else [("warning", warning, "bad.yaml:1:1")]
    )
    assert {e.name: e.attributes for e in proposal.entities} == targets


OPENAPI_MALFORMED = [
    pytest.param(
        "info: [x]\npaths: {/a: {get: {}}}\n",
        {"untitled-api": [("/a", None)]},
        id="list-info",
    ),
    pytest.param(
        "info: {title: [a, b]}\npaths: {/a: {get: {}}}\n",
        {"untitled-api": [("/a", None)]},
        id="list-title",
    ),
    pytest.param(
        "info: {title: 42}\npaths: {/a: {get: {}}}\n",
        {"untitled-api": [("/a", None)]},
        id="number-title",
    ),
    pytest.param(
        "info: {title: Shop}\ntags: [{name: [1]}]\npaths: {/a: {get: {tags: [[1]]}}}\n",
        {"Shop": [("/a", None)]},
        id="list-tag-name",
    ),
    pytest.param(
        "info: {title: Shop}\npaths: {200: {get: {}}, /a: {get: {}}}\n",
        {"Shop": [("/a", None), (200, None)]},
        id="int-and-str-paths",
    ),
    pytest.param(
        "info: {title: Shop}\npaths: {/a: {get: {responses: {'²': {}}}}}\n",
        {"Shop": [("/a", "²")]},
        id="superscript-status",
    ),
]


@pytest.mark.parametrize("text, methods", OPENAPI_MALFORMED)
def test_openapi_wrong_shaped_field_reads_as_absent(text, methods):
    proposal, diagnostics = ingest_openapi(SourceDocument("bad.yaml", "openapi: 3.0.0\n" + text))
    assert diagnostics == []
    assert {
        e.name: [(m["path"], m["status_code"]) for m in e.attributes["methods"]]
        for e in proposal.entities
    } == methods


# YAML that cannot be loaded is one located error, never a traceback.
NESTED = "[" * 1000 + "]" * 1000  # past the composer's recursion limit
UNLOADABLE = [
    pytest.param(
        ingest_openapi,
        "openapi: 3.0.0\ninfo:\n  title: Shop\n  released: 2024-02-30\npaths: {}\n",
        4,
        id="openapi-invalid-date",
    ),
    pytest.param(
        ingest_k8s,
        "kind: Service\nmetadata:\n  name: cart\n  annotations:\n    released: 2024-02-30\n",
        5,
        id="k8s-invalid-date",
    ),
    pytest.param(ingest_openapi, f"openapi: 3.0.0\ninfo: {NESTED}\n", 2, id="openapi-deep-nesting"),
    pytest.param(ingest_k8s, f"kind: Service\nspec: {NESTED}\n", 2, id="k8s-deep-nesting"),
    pytest.param(
        ingest_openapi, "openapi: 3.0.0\ninfo: {title: \ud800}\n", 1, id="openapi-lone-surrogate"
    ),
    pytest.param(
        ingest_k8s, "kind: Service\nmetadata: {name: \ud800}\n", 1, id="k8s-lone-surrogate"
    ),
]


@pytest.mark.parametrize("extract, text, line", UNLOADABLE)
def test_unloadable_yaml_is_a_located_error(extract, text, line):
    doc = SourceDocument("bad.yaml", text)
    proposal, diagnostics = extract(doc)
    assert [(d.severity, d.location.file, d.location.line) for d in diagnostics] == [
        ("error", "bad.yaml", line)
    ]
    assert diagnostics[0].message.startswith("invalid YAML: ")
    assert proposal.entities == [] and proposal.concerns == []


@pytest.mark.parametrize(
    "text, apis",
    [
        pytest.param(
            "info: {title: Shop}\ntags: [{name: ' '}, {name: '--'}]\n"
            "paths: {/a: {get: {tags: [' ']}}, /b: {get: {tags: ['--']}}}\n",
            ["api.shop"],
            id="blank-tags",
        ),
        pytest.param(
            "info: {title: ' '}\npaths: {/a: {get: {}}, /b: {get: {}}}\n",
            ["api.untitled-api"],
            id="blank-title",
        ),
    ],
)
def test_blank_openapi_names_read_as_absent(text, apis):
    proposal, diagnostics = ingest_openapi(SourceDocument("api.yaml", "openapi: 3.0.0\n" + text))
    assert diagnostics == []
    assert [e.id for e in proposal.entities] == apis
    merged, merge_diagnostics = merge_proposal(Repository(), proposal)
    assert merge_diagnostics == []
    (concern,) = merged.concerns.values()
    assert concern.entity_refs == apis
    assert len(concern.records) == 2


def test_openapi_operation_with_two_response_codes():
    text = "openapi: 3.0.0\ninfo: {title: Shop}\npaths: {/a: {get: {responses: {'404': {}, 200: {}}}}}\n"
    proposal, diagnostics = ingest_openapi(SourceDocument("api.yaml", text))
    assert diagnostics == []
    assert [e.attributes["methods"] for e in proposal.entities] == [[
        {"verb": "get", "path": "/a", "design_tech": "OpenAPI", "status_code": 200,
         "status_codes": ["200", "404"]},
    ]]


@pytest.mark.parametrize("strategy", ["add_only", "overwrite_attributes"])
def test_merge_reports_an_id_held_by_the_other_kind(compliant_repo, strategy):
    from w6hea.ingest import IngestProposal
    from w6hea.model import Concern, Entity

    compliant_repo.add_concern(Concern("api.x", ViewCell(View.CONSUMER)))
    proposal = IngestProposal(
        entities=[Entity("api", "x")], concerns=[Concern("api.orders", ViewCell(View.CONSUMER))]
    )
    merged, diagnostics = merge_proposal(compliant_repo, proposal, strategy)
    assert [(d.severity, d.message) for d in diagnostics] == [
        ("error", "entity 'api.x': a concern already has this id"),
        ("error", "concern 'api.orders': an entity already has this id"),
    ]
    assert "api.x" not in merged.entities and "api.orders" not in merged.concerns


@pytest.mark.parametrize("strategy", ["add_only", "overwrite_attributes"])
def test_merge_reports_a_concern_that_takes_a_stakeholder_group_id(compliant_repo, strategy):
    from w6hea.ingest import IngestProposal
    from w6hea.model import Concern

    proposal = IngestProposal(concerns=[Concern("group.cios", ViewCell(View.CONSUMER))])
    merged, diagnostics = merge_proposal(compliant_repo, proposal, strategy)
    assert [(d.severity, d.message) for d in diagnostics] == [
        ("error", "concern 'group.cios': ids starting with 'group.' name stakeholder groups"),
    ]
    assert "group.cios" not in merged.concerns


@pytest.mark.parametrize("strategy", ["add_only", "overwrite_attributes"])
@pytest.mark.parametrize(
    "section, item, message",
    [
        ("entities", ("api", 5), "entity name must be text, got 5"),
        ("entities", (["api"], "x"), "entity kind must be text, got ['api']"),
        ("concerns", (["c1"],), "concern id must be text, got ['c1']"),
    ],
)
def test_merge_reports_an_id_field_that_is_not_text(section, item, message, strategy):
    from w6hea.ingest import IngestProposal
    from w6hea.model import Concern, Entity

    record = Entity(*item) if section == "entities" else Concern(*item, ViewCell(View.CONSUMER))
    merged, diagnostics = merge_proposal(Repository(), IngestProposal(**{section: [record]}), strategy)
    assert [(d.severity, d.message, str(d.location)) for d in diagnostics] == [
        ("error", message, "<proposal>:1:1"),
    ]
    assert merged.entities == {} and merged.concerns == {}


def test_unknown_merge_strategy_is_rejected():
    from w6hea.ingest import IngestProposal

    with pytest.raises(ValueError, match="unknown merge strategy 'replace'"):
        merge_proposal(Repository(), IngestProposal(), "replace")


# The canonical text and diagnostics of merges, pinned byte for byte.  Documents
# are named as their fixtures are, so the pinned text is the same in any checkout.
TWIN_WORKLOADS = """\
kind: Deployment
metadata: {name: cart, labels: {app: cart}}
spec: {replicas: 2}
---
kind: StatefulSet
metadata: {name: cart, labels: {app: cart}}
spec: {replicas: 3, template: {spec: {containers: [{image: 'cart:2'}]}}}
"""


def merge_documents(repo, documents, strategy):
    """Ingest each document, against the repository so far, and merge it in."""
    diagnostics = []
    for doc in documents:
        extract = ingest_openapi if ".openapi." in doc.path else lambda d: ingest_k8s(d, repo)
        proposal, found = extract(doc)
        repo, merged = merge_proposal(repo, proposal, strategy)
        diagnostics += [(d.severity, d.message, str(d.location)) for d in found + merged]
    return repo, diagnostics


def fixture_documents(*names):
    return [SourceDocument(name, fixture_path(name).read_text(encoding="utf-8")) for name in names]


@pytest.mark.parametrize(
    "strategy, again",
    [
        pytest.param("add_only", [
            ("warning", "entity 'api.petstore' already present; kept as-is",
             "petstore.openapi.yaml:1:1"),
            ("warning", "concern 'designer.how.openapi-petstore' already present; kept as-is",
             "petstore.openapi.yaml:1:1"),
            ("warning", "entity 'deployment_target.cart' already present; kept as-is",
             "cart.k8s.yaml:1:1"),
            ("warning", "concern 'builder.where.k8s-cart-k8s-yaml' already present; kept as-is",
             "cart.k8s.yaml:1:1"),
        ], id="add_only"),
        pytest.param("overwrite_attributes", [], id="overwrite_attributes"),
    ],
)
def test_fixture_merge_is_pinned(compliant_repo, strategy, again):
    documents = fixture_documents("petstore.openapi.yaml", "cart.k8s.yaml")
    expected = fixture_path("merged-petstore-cart.expected.yaml").read_text(encoding="utf-8")
    merged, diagnostics = merge_documents(compliant_repo, documents, strategy)
    assert serialize_repository(merged) == expected
    assert diagnostics == []
    merged, diagnostics = merge_documents(merged, documents, strategy)
    assert serialize_repository(merged) == expected
    assert diagnostics == again


@pytest.mark.parametrize("strategy", ["add_only", "overwrite_attributes"])
def test_twin_workload_merge_is_pinned(compliant_repo, strategy):
    twins = [SourceDocument("twins.k8s.yaml", TWIN_WORKLOADS)]
    merged, diagnostics = merge_documents(compliant_repo, twins, strategy)
    expected = fixture_path("merged-twins.expected.yaml").read_text(encoding="utf-8")
    assert serialize_repository(merged) == expected
    assert diagnostics == []

    # Into a repository that already holds the target the cart manifest gives.
    repo, _ = merge_documents(
        compliant_repo, fixture_documents("petstore.openapi.yaml", "cart.k8s.yaml"), strategy
    )
    merged, diagnostics = merge_documents(repo, twins, strategy)
    expected = fixture_path(f"merged-twins-{strategy}.expected.yaml").read_text(encoding="utf-8")
    assert serialize_repository(merged) == expected
    assert diagnostics == {
        "add_only": [
            ("warning", "entity 'deployment_target.cart' already present; kept as-is",
             "twins.k8s.yaml:1:1"),
        ],
        "overwrite_attributes": [],
    }[strategy]


@pytest.mark.parametrize(
    "labels, links",
    [
        pytest.param("metadata: {name: cart, labels: {app: [cart]}}", [], id="list-app"),
        pytest.param("metadata: {name: cart, labels: {app: 7}}", [], id="number-app"),
        pytest.param(
            "metadata: {name: cart, labels: {app: [x]}}\n"
            "spec: {template: {metadata: {labels: {app: cart}}}}",
            [("deployed_on", "microservice.cart", "deployment_target.cart")],
            id="text-app-after-list-app",
        ),
    ],
)
def test_only_a_text_app_label_proposes_deployed_on(compliant_repo, labels, links):
    from w6hea.model import Entity

    compliant_repo.add_entity(Entity("microservice", "7"))
    doc = SourceDocument("m.yaml", f"kind: Deployment\n{labels}\n")
    proposal, diagnostics = ingest_k8s(doc, compliant_repo)
    assert diagnostics == []
    assert [(l.kind, l.source, l.target) for l in proposal.links] == links


def test_a_json_document_reads_numbers_as_json_does():
    text = '{"openapi": "3.0.0", "info": {"title": 1E+2}, "paths": {"/a": {"get": {}}}}'
    proposal, _ = ingest_openapi(SourceDocument("api.json", text))
    assert [e.id for e in proposal.entities] == ["api.untitled-api"]
    proposal, _ = ingest_openapi(SourceDocument("api.yaml", text))
    assert [e.id for e in proposal.entities] == ["api.1e-2"]

    text = '{"kind": "Service", "metadata": {"name": 1E+2}}'
    proposal, diagnostics = ingest_k8s(SourceDocument("m.json", text))
    assert proposal.entities == []
    assert [d.message for d in diagnostics] == ["Service without metadata.name skipped"]
    proposal, _ = ingest_k8s(SourceDocument("m.yaml", text))
    assert [e.id for e in proposal.entities] == ["deployment_target.1e-2"]
