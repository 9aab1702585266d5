import pytest

from w6hea.ingest import ingest_k8s, ingest_openapi, merge_proposal
from w6hea.model import Interrogative, View, ViewCell
from w6hea.repofmt import SourceDocument

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
        proposal, diagnostics = ingest_k8s([read("cart.k8s.yaml")])
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
        proposal, _ = ingest_k8s([read("cart.k8s.yaml")])
        assert proposal.concerns[0].cell == ViewCell(View.BUILDER, Interrogative.WHERE)

    def test_unknown_kind_skipped_with_warning(self):
        doc = SourceDocument(
            "cron.yaml", "apiVersion: batch/v1\nkind: CronJob\nmetadata:\n  name: tidy\n"
        )
        proposal, diagnostics = ingest_k8s([doc])
        assert proposal.entities == []
        assert len([d for d in diagnostics if d.severity == "warning"]) == 1

    def test_app_label_proposes_deployed_on(self, compliant_repo):
        proposal, _ = ingest_k8s([read("cart.k8s.yaml")], compliant_repo)
        kinds = [(l.kind, l.source, l.target) for l in proposal.links]
        assert ("deployed_on", "microservice.cart", "deployment_target.cart") in kinds

    def test_no_link_without_matching_microservice(self):
        proposal, _ = ingest_k8s([read("cart.k8s.yaml")])
        assert proposal.links == []


class TestMerge:
    def test_merge_twice_equals_merge_once(self, compliant_repo):
        proposal, _ = ingest_k8s([read("cart.k8s.yaml")], compliant_repo)
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
        proposal, _ = ingest_k8s([read("cart.k8s.yaml")], compliant_repo)
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
]


@pytest.mark.parametrize("text, warning, targets", K8S_MALFORMED)
def test_k8s_wrong_shaped_field_reads_as_absent(text, warning, targets):
    proposal, diagnostics = ingest_k8s([SourceDocument("bad.yaml", text)])
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
