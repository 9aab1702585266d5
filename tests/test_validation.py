from w6hea.model import (
    Concern,
    Entity,
    Interrogative,
    Link,
    Repository,
    View,
    ViewCell,
)
from w6hea.validation import check_precedence, validate

I = Interrogative


def rule_ids(findings):
    return [f.rule_id for f in findings]


def subjects(findings, rule_id):
    return [f.subject for f in findings if f.rule_id == rule_id]


def test_compliant_fixture_is_clean(compliant_repo):
    assert validate(compliant_repo) == []
    assert check_precedence(compliant_repo) == []


class TestRuleCatalog:
    def test_motivation_missing_fires_for_unmotivated_api(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        findings = validate(repo)
        assert subjects(findings, "MOTIVATION_MISSING") == ["api.orders"]

    def test_motivation_satisfied_by_any_view(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_concern(Concern("c1", ViewCell(View.OWNER, I.WHY)))
        repo.add_link(Link("motivated_by", "api.orders", "c1"))
        assert subjects(validate(repo), "MOTIVATION_MISSING") == []

    def test_motivation_not_satisfied_by_non_why_concern(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_concern(Concern("c1", ViewCell(View.OWNER, I.HOW)))
        repo.add_link(Link("motivated_by", "api.orders", "c1"))
        assert subjects(validate(repo), "MOTIVATION_MISSING") == ["api.orders"]

    def test_data_ownership_names_both_owners(self, violations_repo):
        findings = validate(violations_repo)
        ownership = [f for f in findings if f.rule_id == "DATA_OWNERSHIP"]
        assert len(ownership) == 1
        assert ownership[0].subject == "data_element.ledger"
        assert "microservice.audit" in ownership[0].message
        assert "microservice.billing" in ownership[0].message

    def test_unpersisted_shared_data_is_allowed(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "a"))
        repo.add_entity(Entity("microservice", "b"))
        repo.add_entity(Entity("data_element", "cache", {"persisted": False}))
        repo.add_link(Link("owns_data", "microservice.a", "data_element.cache"))
        repo.add_link(Link("owns_data", "microservice.b", "data_element.cache"))
        assert subjects(validate(repo), "DATA_OWNERSHIP") == []

    def test_category_exposure(self, violations_repo):
        findings = validate(violations_repo)
        assert subjects(findings, "CATEGORY_EXPOSURE") == ["microservice.billing"]

    def test_internal_api_does_not_trigger_exposure(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "billing", {"category": "integrity"}))
        repo.add_entity(Entity("api", "internal", {"exposure": "internal"}))
        repo.add_link(Link("exposes", "api.internal", "microservice.billing"))
        assert subjects(validate(repo), "CATEGORY_EXPOSURE") == []

    def test_function_unlinked_and_lifecycle_missing(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        findings = validate(repo)
        assert subjects(findings, "FUNCTION_UNLINKED") == ["microservice.cart"]
        assert subjects(findings, "LIFECYCLE_MISSING") == ["microservice.cart"]
        severities = {f.rule_id: f.severity for f in findings}
        assert severities["FUNCTION_UNLINKED"] == "warning"
        assert severities["LIFECYCLE_MISSING"] == "info"

    def test_link_integrity_catches_hand_edited_links(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        # simulate a stale link surviving a manual file edit
        repo.links["bad"] = Link("exposes", "api.orders", "microservice.gone")
        assert subjects(validate(repo), "LINK_INTEGRITY") != []

    def test_findings_are_sorted(self, violations_repo):
        findings = validate(violations_repo)
        keys = [(f.rule_id, f.subject) for f in findings]
        assert keys == sorted(keys)


class TestPrecedence:
    def test_validate_runs_precedence(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.HOW)))
        findings = validate(repo)
        assert rule_ids(findings) == ["PRECEDENCE_VIOLATION"]
        assert findings == check_precedence(repo)

    def test_lone_how_concern_is_flagged(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.HOW)))
        findings = check_precedence(repo)
        assert [f.subject for f in findings] == ["scope/how"]
        assert findings[0].severity == "warning"

    def test_what_and_where_satisfy_how(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.HOW)))
        repo.add_concern(Concern("c2", ViewCell(View.SCOPE, I.WHAT)))
        repo.add_concern(Concern("c3", ViewCell(View.SCOPE, I.WHERE)))
        assert check_precedence(repo) == []

    def test_what_and_which_satisfy_how(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.HOW)))
        repo.add_concern(Concern("c2", ViewCell(View.SCOPE, I.WHAT)))
        repo.add_concern(Concern("c3", ViewCell(View.SCOPE, I.WHICH)))
        assert check_precedence(repo) == []

    def test_independent_interrogatives_never_flagged(self):
        repo = Repository()
        for idx, i in enumerate([I.WHO, I.WHAT, I.WHICH, I.WHERE]):
            repo.add_concern(Concern(f"c{idx}", ViewCell(View.OWNER, i)))
        assert check_precedence(repo) == []

    def test_precedence_is_per_view(self):
        # prerequisites answered in another view do not count
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.OWNER, I.HOW)))
        repo.add_concern(Concern("c2", ViewCell(View.SCOPE, I.WHAT)))
        repo.add_concern(Concern("c3", ViewCell(View.SCOPE, I.WHICH)))
        assert [f.subject for f in check_precedence(repo)] == ["owner/how"]

    def test_at_most_one_finding_per_cell(self):
        repo = Repository()
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.HOW)))
        repo.add_concern(Concern("c2", ViewCell(View.SCOPE, I.HOW), "second"))
        assert len(check_precedence(repo)) == 1
