import pytest

from w6hea.model import (
    Concern,
    DanglingReference,
    DuplicateEntity,
    DuplicateLink,
    EmptyName,
    Entity,
    Interrogative,
    InvalidCell,
    KindMismatch,
    Link,
    NegativeWeight,
    PrecedenceGraph,
    Repository,
    View,
    ViewCell,
    cells,
    interrogative_order,
    prerequisites,
    unknown_attributes,
)

I = Interrogative


class TestInterrogatives:
    def test_canonical_order(self):
        assert interrogative_order() == [
            I.WHO, I.WHAT, I.WHICH, I.WHERE, I.HOW, I.WHY, I.WHEN,
        ]

    def test_ranks_are_bijective(self):
        ranks = [i.rank for i in Interrogative]
        assert sorted(ranks) == list(range(1, 8))
        assert I.WHO.rank == 1
        assert interrogative_order()[-1] is I.WHEN

    def test_aliases(self):
        assert I.WHO.alias == "people"
        assert I.WHAT.alias == "data"
        assert I.WHICH.alias == "selection"
        assert I.WHERE.alias == "network"
        assert I.HOW.alias == "function"
        assert I.WHY.alias == "motivation"
        assert I.WHEN.alias == "time"

    def test_order_matches_topological_sort(self):
        assert PrecedenceGraph().topological_order() == interrogative_order()


class TestPrecedence:
    def test_how_has_two_alternatives(self):
        assert prerequisites(I.HOW) == [
            frozenset({I.WHAT, I.WHICH}),
            frozenset({I.WHAT, I.WHERE}),
        ]

    def test_why_and_when(self):
        assert prerequisites(I.WHY) == [frozenset({I.WHAT, I.HOW})]
        assert prerequisites(I.WHEN) == [frozenset({I.WHERE, I.HOW})]

    @pytest.mark.parametrize("i", [I.WHO, I.WHAT, I.WHICH, I.WHERE])
    def test_early_interrogatives_have_no_prerequisites(self, i):
        assert prerequisites(i) == []

    def test_prerequisites_have_smaller_rank(self):
        for i in Interrogative:
            for alternative in prerequisites(i):
                for p in alternative:
                    assert p.rank < i.rank

    def test_cycle_is_rejected(self):
        bad = {
            I.WHO: (frozenset({I.WHAT}),),
            I.WHAT: (frozenset({I.WHO}),),
        }
        with pytest.raises(ValueError):
            PrecedenceGraph(bad)


class TestCells:
    def test_29_cells_without_duplicates(self):
        all_cells = cells()
        assert len(all_cells) == 29
        assert len(set(all_cells)) == 29

    def test_first_and_last(self):
        all_cells = cells()
        assert all_cells[0] == ViewCell(View.SCOPE, I.WHO)
        assert all_cells[-1] == ViewCell(View.CONSUMER)

    def test_row_major_order(self):
        keys = [c.sort_key for c in cells()]
        assert keys == sorted(keys)

    def test_consumer_cell_rejects_interrogative(self):
        with pytest.raises(InvalidCell):
            ViewCell(View.CONSUMER, I.WHO)
        with pytest.raises(InvalidCell):
            ViewCell(View.SCOPE)

    def test_view_ranks(self):
        assert [v.rank for v in View] == [1, 2, 3, 4, 5]
        assert View.SCOPE.label == "Scope (Ballpark View)"


class TestRepositoryMutation:
    def test_add_entity_returns_slug(self):
        repo = Repository()
        eid = repo.add_entity(
            Entity("microservice", "payments", {"category": "integrity"})
        )
        assert eid == "microservice.payments"

    def test_duplicate_entity(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "payments"))
        with pytest.raises(DuplicateEntity):
            repo.add_entity(Entity("microservice", "payments"))

    def test_empty_name(self):
        with pytest.raises(EmptyName):
            Repository().add_entity(Entity("api", ""))

    def test_unknown_attribute_warns(self):
        repo = Repository()
        cart = Entity("microservice", "cart", {"colour": "red", "category": "system"})
        repo.add_entity(cart)
        assert "microservice.cart" in repo.entities
        assert unknown_attributes(cart) == [
            "entity 'microservice.cart': attribute 'colour' is not in the "
            "'microservice' vocabulary"
        ]

    def test_add_link_happy_path(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        lid = repo.add_link(Link("exposes", "api.orders", "microservice.cart"))
        assert lid in repo.links

    def test_kind_mismatch(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("business_function", "billing"))
        with pytest.raises(KindMismatch):
            repo.add_link(Link("automates", "api.orders", "business_function.billing"))

    def test_dangling_reference(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        with pytest.raises(DanglingReference):
            repo.add_link(Link("exposes", "api.orders", "microservice.missing"))

    def test_duplicate_link(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_link(Link("exposes", "api.orders", "microservice.cart"))
        with pytest.raises(DuplicateLink):
            repo.add_link(Link("exposes", "api.orders", "microservice.cart"))

    def test_negative_weight(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        with pytest.raises(NegativeWeight):
            repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=-1))

    def test_motivated_by_targets_concern(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.WHY), "because"))
        repo.add_link(Link("motivated_by", "microservice.cart", "c1"))
        assert repo.integrity_violations() == []

    def test_add_concern_checks_refs(self):
        repo = Repository()
        with pytest.raises(DanglingReference):
            repo.add_concern(
                Concern("c1", ViewCell(View.SCOPE, I.WHY), entity_refs=["api.orders"])
            )

    def test_integrity_after_mutations(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_entity(Entity("business_function", "ordering"))
        repo.add_link(Link("automates", "microservice.cart", "business_function.ordering"))
        repo.add_concern(
            Concern("c1", ViewCell(View.OWNER, I.HOW), entity_refs=["microservice.cart"])
        )
        assert repo.integrity_violations() == []

    def test_integrity_reports_both_dangling_ends(self):
        repo = Repository()
        link = Link("exposes", "api.gone", "microservice.gone")
        repo.links[link.id] = link  # a hand edit that bypassed add_link
        assert repo.integrity_violations() == [
            (link.id, f"link {link.id}: link source 'api.gone' does not resolve"),
            (link.id, f"link {link.id}: link target 'microservice.gone' does not resolve"),
        ]

    def test_deterministic_ids(self):
        a = Entity("microservice", "Order Processing")
        b = Entity("microservice", "Order Processing")
        assert a.id == b.id == "microservice.order-processing"


class TestNonFiniteWeight:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_is_rejected(self, weight):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        with pytest.raises(NegativeWeight):
            repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=weight))
        assert repo.links == {}

    def test_negative_weight_message_unchanged(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        with pytest.raises(NegativeWeight) as info:
            repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=-1))
        assert str(info.value) == (
            "link 'exposes--api.orders--microservice.cart' has negative weight -1"
        )
