import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import w6hea
from w6hea.model import (
    Concern,
    FIELD_NESTING_LIMIT,
    Entity,
    Interrogative,
    Link,
    ModelError,
    Repository,
    View,
    ViewCell,
    cells,
    interrogative_order,
    prerequisites,
    slugify,
    unknown_attributes,
)
from w6hea.repofmt import Diagnostic, Location

from test_ingest_properties import PROPERTY_SETTINGS
from test_ingest_properties import pytestmark as hypothesis_warning_filter

I = Interrogative


def test_public_names_resolve():
    namespace: dict = {}
    exec("from w6hea import *", namespace)
    assert w6hea.__all__
    for name in w6hea.__all__:
        assert namespace[name] is getattr(w6hea, name)


class TestInterrogatives:
    def test_canonical_order(self):
        assert interrogative_order() == [
            I.WHO, I.WHAT, I.WHICH, I.WHERE, I.HOW, I.WHY, I.WHEN,
        ]


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
        order = list(Interrogative)
        for i in Interrogative:
            for alternative in prerequisites(i):
                for p in alternative:
                    assert order.index(p) < order.index(i)


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
        views, interrogatives = list(View), list(Interrogative)
        keys = [
            (views.index(c.view), interrogatives.index(c.interrogative) if c.interrogative else -1)
            for c in cells()
        ]
        assert keys == sorted(keys)

    def test_consumer_cell_rejects_interrogative(self):
        with pytest.raises(ModelError, match="consumer view is a single merged cell"):
            ViewCell(View.CONSUMER, I.WHO)
        with pytest.raises(ModelError, match="view 'scope' requires an interrogative"):
            ViewCell(View.SCOPE)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((5,), "cell view must be a View, got 5"),
            (("scope",), "cell view must be a View, got 'scope'"),
            (("consumer",), "cell view must be a View, got 'consumer'"),
            (("scope", I.WHO), "cell view must be a View, got 'scope'"),
            ((View.SCOPE, 5), "cell interrogative must be an Interrogative, got 5"),
            ((View.SCOPE, "who"), "cell interrogative must be an Interrogative, got 'who'"),
        ],
    )
    def test_cell_of_the_wrong_type_names_the_value(self, args, message):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            ViewCell(*args)

    def test_view_ranks(self):
        assert list(View) == [View.SCOPE, View.OWNER, View.DESIGNER, View.BUILDER, View.CONSUMER]
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
        with pytest.raises(ModelError, match="entity 'microservice.payments' already exists"):
            repo.add_entity(Entity("microservice", "payments"))

    @pytest.mark.parametrize("collection", ["entities", "links", "concerns"])
    def test_collections_start_empty_and_fill_only_through_the_adders(self, collection):
        with pytest.raises(TypeError):
            Repository(**{collection: {}})
        assert getattr(Repository(name="r", version="1"), collection) == {}

    def test_empty_name(self):
        with pytest.raises(ModelError, match="entity of kind 'api' has an empty name"):
            Repository().add_entity(Entity("api", ""))

    @pytest.mark.parametrize("name", ["--", "²", " - "])
    def test_name_with_no_letter_or_digit_is_empty(self, name):
        repo = Repository()
        with pytest.raises(ModelError, match="entity of kind 'api' has an empty name"):
            repo.add_entity(Entity("api", name))
        assert repo.entities == {}

    @pytest.mark.parametrize("past", [0, 1], ids=["at-bound", "past-bound"])
    def test_attributes_and_records_nest_within_the_field_bound(self, past):
        def lists(depth):
            return [] if depth == 1 else [lists(depth - 1)]

        # The attributes mapping, and the records list with its record, count.
        entity = Entity("api", "orders", {"methods": lists(FIELD_NESTING_LIMIT - 1 + past)})
        records = [{"deep": lists(FIELD_NESTING_LIMIT - 2 + past)}]
        concern = Concern("deep", ViewCell(View.DESIGNER, I.HOW), records=records)
        repo = Repository()
        if past:
            with pytest.raises(ModelError, match="attributes nest more than 97 deep"):
                repo.add_entity(entity)
            with pytest.raises(ModelError, match="records nest more than 97 deep"):
                repo.add_concern(concern)
        else:
            repo.add_entity(entity)
            repo.add_concern(concern)

    @pytest.mark.parametrize(
        "value, fault",
        [
            ({"a", "b"}, "hold a value of type set, not a repository value"),
            (b"hi", "hold a value of type bytes, not a repository value"),
            (("a", 1), "hold a value of type tuple, not a repository value"),
            ({("a",): 1}, "hold a value of type tuple, not a repository value"),
            ({"ok": [1, {"deeper": frozenset()}]}, "hold a value of type frozenset, not a repository value"),
        ],
        ids=["set", "bytes", "tuple", "collection-key", "nested"],
    )
    def test_adders_refuse_what_is_no_repository_value(self, value, fault):
        repo = Repository()
        with pytest.raises(ModelError) as raised:
            repo.add_entity(Entity("api", "orders", {"methods": value}))
        assert str(raised.value) == f"entity 'api.orders': attributes {fault}"
        with pytest.raises(ModelError) as raised:
            repo.add_concern(Concern("c1", ViewCell(View.CONSUMER), records=[{"r": value}]))
        assert str(raised.value) == f"concern 'c1': records {fault}"
        assert (repo.entities, repo.concerns) == ({}, {})

    def test_every_repository_value_type_is_taken(self):
        import datetime

        attributes = {
            "tech_stack": ["a", 1, 1.5, True, None, datetime.date(2020, 1, 1), [], {}],
            "owner": {1: "a", 2.5: "b", False: "c", None: "d", datetime.datetime(2020, 1, 1): "e"},
        }
        assert Repository().add_entity(Entity("microservice", "cart", attributes)) == "microservice.cart"

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
        with pytest.raises(ModelError, match="automates source must be one of"):
            repo.add_link(Link("automates", "api.orders", "business_function.billing"))

    def test_dangling_reference(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        with pytest.raises(ModelError, match="link target 'microservice.missing' does not resolve"):
            repo.add_link(Link("exposes", "api.orders", "microservice.missing"))

    def test_duplicate_link(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        lid = repo.add_link(Link("exposes", "api.orders", "microservice.cart"))
        with pytest.raises(ModelError, match=f"link '{lid}' already exists"):
            repo.add_link(Link("exposes", "api.orders", "microservice.cart"))

    def test_negative_weight(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        with pytest.raises(ModelError, match="has negative weight -1"):
            repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=-1))

    def test_motivated_by_targets_concern(self):
        repo = Repository()
        repo.add_entity(Entity("microservice", "cart"))
        repo.add_concern(Concern("c1", ViewCell(View.SCOPE, I.WHY), "because"))
        repo.add_link(Link("motivated_by", "microservice.cart", "c1"))
        assert repo.integrity_violations() == []

    def test_add_concern_checks_refs(self):
        repo = Repository()
        with pytest.raises(ModelError, match="references unknown entity 'api.orders'"):
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
        with pytest.raises(ModelError, match=f"weight {weight}"):  # -inf is a negative weight
            repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=weight))
        assert repo.links == {}

    def test_negative_weight_message_unchanged(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        with pytest.raises(ModelError, match="has negative weight") as info:
            repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=-1))
        assert str(info.value) == (
            "link 'exposes--api.orders--microservice.cart' has negative weight -1"
        )


def test_integrity_scan_reports_a_dangling_concern_ref():
    repo = Repository()
    repo.add_entity(Entity("api", "orders"))
    repo.add_concern(Concern("c1", ViewCell(View.CONSUMER), entity_refs=["api.orders"]))
    assert repo.integrity_violations() == []
    del repo.entities["api.orders"]  # the adders never allow this; the scan still sees it
    assert repo.integrity_violations() == [("c1", "concern c1: dangling entity ref 'api.orders'")]


class TestOneNamespace:
    """An entity id and a concern id never name the same string."""

    def test_concern_cannot_take_an_entity_id(self):
        repo = Repository()
        repo.add_entity(Entity("api", "x"))
        with pytest.raises(ModelError, match="an entity already has this id") as info:
            repo.add_concern(Concern("api.x", ViewCell(View.SCOPE, I.WHY), entity_refs=["api.x"]))
        assert str(info.value) == "concern 'api.x': an entity already has this id"
        assert repo.concerns == {}

    def test_entity_cannot_take_a_concern_id(self):
        repo = Repository()
        repo.add_concern(Concern("api.x", ViewCell(View.CONSUMER)))
        with pytest.raises(ModelError, match="a concern already has this id") as info:
            repo.add_entity(Entity("api", "x"))
        assert str(info.value) == "entity 'api.x': a concern already has this id"
        assert repo.entities == {}

    def test_concern_cannot_take_a_stakeholder_group_id(self):
        repo = Repository()
        with pytest.raises(ModelError) as info:
            repo.add_concern(Concern("group.developers", ViewCell(View.SCOPE, I.WHY)))
        assert str(info.value) == (
            "concern 'group.developers': ids starting with 'group.' name stakeholder groups"
        )
        assert repo.concerns == {}


class TestWeightIsANumber:
    @pytest.mark.parametrize("weight", ["0.5", None, True, b"1"])
    def test_weight_that_is_not_an_int_or_float_is_rejected(self, weight):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        link = Link("exposes", "api.orders", "microservice.cart", weight=weight)
        with pytest.raises(ModelError, match="not a number") as info:
            repo.add_link(link)
        assert str(info.value) == f"link {link.id!r} has weight {weight!r}, not a number"
        assert repo.links == {}

    def test_int_no_float_can_hold_is_rejected(self):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        with pytest.raises(ModelError, match="has non-finite weight"):
            repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=10**400))
        assert repo.links == {}

    @pytest.mark.parametrize("weight", [0, 2, 0.5])
    def test_int_and_float_weights_are_accepted(self, weight):
        repo = Repository()
        repo.add_entity(Entity("api", "orders"))
        repo.add_entity(Entity("microservice", "cart"))
        assert repo.add_link(Link("exposes", "api.orders", "microservice.cart", weight=weight))


def test_integrity_scan_reports_an_unknown_link_kind_once():
    repo = Repository()
    link = Link("calls", "api.gone", "api.gone", weight=-1)
    repo.links[link.id] = link  # a hand edit that bypassed add_link
    assert repo.integrity_violations() == [(link.id, f"link {link.id}: unknown link kind 'calls'")]


def test_integrity_scan_reports_weight_then_source_then_target():
    repo = Repository()
    repo.add_entity(Entity("microservice", "x"))
    repo.add_entity(Entity("api", "y"))
    link = Link("exposes", "microservice.x", "api.y", -1)  # both ends the wrong way round
    repo.links[link.id] = link  # a hand edit that bypassed add_link
    assert [m for _, m in repo.integrity_violations()] == [
        f"link {link.id}: link {link.id!r} has negative weight -1",
        f"link {link.id}: exposes source must be one of ('api',), got 'microservice' (microservice.x)",
        f"link {link.id}: exposes target must be one of ('microservice',), got 'api' (api.y)",
    ]


def test_concern_without_a_view_cell_is_rejected():
    with pytest.raises(ModelError, match="concern 'c1' has no valid cell"):
        Repository().add_concern(Concern("c1", "scope/why"))


@pytest.mark.parametrize(
    "name, slug",
    [
        ("Zürich", "zurich"),
        ("Z rich", "z-rich"),
        ("Ångström", "angstrom"),
        ("a订b", "a-b"),
        ("²", ""),
        ("ﬁ", ""),
        ("订单", ""),
        ("Øresund", "oresund"),  # not "resund", the slug of "Resund"
        ("Łódź", "lodz"),
        ("Straße", "strasse"),
        ("STRAẞE", "strasse"),
        ("Æsir and Œuvre", "aesir-and-oeuvre"),
        ("Đakovo", "dakovo"),
        ("Þórr", "thorr"),
        ("øłßæœđþ", "olssaeoedth"),
    ],
)
def test_slugify_folds_accents(name, slug):
    assert slugify(name) == slug


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(st.text(st.characters(max_codepoint=127)))
def test_slugify_is_unchanged_on_ascii(text):
    assert slugify(text) == re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


class TestFieldTypes:
    """Each adder refuses a field of the wrong type with a ``ModelError``
    naming the field, before reading anything from it."""

    CELL = ViewCell(View.DESIGNER, I.HOW)

    @pytest.mark.parametrize(
        "entity, field_name",
        [
            (Entity("api", 5), "name"),
            (Entity(["api"], "x"), "kind"),
            (Entity("api", "x", ["a"]), "attributes"),
            (Entity("api", "x", None), "attributes"),
        ],
    )
    def test_entity_field_of_the_wrong_type(self, entity, field_name):
        repo = Repository()
        with pytest.raises(ModelError, match=f"^entity {field_name} must be "):
            repo.add_entity(entity)
        assert repo.entities == {}

    @pytest.mark.parametrize(
        "link, field_name",
        [
            (Link(["exposes"], "api.x", "microservice.y"), "kind"),
            (Link("exposes", ["api.x"], "microservice.y"), "source"),
            (Link("exposes", "api.x", {"microservice.y": 1}), "target"),
            (Link("exposes", "api.x", None), "target"),
        ],
    )
    def test_link_field_of_the_wrong_type(self, link, field_name):
        repo = Repository()
        repo.add_entity(Entity("api", "x"))
        repo.add_entity(Entity("microservice", "y"))
        with pytest.raises(ModelError, match=f"^link {field_name} must be "):
            repo.add_link(link)
        assert repo.links == {}
        repo.links["hand-edited"] = link  # the full scan names the field too
        assert [m for _, m in repo.integrity_violations()] == [
            f"link {link.id}: link {field_name} must be text, got {getattr(link, field_name)!r}"
        ]

    @pytest.mark.parametrize(
        "concern, field_name",
        [
            (Concern(5, CELL), "id"),
            (Concern(["c1"], CELL), "id"),
            (Concern("c1", CELL, statement=3), "statement"),
            (Concern("c1", CELL, entity_refs="api.x"), "entity_refs"),
            (Concern("c1", CELL, entity_refs=("api.x",)), "entity_refs"),
            (Concern("c1", CELL, entity_refs=[["api.x"]]), "entity_refs"),
            (Concern("c1", CELL, records={"a": 1}), "records"),
        ],
    )
    def test_concern_field_of_the_wrong_type(self, concern, field_name):
        repo = Repository()
        repo.add_entity(Entity("api", "x"))
        with pytest.raises(ModelError, match=f"^concern {field_name} must be ") as raised:
            repo.add_concern(concern)  # a string of refs is not read one character at a time
        assert str(raised.value).endswith(f", got {getattr(concern, field_name)!r}")
        assert repo.concerns == {}


SMALL = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.binary(max_size=2),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
IDS = ["api.x", "microservice.y", "c1", "business_function.z"]


@hypothesis_warning_filter
@PROPERTY_SETTINGS
@given(
    entity=st.builds(
        Entity,
        st.sampled_from(["api", "microservice", "business_function"]) | SMALL,
        st.sampled_from(["x", "y", "Zürich", "--"]) | SMALL,
        st.dictionaries(st.sampled_from(["category", "exposure", "colour"]), SMALL, max_size=2) | SMALL,
    ),
    concern=st.builds(
        Concern,
        st.sampled_from(["c1", "api.x", "group.a", " "]) | SMALL,
        st.sampled_from(cells()) | SMALL,
        st.text(max_size=3) | SMALL,
        st.lists(st.sampled_from(IDS) | SMALL, max_size=2) | SMALL,
        st.lists(SMALL, max_size=2) | SMALL,
    ),
    link=st.builds(
        Link,
        st.sampled_from(["exposes", "automates", "motivated_by"]) | SMALL,
        st.sampled_from(IDS) | SMALL,
        st.sampled_from(IDS) | SMALL,
        SMALL,
    ),
)
def test_an_adder_returns_an_id_or_raises_model_error(entity, concern, link):
    repo = Repository()
    repo.add_entity(Entity("api", "x"))
    repo.add_entity(Entity("microservice", "y"))
    for adder, record in ((repo.add_entity, entity), (repo.add_concern, concern), (repo.add_link, link)):
        try:
            assert isinstance(adder(record), str)
        except ModelError:
            pass


def test_records_are_slotted():
    for record in (
        Entity("api", "x"),
        Link("exposes", "api.x", "microservice.y"),
        Concern("c1", ViewCell(View.CONSUMER)),
        ViewCell(View.CONSUMER),
        Location("a.ea.yaml", 1, 1),
        Diagnostic("error", "m", Location("a.ea.yaml", 1, 1)),
    ):
        assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        Entity("api", "x").extra = 1
