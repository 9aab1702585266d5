"""Memory budgets of the text layers, in bytes per byte of text.

``tracemalloc`` peaks repeat exactly for one build of Python, where wall times
on a shared machine spread widely, so a regression in memory shows here
without a benchmark run.  Each budget is the peak measured on the generated
repository below plus a margin for other Python versions and for allocator
free lists, which earlier tests leave in different states.  Measured after a
warm-up call, on a 76 kB text: ``parse_repository`` 5.8 times its input with
libyaml on Python 3.11 and 5.9 times with PyYAML's pure-Python parser there
(6.7 times with either before the model's records were slotted; it was 40.5
times while PyYAML's composer built a node tree).  On 3.10 the pure-Python
parser measured 8.3 times before the slots, which cut 12% on 3.11;
``serialize_repository`` 10.4 times its output on 3.11 and 11.4 times on 3.10.
"""

import tracemalloc

from w6hea import model
from w6hea.model import Concern, Entity, Link, Repository, cells
from w6hea.repofmt import SourceDocument, parse_repository, serialize_repository
from w6hea.validation import validate

PARSE_BUDGET = 9  # peak bytes per input byte
SERIALIZE_BUDGET = 12  # peak bytes per output byte


def generated(services: int = 120) -> Repository:
    """A repository of ``services`` microservices, each with an API, a data
    element, two links and a concern."""
    repo = Repository(name="budget", version="1")
    grid = cells()
    for i in range(services):
        svc, api, data = f"svc-{i:04}", f"api-{i:04}", f"data-{i:04}"
        repo.add_entity(Entity("microservice", svc, {"category": "system", "tech_stack": ["python", "kafka"]}))
        repo.add_entity(Entity("api", api, {"exposure": "internal"}))
        repo.add_entity(Entity("data_element", data, {"persisted": i % 2 == 0, "pattern": "side_car"}))
        repo.add_link(Link("exposes", f"api.{api}", f"microservice.{svc}"))
        repo.add_link(Link("owns_data", f"microservice.{svc}", f"data_element.{data}", 1.5))
        refs = [f"api.{api}", f"microservice.{svc}", f"data_element.{data}"]
        repo.add_concern(Concern(f"c{i:04}", grid[i % len(grid)], f"Stakeholders ask about c{i:04}", refs))
    return repo


def peak(call) -> tuple:
    """``(peak bytes, result)`` of ``call()``, after one call to warm up."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


REPO = generated()
TEXT = serialize_repository(REPO)


def test_parse_peak_is_within_its_budget():
    docs = [SourceDocument("repo.ea.yaml", TEXT)]
    used, (repo, diagnostics) = peak(lambda: parse_repository(docs))
    assert (repo, diagnostics) == (REPO, [])
    assert used <= PARSE_BUDGET * len(TEXT.encode())


def test_serialize_peak_is_within_its_budget():
    used, text = peak(lambda: serialize_repository(REPO))
    assert text == TEXT
    assert used <= SERIALIZE_BUDGET * len(TEXT.encode())


def test_ids_are_derived_once_in_a_parse_and_never_in_validate(monkeypatch):
    slugged = []
    slugify = model.slugify
    monkeypatch.setattr(model, "slugify", lambda text: slugged.append(text) or slugify(text))
    repo, _ = parse_repository([SourceDocument("repo.ea.yaml", TEXT)])
    assert 0 < len(slugged) <= 2 * len(repo.entities)  # sorting the declarations, then the adder
    slugged.clear()
    assert validate(repo)
    assert slugged == []
