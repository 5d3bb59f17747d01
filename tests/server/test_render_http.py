"""Search bodies joined from ``<result>`` fragments equal the tree path.

A search without ``xslt=`` answers with ``ResultSet.render``: each
match's fragment is rendered once and replayed, with no DOM clone.  On a
fig6 node, every such body must equal what ``serialize(to_xml())`` with
the same stamps and ``<trace>`` prints, byte for byte: cached hits,
``Cache=0``, ``Trace=1``, brownout, deadline-truncated and
federated-partial answers alike.
"""

import pytest

from repro.netmark import Netmark
from repro.query.results import ResultSet
from repro.resilience import FaultPlan
from repro.server.overload import AdmissionController
from repro.server.workers import WorkerPool
from repro.sgml.serializer import serialize
from repro.workloads import CorpusSpec, generate_corpus
from tests.conftest import SAMPLE_FILES
from tests.server.test_overload import SteppingClock


def _reference(results, stamps=None, trailer=()):
    """The body the tree path prints for ``results``."""
    document = results.to_xml()
    document.root.attributes.update(stamps or {})
    for element in trailer:
        document.root.append(element.clone())
    return serialize(document, indent=2)


@pytest.fixture(scope="module")
def fig6():
    node = Netmark("fig6")
    for file in generate_corpus(CorpusSpec(documents=40, seed=200)):
        node.store.store_text(file.text, file.name)
    for name, text in SAMPLE_FILES:  # emphasis markup, HTML, CSV
        node.store.store_text(text, name)
    remote = Netmark("remote")
    for file in generate_corpus(CorpusSpec(documents=10, seed=7)):
        remote.store.store_text(file.text, f"remote-{file.name}")
    plan = FaultPlan()
    plan.fail("down", times=None)
    node.create_databank("fleet")
    node.add_source("fleet", node.as_source("local"))
    node.add_source("fleet", remote.as_source("second"))
    node.add_source("fleet", plan.wrap_source(remote.as_source("down")))
    return node


@pytest.fixture
def renders(monkeypatch):
    """Every body ``render`` returns, paired with the tree path's."""
    seen = []
    original = ResultSet.render

    def checked(self, stamps=None, trailer=()):
        body = original(self, stamps, trailer)
        seen.append((body, _reference(self, stamps, trailer)))
        return body

    monkeypatch.setattr(ResultSet, "render", checked)
    return seen


def _get(node, renders, target):
    before = len(renders)
    response = node.http_get(target)
    assert response.ok, response.body
    assert len(renders) == before + 1  # answered by the fragment path
    body, reference = renders[-1]
    assert body == reference
    assert response.body == body
    return response.body


@pytest.mark.parametrize(
    "target, marker",
    [
        ("/search?Context=Budget", ' cached="true"'),
        ("/search?Context=Budget&Cache=0", "<result "),
        ("/search?Context=Budget&Trace=1", "<trace>"),
        ("/search?Context=Budget&Content=resource&limit=3", ' cached="true"'),
        ("/search?Content=equipment", "<b>equipment</b>"),
        ("/search?Context=Nonexistent", ' cached="true"/>'),
        ("/search?Context=Budget&databank=fleet", '<unreachable source="down">'),
        ("/search?Context=Budget&databank=fleet&Trace=1", "<trace>"),
    ],
)
def test_body_equals_the_tree_path(fig6, renders, target, marker):
    _get(fig6, renders, target)
    replay = _get(fig6, renders, target)
    assert marker in replay
    if "Cache=0" in target:
        assert "cached" not in replay


def test_deadline_partial_body(fig6, renders):
    clock = fig6.api.clock
    fig6.api.clock = SteppingClock()
    try:
        body = _get(fig6, renders, "/search?Context=Budget&Deadline=2&Partial=1")
    finally:
        fig6.api.clock = clock
    assert "<deadline-expired>" in body


def test_brownout_body(renders):
    node = Netmark("brownout")
    for file in generate_corpus(CorpusSpec(documents=20, seed=200)):
        node.store.store_text(file.text, file.name)
    admission = AdmissionController(
        queue_limit=1, enter_pressure=4, exit_pressure=1,
        shed_cost=2, brownout_limit=2,
    )
    pool = WorkerPool(node.api, admission=admission, manual=True)
    for _ in range(3):  # fill the queue, then shed until brownout
        pool.submit("GET", "/docs")
    assert admission.brownout_active
    _get(node, renders, "/search?Context=Budget")
    body = _get(node, renders, "/search?Context=Budget")
    assert 'cached="true" degraded="brownout"' in body
