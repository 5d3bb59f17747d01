"""Stored lift columns equal the paper's upward walk, row for row.

The decomposer computes ``GOVERNINGROWID``, ``ANCESTORROWID`` and
``EMPHASIZED`` at insert time; :mod:`repro.store.traversal` keeps the
parent/sibling walk they replace.  Random documents (front matter,
emphasis inside headings, headings nested in headings, empty sections)
are driven through every path that materialises rows: ingest, replace,
WAL recovery and a replication follower.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import FollowerReplica, LogShipper
from repro.ordbms import ROWID_PSEUDO
from repro.ordbms.wal import MemoryLogDevice
from repro.store import XmlStore, check_store
from repro.store.schema import LIFT_COLUMNS
from repro.store.traversal import reference_lifts

#: CONTEXT (context, h1), INTENSE (b, em), SIMULATION (section), ELEMENT.
_TAGS = ("context", "h1", "b", "em", "section", "p", "div")

_text = st.lists(
    st.sampled_from(("alpha", "beta", "orbit", "budget")),
    min_size=1, max_size=3,
).map(" ".join)


def _element(tag: str, children: list[str]) -> str:
    return f"<{tag}>{''.join(children)}</{tag}>"


_node = st.recursive(
    _text,
    lambda inner: st.builds(
        _element, st.sampled_from(_TAGS), st.lists(inner, max_size=4)
    ),
    max_leaves=20,
)

documents = st.lists(_node, max_size=6).map(
    lambda children: _element("doc", children)
)

#: Every awkward shape at once: front matter, emphasis in a heading, a
#: heading inside a heading, empty sections, emphasis in content.
AWKWARD = (
    "<doc>front matter<p>more <b>front</b></p>"
    "<h1>Head <b>bold</b> <context>Inner</context> tail</h1>"
    "<section></section>"
    "<p>body <em>stress <b>nested</b></em></p>"
    "<section><context>Empty</context></section>"
    "<div><p>deep</p><context>Late</context><p>after</p></div>"
    "</doc>"
)


def assert_lifts_match_walk(store: XmlStore) -> None:
    tree = store.new_accessor()
    rows = list(store.xml_table.scan())
    assert rows
    for row in rows:
        stored = tuple(row[column] for column in LIFT_COLUMNS)
        assert stored == reference_lifts(tree, row), row
    assert check_store(store.database).ok


class TestLiftColumnsEqualTheWalk:
    @given(documents, documents)
    @example(AWKWARD, "<doc><h1>Only <em>a</em> heading</h1></doc>")
    @settings(max_examples=40, deadline=None)
    def test_after_store_and_replace(self, first, second):
        store = XmlStore()
        store.store_text(first, "gen.xml")
        store.store_text(AWKWARD, "fixed.xml")
        assert_lifts_match_walk(store)
        store.replace_text(second, "gen.xml")
        assert_lifts_match_walk(store)

    @given(documents, documents)
    @example(AWKWARD, AWKWARD)
    @settings(max_examples=15, deadline=None)
    def test_after_recovery_and_on_a_follower(self, first, second):
        device = MemoryLogDevice()
        store = XmlStore.open(device)
        follower = FollowerReplica.bootstrap(
            "f1", MemoryLogDevice(), LogShipper(device).bundle()
        )
        store.store_text(first, "gen.xml")
        store.replace_text(second, "gen.xml")
        store.store_text(AWKWARD, "fixed.xml")
        assert_lifts_match_walk(XmlStore.open(device))
        shipper = LogShipper(device)
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert_lifts_match_walk(follower.store)

    def test_awkward_shapes_take_the_expected_values(self):
        """Spot values, so the property cannot pass by both sides being
        wrong the same way."""
        store = XmlStore()
        store.store_text(AWKWARD, "fixed.xml")
        rows = {
            (row["NODENAME"], row["NODEDATA"]): row
            for row in store.xml_table.scan()
        }
        head = rows[("h1", None)]
        inner = store.xml_table.fetch(
            rows[(None, "Inner")]["PARENTROWID"]
        )
        assert inner["NODENAME"] == "context"
        front = rows[(None, "front matter")]
        assert front["GOVERNINGROWID"] is None
        assert rows[(None, "front")]["EMPHASIZED"] == 1
        # Emphasis inside a heading is emphasised; a CONTEXT between a
        # node and the emphasis stops the walk.
        assert rows[(None, "bold")]["EMPHASIZED"] == 1
        assert rows[(None, "Inner")]["EMPHASIZED"] == 0
        assert rows[(None, "bold")]["ANCESTORROWID"] == head[ROWID_PSEUDO]
        assert rows[(None, "Inner")]["ANCESTORROWID"] == inner[ROWID_PSEUDO]
        assert inner["ANCESTORROWID"] == head[ROWID_PSEUDO]
        assert rows[(None, " tail")]["GOVERNINGROWID"] == head[ROWID_PSEUDO]
        assert rows[(None, "nested")]["EMPHASIZED"] == 1
        assert rows[(None, "deep")]["GOVERNINGROWID"] is not None
