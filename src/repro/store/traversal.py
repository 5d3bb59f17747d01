"""ROWID-based tree traversal (paper §2.1.4, "Processing Queries Internally").

The paper's evaluation strategy for context/content search:

    "Each node returned from the index search is then processed based on
    its designated unique ROWID.  The processing of the node involves
    traversing up the tree structure via its parent or sibling node until
    the first context is found. [...] Once a particular CONTEXT is found,
    traversing back down the tree structure via the sibling node retrieves
    the corresponding content text."

The upward half runs only here, as the oracle that fsck and the tests
hold the decomposer's stored lift columns to (the read path reads the
columns).  The ``walk_*`` functions navigate any ``tree`` with
``parent(row)`` and ``children(row)`` — a
:class:`~repro.store.accessor.NodeAccessor` or fsck's heap view.  The
other free functions serve callers holding only a
:class:`~repro.ordbms.database.Database`, one fresh accessor per call.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.ordbms import Database, RowId
from repro.ordbms.table import ROWID_PSEUDO
from repro.sgml.nodetypes import NodeType
from repro.store.accessor import NodeAccessor
from repro.store.schema import XML_TABLE

Row = dict[str, Any]

_CONTEXT = int(NodeType.CONTEXT)
_INTENSE = int(NodeType.INTENSE)


def _nearest_above(tree: Any, row: Row, node_types: set[int]) -> Row | None:
    parent = tree.parent(row)
    while parent is not None and parent["NODETYPE"] not in node_types:
        parent = tree.parent(parent)
    return parent


def walk_context_ancestor(tree: Any, row: Row) -> Row | None:
    """Nearest *proper ancestor* CONTEXT element (else None)."""
    return _nearest_above(tree, row, {_CONTEXT})


def walk_emphasized(tree: Any, row: Row) -> bool:
    """True when ``row`` sits inside INTENSE markup below its context."""
    found = _nearest_above(tree, row, {_CONTEXT, _INTENSE})
    return found is not None and found["NODETYPE"] == _INTENSE


def walk_governing_context(tree: Any, row: Row) -> Row | None:
    """Nearest enclosing/preceding CONTEXT for any node row.

    Walk up parent links; at each level, an enclosing CONTEXT wins, else
    the latest *preceding* CONTEXT sibling does.  None for front matter
    preceding every context.
    """
    current = row
    while (parent := tree.parent(current)) is not None:
        if parent["NODETYPE"] == _CONTEXT:
            return parent
        preceding = [
            sibling for sibling in tree.children(parent)
            if sibling["ORDINAL"] < current["ORDINAL"]
            and sibling["NODETYPE"] == _CONTEXT
        ]
        if preceding:
            return preceding[-1]
        current = parent
    return None


def reference_lifts(tree: Any, row: Row) -> tuple[RowId | None, RowId | None, int]:
    """The walked ``(GOVERNINGROWID, ANCESTORROWID, EMPHASIZED)`` of a row."""
    lifted = (walk_governing_context(tree, row), walk_context_ancestor(tree, row))
    return (
        *(None if found is None else found[ROWID_PSEUDO] for found in lifted),
        int(walk_emphasized(tree, row)),
    )


def fetch_node(database: Database, rowid: RowId) -> Row:
    """O(1) fetch of an XML-table node row by physical ROWID."""
    return database.fetch(XML_TABLE, rowid)


def parent_of(database: Database, row: Row) -> Row | None:
    """Follow ``PARENTROWID`` up one level (None at the root)."""
    return NodeAccessor(database).parent(row)


def next_sibling_of(database: Database, row: Row) -> Row | None:
    """Follow ``SIBLINGID`` across one hop (None for the last child)."""
    return NodeAccessor(database).next_sibling(row)


def children_of(database: Database, row: Row) -> list[Row]:
    """All direct children, in document order (one batched fetch).

    Uses the B+tree index on ``PARENTNODEID`` (node ids are globally
    unique) — NETMARK keeps the logical parent id alongside the physical
    link precisely so child sets have an indexed entry point.
    """
    return NodeAccessor(database).children(row)


def is_context(row: Row) -> bool:
    return NodeAccessor.is_context(row)


def is_text(row: Row) -> bool:
    return NodeAccessor.is_text(row)


def governing_context(database: Database, row: Row) -> Row | None:
    """Nearest enclosing/preceding CONTEXT element for any node row,
    found by the paper's upward walk (see :func:`walk_governing_context`).
    """
    return walk_governing_context(NodeAccessor(database), row)


def section_scope(database: Database, context_row: Row) -> list[Row]:
    """Rows forming the section governed by ``context_row``.

    The scope is every following sibling (and its whole subtree) up to,
    but not including, the next CONTEXT sibling.  The walk uses SIBLINGID
    forward hops, exactly the "traversing back down the tree structure via
    the sibling node" step of the paper.
    """
    return NodeAccessor(database).section_scope(context_row)


def section_text(database: Database, context_row: Row) -> str:
    """The content text of the section governed by ``context_row``."""
    return NodeAccessor(database).section_text(context_row)


def context_title(database: Database, context_row: Row) -> str:
    """The heading text of a CONTEXT element (its TEXT descendants)."""
    return NodeAccessor(database).context_title(context_row)


def scope_rowids(database: Database, context_row: Row) -> set[RowId]:
    """The physical rowids of a section scope (for containment tests)."""
    return {row[ROWID_PSEUDO] for row in section_scope(database, context_row)}


def iter_contexts(database: Database, doc_id: int) -> Iterator[Row]:
    """Every CONTEXT element row of one document, in NODEID order."""
    xml_table = database.table(XML_TABLE)
    rows = [
        row
        for row in xml_table.lookup("DOC_ID", doc_id)
        if is_context(row)
    ]
    rows.sort(key=lambda row: row["NODEID"])
    yield from rows
