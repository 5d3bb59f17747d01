"""Document reconstruction: XML-table rows -> DOM tree.

The inverse of :mod:`repro.store.decompose`.  Reconstruction is used by
document retrieval (HTTP GET of a stored document) and by result
composition, which lifts individual *sections* back into DOM fragments
before XSLT formatting.

All row access funnels through a :class:`~repro.store.accessor.NodeAccessor`
so child sets come back in batched fetches and repeated composition of
overlapping fragments (a section and the document containing it) reuses
cached rows.  Callers may pass their own accessor to share its caches;
otherwise an ephemeral one is made per call.

The decompose→compose round trip preserves structure, attributes, text
and node order exactly; the property-based tests drive random trees
through it.
"""

from __future__ import annotations

from typing import Any

from repro.ordbms import Database
from repro.sgml.dom import Document, Element, Text
from repro.sgml.nodetypes import NodeType
from repro.store.accessor import NodeAccessor
from repro.store.schema import decode_attributes

Row = dict[str, Any]


def compose_node(
    database: Database, row: Row, accessor: NodeAccessor | None = None
) -> Element | Text:
    """Rebuild the DOM subtree rooted at ``row``."""
    accessor = accessor or NodeAccessor(database)
    if row["NODETYPE"] == int(NodeType.TEXT):
        return Text(row["NODEDATA"] or "")
    element = Element(row["NODENAME"] or "node", decode_attributes(row["ATTRS"]))
    element.synthetic = row["NODETYPE"] == int(NodeType.SIMULATION)
    for child_row in accessor.children(row):
        element.append(compose_node(database, child_row, accessor))
    return element


def compose_document(
    database: Database,
    doc_id: int,
    name: str = "",
    accessor: NodeAccessor | None = None,
) -> Document:
    """Rebuild the full DOM of document ``doc_id``."""
    accessor = accessor or NodeAccessor(database)
    roots = [
        row
        for row in accessor.lookup_rows("DOC_ID", doc_id)
        if row["PARENTROWID"] is None
    ]
    if len(roots) != 1:
        from repro.errors import StoreError

        raise StoreError(
            f"document {doc_id} has {len(roots)} root nodes, expected 1"
        )
    root = compose_node(database, roots[0], accessor)
    if isinstance(root, Text):  # a bare text root cannot occur via decompose
        wrapper = Element("document", synthetic=True)
        wrapper.append(root)
        root = wrapper
    return Document(root, name=name)


def compose_section(
    database: Database, context_row: Row, accessor: NodeAccessor | None = None
) -> Element:
    """Rebuild one section as ``<section><context>…</context>…</section>``.

    The section element is synthetic — it represents the *query result*
    shape, not necessarily a stored element.  Content is every sibling
    subtree up to the next context, reconstructed in full.
    """
    accessor = accessor or NodeAccessor(database)
    section = Element("section", synthetic=True)
    section.append(compose_node(database, context_row, accessor))
    for row in accessor.section_scope(context_row):
        if row["PARENTROWID"] == context_row["PARENTROWID"]:  # a sibling
            section.append(compose_node(database, row, accessor))
    return section
