"""Document decomposition: DOM tree -> XML-table node rows.

"The NETMARK 'SGML parser' decomposes the XML (or even HTML) documents
into its constituent nodes and dynamically inserts them into two primary
database tables — namely, XML and DOC."

The decomposer walks the DOM depth-first, emitting one row per node.
Parent links are physical ROWIDs (known by the time a child is inserted —
parents precede children in a depth-first walk); the **next-sibling**
ROWID can only be known after the next sibling is inserted, so sibling
links are patched with in-place updates as the walk proceeds.  The result
is the traversal structure the paper exploits: O(1) hops up (PARENTROWID)
and across (SIBLINGID).
The derived lift columns (:mod:`repro.store.schema`) point only at rows
inserted earlier in the walk, so each row is complete at insert time.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

from repro.ordbms import Database, RowId
from repro.sgml.config import NodeTypeConfig
from repro.sgml.dom import Document, Element, Node, Text
from repro.sgml.nodetypes import NodeType
from repro.store.schema import (
    DOC_TABLE,
    LIFT_COLUMNS,
    XML_TABLE,
    encode_attributes,
    encode_metadata,
)


@dataclass
class DecomposeResult:
    """What one document load produced."""

    doc_id: int
    root_rowid: RowId
    node_count: int


class Decomposer:
    """Stateful node-id allocator + document loader for one database."""

    def __init__(self, database: Database, config: NodeTypeConfig) -> None:
        self._database = database
        self._config = config
        self._next_doc_id = 1
        self._next_node_id = 1

    def resume(self, next_doc_id: int, next_node_id: int) -> None:
        """Resume id allocation past a restored snapshot's highest ids."""
        self._next_doc_id = next_doc_id
        self._next_node_id = next_node_id

    def load(self, document: Document, file_date: _dt.datetime | None = None) -> DecomposeResult:
        """Insert ``document`` into DOC + XML inside one transaction."""
        database = self._database
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        size = document.metadata.get("char_size")
        with database.begin():
            database.insert(
                DOC_TABLE,
                {
                    "DOC_ID": doc_id,
                    "FILE_NAME": document.name or f"document-{doc_id}",
                    "FILE_DATE": file_date,
                    "FILE_SIZE": size if isinstance(size, int) else None,
                    "FORMAT": str(document.metadata.get("format", "unknown")),
                    "METADATA": encode_metadata(document.metadata),
                },
            )
            root_rowid, count, _ = self._insert_subtree(
                document.root,
                doc_id=doc_id,
                parent_rowid=None,
                parent_nodeid=None,
                ordinal=0,
            )
        return DecomposeResult(doc_id=doc_id, root_rowid=root_rowid, node_count=count)

    # -- internals -----------------------------------------------------------

    def _insert_subtree(
        self,
        node: Node,
        doc_id: int,
        parent_rowid: RowId | None,
        parent_nodeid: int | None,
        ordinal: int,
        lifts: tuple[RowId | None, RowId | None, int] = (None, None, 0),
    ) -> tuple[RowId, int, NodeType]:
        """Insert ``node``'s subtree; ``lifts`` is the node's own
        ``(GOVERNINGROWID, ANCESTORROWID, EMPHASIZED)``."""
        database = self._database
        node_id = self._next_node_id
        self._next_node_id += 1
        node_type = self._config.classify(node)
        governing, ancestor, emphasized = lifts
        is_text = isinstance(node, Text)
        values = {
            "NODEID": node_id,
            "DOC_ID": doc_id,
            "PARENTROWID": parent_rowid,
            "PARENTNODEID": parent_nodeid,
            "NODETYPE": int(node_type),
            "NODENAME": None if is_text else node.tag,
            "NODEDATA": node.data if is_text else None,
            "ORDINAL": ordinal,
            "ATTRS": None if is_text else encode_attributes(node.attributes),
            **dict(zip(LIFT_COLUMNS, lifts)),
        }
        rowid = database.insert(XML_TABLE, values)
        if is_text:
            return rowid, 1, node_type

        assert isinstance(node, Element)
        # Children's lifts: an enclosing CONTEXT wins, else the latest CONTEXT sibling.
        is_context = node_type == NodeType.CONTEXT
        if is_context:
            governing, ancestor, emphasized = rowid, rowid, 0
        elif node_type == NodeType.INTENSE:
            emphasized = 1
        count = 1
        previous_child_rowid: RowId | None = None
        for child_ordinal, child in enumerate(node.children):
            child_rowid, child_count, child_type = self._insert_subtree(
                child,
                doc_id=doc_id,
                parent_rowid=rowid,
                parent_nodeid=node_id,
                ordinal=child_ordinal,
                lifts=(governing, ancestor, emphasized),
            )
            count += child_count
            if child_type == NodeType.CONTEXT and not is_context:
                governing = child_rowid
            if previous_child_rowid is not None:
                # Patch the previous sibling's forward link now that its
                # successor's physical address is known.
                database.update(
                    XML_TABLE, previous_child_rowid, {"SIBLINGID": child_rowid}
                )
            previous_child_rowid = child_rowid
        return rowid, count, node_type


def classify_counts(
    database: Database, doc_id: int
) -> dict[NodeType, int]:
    """Histogram of node types for one document (test/diagnostic helper)."""
    xml_table = database.table(XML_TABLE)
    counts: dict[NodeType, int] = {}
    for row in xml_table.lookup("DOC_ID", doc_id):
        node_type = NodeType(row["NODETYPE"])
        counts[node_type] = counts.get(node_type, 0) + 1
    return counts
