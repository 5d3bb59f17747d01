"""DOM-to-XML serialization.

The store reconstructs documents and query results by serialising DOM
subtrees back to XML text; the XSLT processor serialises result trees the
same way.  Output is always well-formed XML (even when the input was
sloppy HTML), so anything NETMARK emits can be fed back through the strict
parser — a round-trip property the test suite checks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.sgml.dom import Document, Element, Node, Text


def escape_text(data: str) -> str:
    """Escape character data for XML output."""
    return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(data: str) -> str:
    """Escape an attribute value for double-quoted XML output."""
    return escape_text(data).replace('"', "&quot;")


def serialize(
    node: Node | Document, indent: int | None = None, depth: int = 0,
    children: Sequence[Node | str] | None = None,
) -> str:
    """Serialise a node or document to XML text.

    ``indent=None`` produces compact output that preserves text exactly;
    an integer produces pretty-printed output with that many spaces per
    level (whitespace-only text nodes are dropped, so pretty mode is for
    human display, not round-tripping).  ``depth`` is the level ``node``
    is printed at; ``children`` stands in for the element's own, and a
    ``str`` among them is markup already serialized, written as is.
    """
    if isinstance(node, Document):
        node = node.root
    parts: list[str] = []
    _serialize_node(node, parts, indent, depth, children)
    return "".join(parts)


def _serialize_node(
    node: Node | str, parts: list[str], indent: int | None, depth: int,
    children: Sequence[Node | str] | None = None,
) -> None:
    if isinstance(node, str):
        parts.append(node)
        return
    pad = "" if indent is None else " " * (indent * depth)
    newline = "" if indent is None else "\n"
    if isinstance(node, Text):
        if indent is not None:
            stripped = node.data.strip()
            if not stripped:
                return
            parts.append(f"{pad}{escape_text(stripped)}{newline}")
        else:
            parts.append(escape_text(node.data))
        return
    assert isinstance(node, Element)
    attributes = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in node.attributes.items()
    )
    children = node.children if children is None else children
    if not children:
        parts.append(f"{pad}<{node.tag}{attributes}/>{newline}")
        return
    # Compact form for elements holding a single text child keeps
    # pretty-printed context/content output readable.
    only_text = all(isinstance(child, Text) for child in children)
    if indent is not None and only_text:
        text = escape_text("".join(child.data for child in children).strip())
        parts.append(f"{pad}<{node.tag}{attributes}>{text}</{node.tag}>{newline}")
        return
    parts.append(f"{pad}<{node.tag}{attributes}>{newline}")
    for child in children:
        _serialize_node(child, parts, indent, depth + 1)
    parts.append(f"{pad}</{node.tag}>{newline}")
