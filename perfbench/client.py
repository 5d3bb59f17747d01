"""The closed-loop client: sends one request and checks its answer."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ReproError
from repro.ordbms import execute_sql
from repro.ordbms.textindex import tokenize

from perfbench.gen import FORMAT_OF_EXTENSION, Request

_DOC_ATTRIBUTE = re.compile(r'<(?:result|chapter|entry) doc="([^"]*)"')
CACHED_STAMP = ' cached="true"'


@dataclass
class Reply:
    status: int
    body: str = ""
    rows: list | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def send(netmark, request: Request) -> Reply:
    """One operation through the end-to-end entry points."""
    if request.kind == "sql":
        try:
            result = execute_sql(netmark.database, request.target)
        except ReproError as error:
            return Reply(500, str(error))
        return Reply(200, rows=result.rows)
    response = netmark.http_get(request.target)
    return Reply(response.status, response.body)


class Truth:
    """Ground truth of a node's documents: name -> (format, headings)."""

    def __init__(self) -> None:
        self.documents: dict[str, tuple[str, tuple[str, ...]]] = {}

    def record(self, name: str, headings: tuple[str, ...]) -> None:
        extension = name.rsplit(".", 1)[1]
        self.documents[name] = (FORMAT_OF_EXTENSION[extension], headings)

    def context_docs(self, heading: str, fmt: str | None = None) -> set[str]:
        return {
            name
            for name, (doc_format, headings) in self.documents.items()
            if heading in headings and (fmt is None or doc_format == fmt)
        }


def returned_docs(body: str) -> list[str]:
    return _DOC_ATTRIBUTE.findall(body)


def check(request: Request, reply: Reply, truth: Truth, doc_ids: list[int]) -> str | None:
    """Why ``reply`` is wrong for ``request``, or None when it is right.

    Local context answers (plain or through a stylesheet) must return
    exactly ``limit`` of the documents the generator gave that heading
    (all of them without a limit); SQL answers must agree with the
    catalog; every other answer must be a complete 2xx reply.
    """
    if not reply.ok:
        return f"status {reply.status}: {reply.body[:200]}"
    if request.kind == "sql":
        return _check_sql(request, reply.rows, doc_ids)
    if 'partial="true"' in reply.body:
        return "partial answer"
    if request.kind in ("context", "xslt"):
        expected = truth.context_docs(request.heading, request.format)
        got = returned_docs(reply.body)
        want = len(expected) if request.limit is None else min(request.limit, len(expected))
        if len(got) != want or len(set(got)) != len(got) or not set(got) <= expected:
            return f"context answer has {len(got)} documents, expected {want}"
    elif request.limit is not None and len(returned_docs(reply.body)) > request.limit:
        return "answer exceeds its limit"
    return None


def _check_sql(request: Request, rows: list, doc_ids: list[int]) -> str | None:
    in_range = sum(1 for doc_id in doc_ids if doc_id <= request.max_doc_id)
    if request.terms:
        term = request.terms[0]
        for row in rows:
            if row["DOC_ID"] > request.max_doc_id or term not in tokenize(row["NODEDATA"] or ""):
                return f"CONTAINS row {row['DOC_ID']} does not match"
        return None
    total = sum(row["DOCS"] for row in rows)
    if total != in_range:
        return f"GROUP BY format counts sum to {total}, expected {in_range}"
    return None
