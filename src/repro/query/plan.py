"""Query plans: explicit operator trees with lazy cursors.

The engine (:mod:`repro.query.engine`) compiles every XDB query into a
small tree of :class:`PlanNode` operators and then *pulls* matches out of
the root.  Each operator is a lazy cursor — ``rows()`` yields items one
at a time and counts them — so a downstream ``Limit`` stops the whole
pipeline early: no section is walked, no title resolved, no match
materialized beyond what the limit requires.

Operator inventory (leaf → root):

``IndexProbe`` / ``Scan``
    TEXT-row sources: the inverted-index probe of paper §2.1.4, or the
    full-table fallback used by the ABL-IDX ablation.
``Union``
    Order-preserving, ROWID-deduplicating merge of several probes.
``ContextLift`` / ``GoverningLift``
    The upward traversal: heading hits lift to their CONTEXT *ancestor*
    (context search), content hits to their *governing* context
    (content search, which also accumulates INTENSE score boosts and
    collects document-level hits that precede every context).  Both
    read the hit row's stored lift columns (no walk) and fetch the
    distinct lifted contexts in one batch.
``Sort``
    Stable (document, node) ordering of lifted context rows.
``DocFilter`` / ``FormatFilter``
    The ``Doc=`` / ``Format=`` narrowing filters.
``Intersect``
    Document-level semijoin: content terms must occur *somewhere* in a
    candidate's document, checked purely against index postings before
    any section walk.  Sound and complete at document granularity (a
    section's text is drawn from the document's own TEXT rows), applied
    only for terms the tokenizer maps to themselves.
``Rank``
    Blocking: tags each candidate with its presentation position, then
    re-orders by descending score (stable).  Downstream ``Limit`` is
    thereby *rank-aware* — with INTENSE-boosted scores it keeps the
    best-scored matches, with uniform scores it degenerates to
    presentation order.
``SectionWalk``
    The downward sibling walk: does the candidate's section (heading
    included) satisfy the content spec?  Document-level candidates pass
    through untested, matching the engine's long-standing behaviour.
``ContentFilter``
    Nodename variant: composes the element and tests its text.
``Limit``
    Stops pulling after N rows.
``Present``
    Restores presentation order after ``Rank`` (blocking, cheap).
``Materialize``
    Converts surviving candidates into lazy
    :class:`~repro.query.results.SectionMatch` objects.

``Explain=1`` renders the tree with each operator's observed row count —
see :meth:`PlanNode.explain_element`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import DocumentNotFoundError, QueryError
from repro.obs import PlanProfiler
from repro.ordbms.mvcc import Snapshot
from repro.ordbms.table import ROWID_PSEUDO
from repro.ordbms.textindex import TextIndex, tokenize
from repro.query.ast import ContentSpec
from repro.query.results import SectionMatch
from repro.sgml.dom import Element, Text
from repro.sgml.nodetypes import NodeType
from repro.store.accessor import NodeAccessor
from repro.store.compose import compose_node, compose_section
from repro.store.xmlstore import StoredDocument, XmlStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.deadline import Budget

Row = dict[str, Any]


def phrase_in(phrase: str, text: str) -> bool:
    """Token-level phrase containment, case-insensitive.

    ``Budget`` is contained in ``FY04 Budget Summary`` but not in
    ``Budgetary`` — token boundaries matter, substring match does not.
    """
    needle = tokenize(phrase, keep_stopwords=True)
    haystack = tokenize(text, keep_stopwords=True)
    if not needle:
        return False
    span = len(needle)
    return any(
        haystack[start:start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def text_satisfies(text: str, spec: ContentSpec) -> bool:
    """Does free text satisfy a content spec (phrase / any / all)?"""
    if spec.mode == "phrase":
        return phrase_in(spec.text, text)
    tokens = set(tokenize(text, keep_stopwords=True))
    wanted = [term.lower() for term in spec.terms]
    if spec.mode == "any":
        return any(term in tokens for term in wanted)
    return all(term in tokens for term in wanted)


def scan_match(key: str, data: str, phrase_mode: bool) -> bool:
    """The scan-path predicate mirroring one index probe."""
    if phrase_mode:
        return phrase_in(key, data)
    tokens = set(tokenize(data, keep_stopwords=True))
    return all(term.lower() in tokens for term in tokenize(key))


class PlanContext:
    """Shared execution state for one query's plan.

    Owns the per-query :class:`NodeAccessor` (memoized, batch-fetching
    row access) and a memo of DOC-table catalog entries so repeated
    ``describe`` lookups during filtering and materialization cost one
    B+tree probe per document, total.
    """

    def __init__(
        self,
        store: XmlStore,
        accessor: NodeAccessor,
        use_index: bool,
        profiler: PlanProfiler | None = None,
        snapshot: Snapshot | None = None,
        budget: "Budget | None" = None,
    ) -> None:
        self.store = store
        self.accessor = accessor
        self.use_index = use_index
        self.profiler = profiler
        #: Pinned MVCC snapshot the whole plan executes against (None =
        #: live reads, the single-threaded default).
        self.snapshot = snapshot
        #: The request's time-and-cancellation budget
        #: (:class:`repro.resilience.deadline.Budget`); every operator
        #: checks it at its pull boundary, so one expired deadline stops
        #: the whole tree cooperatively.  None = unbounded.
        self.budget = budget
        self._entries: dict[int, StoredDocument] = {}

    def entry(self, doc_id: int) -> StoredDocument:
        """Catalog entry for ``doc_id``, memoized per plan."""
        entry = self._entries.get(doc_id)
        if entry is None:
            entry = self.store.describe(doc_id, snapshot=self.snapshot)
            self._entries[doc_id] = entry
        return entry

    def file_name(self, doc_id: int) -> str:
        return self.entry(doc_id).file_name

    def text_index(self) -> TextIndex:
        """The NODEDATA inverted index (schema-created; absence is a fault)."""
        index = self.store.xml_table.text_index_on("NODEDATA")
        if index is None:
            raise QueryError(
                "indexed search requires the text index on XML.NODEDATA, "
                "which the schema normally creates"
            )
        return index

    def section_satisfies(self, context_row: Row, spec: ContentSpec) -> bool:
        """Does the section under ``context_row`` satisfy the content spec?

        The heading participates: ``Content=Shuttle`` returns sections
        containing the term *anywhere*, headings included.
        """
        heading = self.accessor.context_title(context_row)
        text = heading + " " + self.accessor.section_text(context_row)
        return text_satisfies(text, spec)


@dataclass
class Candidate:
    """One item flowing through a plan: a potential match, pre-materialization.

    ``kind`` is "section" (``row`` is a CONTEXT row), "document" (``row``
    is the first context-less content hit of the document) or "node"
    (``row`` is an element row from a nodename search).  ``order`` is the
    presentation position tagged by :class:`Rank` so :class:`Present`
    can restore it after rank-aware limiting.
    """

    kind: str
    doc_id: int
    row: Row
    score: float = 1.0
    order: int = -1
    node: Element | Text | None = None
    text: str | None = None


class PlanNode:
    """One operator: a lazy cursor over :class:`Candidate` items.

    ``rows()`` is the pull interface; it counts what flows out so
    ``Explain=1`` can report observed per-operator cardinalities.
    """

    name = "operator"

    def __init__(self, ctx: PlanContext, *children: "PlanNode", detail: str = "") -> None:
        self.ctx = ctx
        self.children = list(children)
        self.detail = detail
        self.rows_out = 0
        self.ticks = 0
        self.wall_seconds = 0.0

    def rows(self) -> Iterator[Any]:
        budget = self.ctx.budget
        if self.ctx.profiler is None and budget is None:
            for item in self._produce():
                self.rows_out += 1
                yield item
            return
        if self.ctx.profiler is None:
            # Cooperative cancellation: the budget check is this
            # operator's batch boundary.  ``admits`` raises on
            # cancellation or a hard deadline; with ``Partial=1`` it
            # returns False and the whole tree stops pulling, leaving
            # downstream operators with a truncated (partial) prefix.
            for item in self._produce():
                if not budget.admits(self.name):
                    return
                self.rows_out += 1
                yield item
            return
        yield from self._profiled_rows()

    def _profiled_rows(self) -> Iterator[Any]:
        """The instrumented pull loop behind ``Explain=profile``.

        Inclusive cost per operator: the profiler's tick delta around
        each ``next()`` (every row surfaced anywhere in the subtree
        advances the clock) plus one tick for the row this operator
        itself surfaces.  Wall time, when a clock was injected, brackets
        the same ``next()`` calls — producer time only, consumer time
        (whatever the caller does between pulls) is excluded.
        """
        profiler = self.ctx.profiler
        budget = self.ctx.budget
        wall = profiler.wall_clock
        produce = self._produce()
        while True:
            start = profiler.now()
            wall_start = wall() if wall is not None else 0.0
            try:
                item = next(produce)
            except StopIteration:
                self.ticks += profiler.now() - start
                if wall is not None:
                    self.wall_seconds += wall() - wall_start
                return
            profiler.advance()
            self.ticks += profiler.now() - start
            if wall is not None:
                self.wall_seconds += wall() - wall_start
            if budget is not None and not budget.admits(self.name):
                return
            self.rows_out += 1
            yield item

    def _produce(self) -> Iterator[Any]:
        raise QueryError(f"plan node {type(self).__name__} has no cursor")

    def explain_element(self) -> Element:
        """``<operator name=… rows=…>`` with child operators nested.

        Under ``Explain=profile`` each operator also carries ``ticks``
        (inclusive work units — deterministic) and, when a wall clock was
        injected at the composition root, ``wall_ms``.
        """
        attributes = {"name": self.name, "rows": str(self.rows_out)}
        if self.ctx.profiler is not None:
            attributes["ticks"] = str(self.ticks)
            if self.ctx.profiler.wall_clock is not None:
                attributes["wall_ms"] = f"{self.wall_seconds * 1000.0:.3f}"
        if self.detail:
            attributes["detail"] = self.detail
        element = Element("operator", attributes)
        for child in self.children:
            element.append(child.explain_element())
        return element


# -- leaf sources -------------------------------------------------------------


class IndexProbe(PlanNode):
    """Inverted-index probe over XML.NODEDATA; yields TEXT-row candidates.

    The posting list comes back as rowids; the rows arrive in ONE batched
    fetch through the accessor (and stay cached for later lifts/walks).
    """

    name = "index-probe"

    def __init__(self, ctx: PlanContext, key: str, phrase_mode: bool) -> None:
        kind = "phrase" if phrase_mode else "terms"
        super().__init__(ctx, detail=f'{kind} "{key}"')
        self.key = key
        self.phrase_mode = phrase_mode

    def _produce(self) -> Iterator[Candidate]:
        self.ctx.text_index()  # missing index is a fault even under MVCC
        if self.phrase_mode:
            rowids = self.ctx.accessor.probe_text(
                lambda index: index.lookup_phrase(self.key),
                lambda data: phrase_in(self.key, data),
            )
        else:
            rowids = self.ctx.accessor.probe_text(
                lambda index: index.lookup_all(tokenize(self.key)),
                lambda data: scan_match(self.key, data, False),
            )
        for row in self.ctx.accessor.nodes(list(rowids)):
            if row["NODETYPE"] == int(NodeType.TEXT):
                yield Candidate("text", row["DOC_ID"], row)


class Scan(PlanNode):
    """Full-table scan source (the ABL-IDX ablation's ``use_index=False``)."""

    name = "scan"

    def __init__(self, ctx: PlanContext, key: str, phrase_mode: bool) -> None:
        kind = "phrase" if phrase_mode else "terms"
        super().__init__(ctx, detail=f'{kind} "{key}"')
        self.key = key
        self.phrase_mode = phrase_mode

    def _produce(self) -> Iterator[Candidate]:
        table = self.ctx.store.xml_table
        if self.ctx.snapshot is not None:
            rows: Iterator[Row] = (
                row
                for row in table.snapshot_scan(self.ctx.snapshot.lsn)
                if row["NODEDATA"] is not None
                and scan_match(self.key, row["NODEDATA"], self.phrase_mode)
            )
        else:
            rows = table.scan(
                lambda row: row["NODEDATA"] is not None
                and scan_match(self.key, row["NODEDATA"], self.phrase_mode)
            )
        for row in rows:
            if row["NODETYPE"] == int(NodeType.TEXT):
                yield Candidate("text", row["DOC_ID"], row)


class Union(PlanNode):
    """Order-preserving union of several sources, deduplicated by ROWID."""

    name = "union"

    def _produce(self) -> Iterator[Candidate]:
        seen: set[Any] = set()
        for child in self.children:
            for candidate in child.rows():
                rowid = candidate.row[ROWID_PSEUDO]
                if rowid in seen:
                    continue
                seen.add(rowid)
                yield candidate


# -- upward traversal ---------------------------------------------------------


class ContextLift(PlanNode):
    """Lift heading hits to their CONTEXT ancestors (context search).

    Each child probe is paired with the phrase it searched for; a lifted
    context only survives if the *whole* phrase holds across its full
    (possibly multi-node) heading.  Confirmed contexts are deduplicated
    across phrases.
    """

    name = "context-lift"

    def __init__(
        self, ctx: PlanContext, pairs: list[tuple[PlanNode, str]]
    ) -> None:
        super().__init__(ctx, *[node for node, _ in pairs])
        self.pairs = pairs

    def _produce(self) -> Iterator[Candidate]:
        accessor = self.ctx.accessor
        confirmed: set[Any] = set()
        for source, phrase in self.pairs:
            lifted = dict.fromkeys(hit.row["ANCESTORROWID"] for hit in source.rows())
            lifted.pop(None, None)  # body text: no heading above it
            for context in accessor.nodes(list(lifted)):
                rowid = context[ROWID_PSEUDO]
                if rowid in confirmed:
                    continue
                # The index matched one TEXT node; confirm the phrase
                # holds across the whole heading.
                if phrase_in(phrase, accessor.context_title(context)):
                    confirmed.add(rowid)
                    yield Candidate("section", context["DOC_ID"], context)


class GoverningLift(PlanNode):
    """Lift content hits to their governing contexts (content search).

    Blocking: scores (INTENSE boosts) accumulate across *all* hits of a
    context, so nothing can flow until every hit is seen.  Emits the
    distinct contexts in stable (document, node) order with their final
    scores, then one document-level candidate per context-less document
    (carrying its first hit row, whose data becomes the snippet).
    """

    name = "governing-lift"

    def _produce(self) -> Iterator[Candidate]:
        boosts: dict[Any, float] = {}
        doc_level: dict[int, Row] = {}
        for candidate in self.children[0].rows():
            row = candidate.row
            key = row["GOVERNINGROWID"]
            if key is None:
                doc_level.setdefault(candidate.doc_id, row)
                continue
            boosts[key] = boosts.get(key, 0.0) + 0.5 * row["EMPHASIZED"]
        contexts = self.ctx.accessor.nodes(list(boosts))
        contexts.sort(key=lambda row: (row["DOC_ID"], row["NODEID"]))
        for row in contexts:
            score = 1.0 + boosts[row[ROWID_PSEUDO]]
            yield Candidate("section", row["DOC_ID"], row, score=score)
        for doc_id in sorted(doc_level):
            yield Candidate("document", doc_id, doc_level[doc_id])


class NodenameProbe(PlanNode):
    """B+tree probe on NODENAME: one candidate per element instance."""

    name = "nodename-probe"

    def __init__(self, ctx: PlanContext, nodename: str) -> None:
        super().__init__(ctx, detail=nodename)
        self.nodename = nodename

    def _produce(self) -> Iterator[Candidate]:
        for row in self.ctx.accessor.lookup_rows("NODENAME", self.nodename):
            yield Candidate("node", row["DOC_ID"], row)


class Sort(PlanNode):
    """Stable (document, node) ordering — the presentation order."""

    name = "sort"

    def _produce(self) -> Iterator[Candidate]:
        candidates = list(self.children[0].rows())
        candidates.sort(key=lambda c: (c.row["DOC_ID"], c.row["NODEID"]))
        yield from candidates


# -- filters ------------------------------------------------------------------


class DocFilter(PlanNode):
    """The ``Doc=`` narrowing filter: file-name substring, case-folded."""

    name = "doc-filter"

    def __init__(self, ctx: PlanContext, child: PlanNode, needle: str) -> None:
        super().__init__(ctx, child, detail=needle)
        self.needle = needle.lower()

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            if self.needle in self.ctx.file_name(candidate.doc_id).lower():
                yield candidate


class FormatFilter(PlanNode):
    """The ``Format=`` narrowing filter (matched against the catalog)."""

    name = "format-filter"

    def __init__(self, ctx: PlanContext, child: PlanNode, wanted: str) -> None:
        super().__init__(ctx, child, detail=wanted)
        self.wanted = wanted

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            try:
                entry = self.ctx.entry(candidate.doc_id)
            except DocumentNotFoundError:
                yield candidate  # federated matches lack local entries
                continue
            if entry.format == self.wanted:
                yield candidate


class Intersect(PlanNode):
    """Document-level semijoin against content-term postings.

    A section's text (heading included) is drawn entirely from TEXT rows
    of its own document, and the joined text is space-separated, so every
    token of a matching section occurs as a token of *some* row the
    index has seen.  Hence: a candidate whose document lacks a required
    term can never satisfy the content spec — drop it before walking its
    section.  Only terms the tokenizer maps to themselves participate
    (``all`` intersects per-term document sets, ``any`` unions them,
    ``phrase`` intersects per-token sets); when a term falls outside
    that shape the semijoin abstains rather than guess.

    The document sets are computed lazily on first pull, one batched
    posting fetch per term, and the fetched rows stay in the accessor
    cache for the section walks that follow.
    """

    name = "intersect"

    def __init__(
        self, ctx: PlanContext, child: PlanNode, spec: ContentSpec
    ) -> None:
        super().__init__(ctx, child, detail=f"{spec.mode}: {spec.text}")
        self.spec = spec

    def _docs_with_token(self, token: str) -> set[int]:
        self.ctx.text_index()  # missing index is a fault even under MVCC
        rowids = self.ctx.accessor.probe_text(
            lambda index: index.lookup(token),
            lambda data: token.lower() in tokenize(data, keep_stopwords=True),
        )
        rows = self.ctx.accessor.nodes(list(rowids))
        return {row["DOC_ID"] for row in rows}

    def _allowed_docs(self) -> set[int] | None:
        """Documents that could host a match — None means "cannot prune"."""
        spec = self.spec
        if spec.mode == "phrase":
            tokens = tokenize(spec.text, keep_stopwords=True)
            if not tokens:
                return None
            allowed = self._docs_with_token(tokens[0])
            for token in tokens[1:]:
                allowed &= self._docs_with_token(token)
            return allowed
        clean = []
        for term in spec.terms:
            if tokenize(term, keep_stopwords=True) != [term.lower()]:
                if spec.mode == "any":
                    return None  # an odd term: abstain entirely
                continue  # "all": skip just this term's pruning
            clean.append(term.lower())
        if not clean:
            return None
        if spec.mode == "any":
            allowed = set()
            for token in clean:
                allowed |= self._docs_with_token(token)
            return allowed
        allowed = self._docs_with_token(clean[0])
        for token in clean[1:]:
            allowed &= self._docs_with_token(token)
        return allowed

    def _produce(self) -> Iterator[Candidate]:
        allowed = self._allowed_docs()
        for candidate in self.children[0].rows():
            if allowed is None or candidate.doc_id in allowed:
                yield candidate


class SectionWalk(PlanNode):
    """The downward sibling walk: content containment per candidate.

    This is the expensive operator — resolving a section's text means
    hopping SIBLINGIDs and fetching subtrees — so it sits directly under
    ``Limit``: candidates beyond what the limit needs are never walked.
    Document-level candidates pass through untested (they matched on a
    context-less hit; there is no section to test).
    """

    name = "section-walk"

    def __init__(
        self, ctx: PlanContext, child: PlanNode, spec: ContentSpec
    ) -> None:
        super().__init__(ctx, child, detail=f"{spec.mode}: {spec.text}")
        self.spec = spec

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            if candidate.kind != "section":
                yield candidate
                continue
            if self.ctx.section_satisfies(candidate.row, self.spec):
                yield candidate


class ContentFilter(PlanNode):
    """Nodename-search content test: compose the element, test its text.

    The composed node and normalized text are cached on the candidate so
    materialization doesn't redo the work.
    """

    name = "content-filter"

    def __init__(
        self, ctx: PlanContext, child: PlanNode, spec: ContentSpec
    ) -> None:
        super().__init__(ctx, child, detail=f"{spec.mode}: {spec.text}")
        self.spec = spec

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            node = compose_node(
                self.ctx.store.database, candidate.row, self.ctx.accessor
            )
            text = re.sub(r"\s+", " ", node.text_content()).strip()
            if not text_satisfies(text, self.spec):
                continue
            candidate.node = node
            candidate.text = text
            yield candidate


# -- rank / limit / present ----------------------------------------------------


class Rank(PlanNode):
    """Tag presentation positions, then emit by descending score (stable).

    Blocking by necessity — ranking needs every score — but candidates
    at this point are cheap (already-fetched rows); the expensive
    section resolution happens downstream, bounded by ``Limit``.
    """

    name = "rank"

    def _produce(self) -> Iterator[Candidate]:
        candidates = list(self.children[0].rows())
        for position, candidate in enumerate(candidates):
            candidate.order = position
        candidates.sort(key=lambda c: -c.score)  # stable: ties keep order
        yield from candidates


class Limit(PlanNode):
    """Stop pulling after N rows; pass-through when no limit is set."""

    name = "limit"

    def __init__(
        self, ctx: PlanContext, child: PlanNode, limit: int | None
    ) -> None:
        super().__init__(
            ctx, child, detail="" if limit is None else str(limit)
        )
        self.limit = limit

    def _produce(self) -> Iterator[Any]:
        if self.limit is None:
            yield from self.children[0].rows()
            return
        emitted = 0
        for item in self.children[0].rows():
            yield item
            emitted += 1
            if emitted >= self.limit:
                break


class Present(PlanNode):
    """Restore presentation order after rank-aware limiting."""

    name = "present"

    def _produce(self) -> Iterator[Candidate]:
        candidates = list(self.children[0].rows())
        candidates.sort(key=lambda c: c.order)
        yield from candidates


# -- materialization ----------------------------------------------------------


@dataclass
class SectionResolver:
    """Lazy-field loader for a section match (accessor-backed)."""

    ctx: PlanContext
    row: Row

    def context(self) -> str:
        return self.ctx.accessor.context_title(self.row)

    def content(self) -> str:
        return self.ctx.accessor.section_text(self.row)

    def section(self) -> Element | None:
        return compose_section(
            self.ctx.store.database, self.row, self.ctx.accessor
        )


@dataclass
class NodeResolver:
    """Lazy-field loader for a nodename match."""

    ctx: PlanContext
    row: Row
    node: Element | Text | None = None
    text: str | None = None
    _heading: str | None = field(default=None, repr=False)

    def _resolve_node(self) -> Element | Text:
        if self.node is None:
            self.node = compose_node(
                self.ctx.store.database, self.row, self.ctx.accessor
            )
        return self.node

    def context(self) -> str:
        if self._heading is None:
            accessor = self.ctx.accessor
            if accessor.is_context(self.row):
                self._heading = accessor.context_title(self.row)
            else:
                governing = accessor.governing_context(self.row)
                self._heading = (
                    accessor.context_title(governing)
                    if governing is not None
                    else self.ctx.file_name(self.row["DOC_ID"])
                )
        return self._heading

    def content(self) -> str:
        if self.text is None:
            node = self._resolve_node()
            self.text = re.sub(r"\s+", " ", node.text_content()).strip()
        return self.text

    def section(self) -> Element | None:
        node = self._resolve_node()
        return node if isinstance(node, Element) else None


class Materialize(PlanNode):
    """Candidates → lazy :class:`SectionMatch` objects.

    Section and nodename matches get loader-backed lazy fields (title,
    content and DOM fragment resolve on first access through the shared
    accessor); document-level matches are materialized eagerly from the
    hit row already in hand.
    """

    name = "materialize"

    def _produce(self) -> Iterator[SectionMatch]:
        ctx = self.ctx
        for candidate in self.children[0].rows():
            entry = ctx.entry(candidate.doc_id)
            if candidate.kind == "section":
                yield SectionMatch(
                    doc_id=entry.doc_id,
                    file_name=entry.file_name,
                    score=candidate.score,
                    loader=SectionResolver(ctx, candidate.row),
                    rowid=candidate.row[ROWID_PSEUDO],
                )
            elif candidate.kind == "document":
                snippet = (candidate.row["NODEDATA"] or "").strip()
                snippet = re.sub(r"\s+", " ", snippet)
                yield SectionMatch(
                    doc_id=entry.doc_id,
                    file_name=entry.file_name,
                    context=entry.file_name,
                    content=snippet,
                    section=None,
                    score=candidate.score,
                )
            else:  # nodename
                yield SectionMatch(
                    doc_id=entry.doc_id,
                    file_name=entry.file_name,
                    score=candidate.score,
                    loader=NodeResolver(
                        ctx, candidate.row, candidate.node, candidate.text
                    ),
                )
