"""Seeded input generation: corpora, request streams and write streams.

Everything the program under test receives is made here from the
workload seed, so the same seed gives the same requests and the same
work counters.  The document corpora are the fixed fig6 corpus (seed
200, as in ``benchmarks/bench_fig6_context_search.py``) and a fixed
100-document second node; the seed draws the requests and the writes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.query.language import percent_encode
from repro.workloads import HEADINGS, WORDS, CorpusSpec, generate_corpus

#: Generator file extension -> format name the converters store.
FORMAT_OF_EXTENSION = {
    "ndoc": "word",
    "npdf": "pdf",
    "md": "markdown",
    "html": "html",
    "nppt": "slides",
    "txt": "text",
}
FORMATS = tuple(FORMAT_OF_EXTENSION.values())

FIG6_CORPUS = CorpusSpec(documents=400, seed=200)
SECOND_CORPUS = CorpusSpec(documents=100, seed=201)
LIVE_BASE_CORPUS = CorpusSpec(documents=200, seed=200)
LESSONS = {"count": 30, "seed": 2005}

DATABANK = "fleet"

#: Two composition stylesheets, installed on every node.  ``report.xsl``
#: is the fig7 report; ``digest.xsl`` keeps only headings and sources.
STYLESHEETS = {
    "report.xsl": """<xsl:stylesheet>
  <xsl:template match="/">
    <report query="{results/@query}">
      <xsl:apply-templates select="results/result">
        <xsl:sort select="@doc"/>
      </xsl:apply-templates>
      <coverage><xsl:value-of select="count(results/result)"/></coverage>
    </report>
  </xsl:template>
  <xsl:template match="result">
    <chapter doc="{@doc}">
      <heading><xsl:value-of select="context"/></heading>
      <body><xsl:value-of select="normalize-space(content)"/></body>
    </chapter>
  </xsl:template>
</xsl:stylesheet>""",
    "digest.xsl": """<xsl:stylesheet>
  <xsl:template match="/">
    <digest>
      <xsl:for-each select="results/result">
        <entry doc="{@doc}" source="{@source}">
          <xsl:value-of select="context"/>
        </entry>
      </xsl:for-each>
    </digest>
  </xsl:template>
</xsl:stylesheet>""",
}

#: Cold-mix composition per block of 50 requests.  Kinds are placed in
#: exact proportion and shuffled within each block, so every seed sends
#: the same mix and only the individual queries differ.
COLD_BLOCK = (
    ("context", 20),
    ("content", 12),
    ("combined", 8),
    ("xslt", 4),
    ("databank", 3),
    ("sql", 3),
)
LIMITS = (None,) + tuple(range(1, 41))
WORD_HEADINGS = tuple(h for h in HEADINGS if h.lower() in WORDS)

ZIPF_S = 1.1
COLD_SHAPE_SEED = 1104
HOT_SET_SEED = 1105
LIVE_SET_SEED = 1106
READS_PER_WRITE = 4


@dataclass(frozen=True)
class Request:
    """One client operation and what its answer must satisfy.

    ``kind`` is ``context``/``content``/``combined`` for plain local
    searches, ``xslt`` and ``databank`` for searches with a stylesheet
    or a databank fan-out, and ``sql`` for a statement sent to
    ``execute_sql`` (``target`` then holds the SQL text).
    """

    kind: str
    target: str
    heading: str | None = None
    terms: tuple[str, ...] = ()
    format: str | None = None
    limit: int | None = None
    max_doc_id: int | None = None


@dataclass(frozen=True)
class Write:
    """One drop into the watched folder: a new document or a replacement."""

    name: str
    text: str
    replaces: bool
    headings: tuple[str, ...]


@dataclass
class LiveStream:
    writes: list[Write]
    reads: list[list[Request]] = field(default_factory=list)


def search_target(
    heading: str | None = None,
    terms: tuple[str, ...] = (),
    fmt: str | None = None,
    limit: int | None = None,
    stylesheet: str | None = None,
    databank: str | None = None,
) -> str:
    parts = []
    if heading is not None:
        parts.append("Context=" + percent_encode(heading))
    if terms:
        parts.append("Content=" + percent_encode(" ".join(terms)))
    if fmt is not None:
        parts.append("format=" + fmt)
    if stylesheet is not None:
        parts.append("xslt=" + stylesheet)
    if databank is not None:
        parts.append("databank=" + databank)
    if limit is not None:
        parts.append(f"limit={limit}")
    return "/search?" + "&".join(parts)


def search_request(kind: str, heading=None, terms=(), fmt=None, limit=None,
                   stylesheet=None, databank=None) -> Request:
    return Request(
        kind=kind,
        target=search_target(heading, terms, fmt, limit, stylesheet, databank),
        heading=heading,
        terms=tuple(terms),
        format=fmt,
        limit=limit,
    )


# -- search_cold ---------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """The seed-independent part of a cold request.

    Every run of a given length sends the same shapes (kind, limit,
    format, number of terms...) in seed-shuffled order; the seed picks
    the headings and terms.  Query cost depends mostly on the shape, so
    runs on different seeds measure comparable work while every query
    stays distinct.
    """

    kind: str
    limit: int | None = None
    format: str | None = None
    stylesheet: str | None = None
    terms: int = 0
    #: None, or which heading class the seed draws from: ``"word"`` for
    #: the headings that are also vocabulary words, else ``"plain"``.
    heading: str | None = None
    max_doc_id: int | None = None


def cold_shapes(count: int, documents: int) -> list[Shape]:
    rng = random.Random(COLD_SHAPE_SEED)
    formats = _cycler(rng, (None,) + FORMATS)
    limits = _cycler(rng, LIMITS)
    bounded = _cycler(rng, LIMITS[1:])
    stylesheets = _cycler(rng, tuple(STYLESHEETS))
    # Two thirds single-term: the median content query stays inside the
    # single-term cost mode instead of between the two modes.
    term_counts = _cycler(rng, (1, 1, 2))
    federated = _cycler(rng, ((True, 0), (False, 1), (True, 1)))
    statements = _cycler(rng, (0, 1))
    # A heading that is also a vocabulary word ("Budget", "Schedule") is
    # probed through every text node holding the word, which makes its
    # context and combined queries several times dearer.  Fixing which
    # slots get such a heading keeps that cost out of the seed.
    classes = _cycler(rng, tuple(
        "word" if heading in WORD_HEADINGS else "plain" for heading in HEADINGS
    ))

    def shape(kind: str) -> Shape:
        if kind in ("context", "xslt"):
            return Shape(kind, limits(), formats(), heading=classes(),
                         stylesheet=stylesheets() if kind == "xslt" else None)
        if kind == "content":
            return Shape(kind, bounded(), terms=term_counts())
        if kind == "combined":
            return Shape(kind, limits(), terms=1, heading=classes())
        if kind == "databank":
            has_heading, terms = federated()
            return Shape(kind, bounded(), terms=terms,
                         heading=classes() if has_heading else None)
        return Shape(kind, terms=statements(), max_doc_id=rng.randint(1, documents))

    shapes: list[Shape] = []
    while len(shapes) < count:
        shapes.extend(shape(kind) for kind, share in COLD_BLOCK for _ in range(share))
    return shapes[:count]


def cold_requests(seed: int, count: int, documents: int) -> list[Request]:
    """``count`` distinct requests in the cold mix.

    Distinct means distinct result-cache keys (context phrases, content
    terms, format, limit): an ``xslt=`` variant shares its key with the
    plain query, so both kinds draw from one key set.  The universe
    (heading x format x limit, terms x limit, heading x term x limit...)
    holds about 190k keys, so no request is answered from the result
    cache.  Kinds are placed in exact proportion per block of 50 and
    shuffled within it.
    """
    rng = random.Random(seed)
    headings = {
        "word": _cycler(rng, WORD_HEADINGS),
        "plain": _cycler(rng, [h for h in HEADINGS if h not in WORD_HEADINGS]),
    }
    words = _cycler(rng, WORDS)
    used: set[tuple] = set()

    def make(shape: Shape) -> Request:
        while True:
            heading = headings[shape.heading]() if shape.heading else None
            terms = tuple(sorted({words() for _ in range(shape.terms)}))
            if shape.kind == "sql":
                return _sql_request(shape, terms)
            key = (shape.kind == "databank", heading, terms, shape.format, shape.limit)
            if key in used:
                continue
            used.add(key)
            if shape.kind == "databank":
                return search_request("databank", heading, terms, None,
                                      shape.limit, databank=DATABANK)
            return search_request(shape.kind, heading, terms, shape.format,
                                  shape.limit, shape.stylesheet)

    shapes = cold_shapes(count, documents)
    block = sum(share for _, share in COLD_BLOCK)
    requests: list[Request] = []
    for start in range(0, count, block):
        chunk = shapes[start:start + block]
        rng.shuffle(chunk)
        requests.extend(make(shape) for shape in chunk)
    return requests


def _sql_request(shape: Shape, terms: tuple[str, ...]) -> Request:
    if not terms:
        text = (
            "SELECT format, COUNT(*) AS docs FROM doc "
            f"WHERE doc_id <= {shape.max_doc_id} GROUP BY format"
        )
        return Request("sql", text, max_doc_id=shape.max_doc_id)
    text = (
        "SELECT doc_id, nodedata FROM xml WHERE "
        f"CONTAINS(nodedata, '{terms[0]}') AND doc_id <= {shape.max_doc_id}"
    )
    return Request("sql", text, terms=terms, max_doc_id=shape.max_doc_id)


def _cycler(rng: random.Random, items):
    """Endless draws that visit every item once per seeded permutation.

    Balanced draws keep the mix of headings, terms, limits and formats
    even within a run.
    """
    pool: list = []

    def draw():
        if not pool:
            pool.extend(items)
            rng.shuffle(pool)
        return pool.pop()
    return draw


# -- search_hot and ingest_live: popular sets ------------------------------------


def popular_set(seed: int, shapes: dict[str, int], first: str | None = None) -> list[Request]:
    """A fixed set of distinct queries in seed-shuffled rank order.

    ``shapes`` gives how many ``context``, ``content``, ``combined`` and
    ``xslt`` queries the set holds, ``first`` the kind of the top-ranked
    one.  The set is built from a constant seed, so it is the same for
    every workload seed.
    """
    rng = random.Random(seed)
    headings = _cycler(rng, HEADINGS)
    words = _cycler(rng, WORDS)
    formats = _cycler(rng, (None, None) + FORMATS)
    limits = _cycler(rng, (None, 10, 25))
    stylesheets = _cycler(rng, tuple(STYLESHEETS))
    kinds = [kind for kind, number in shapes.items() for _ in range(number)]
    rng.shuffle(kinds)
    if first is not None:
        kinds.remove(first)
        kinds.insert(0, first)
    popular: list[Request] = []
    seen: set[str] = set()
    for kind in kinds:
        while True:
            heading = headings() if kind != "content" else None
            terms: tuple[str, ...] = ()
            if kind == "content":
                terms = tuple(sorted({words(), words()}))
            elif kind == "combined":
                terms = (words(),)
            request = search_request(
                kind, heading, terms,
                formats() if kind == "context" else None,
                20 if kind == "content" else limits(),
                stylesheets() if kind == "xslt" else None,
            )
            if request.target not in seen:
                seen.add(request.target)
                popular.append(request)
                break
    return popular


def hot_popular() -> list[Request]:
    """The 40 popular queries of ``search_hot``, most popular first.

    The top query (27% of requests) is a content search, whose hit costs
    about the middle of the set's range, so the median request falls
    inside its block rather than on the edge between two queries.
    """
    return popular_set(
        HOT_SET_SEED, {"context": 16, "content": 8, "combined": 6, "xslt": 10},
        first="content",
    )


def zipf_counts(ranks: int, count: int) -> list[int]:
    """``count`` requests apportioned to ranks in Zipf proportion.

    Largest-remainder rounding of ``count * w_k / sum(w)`` with
    ``w_k = k ** -ZIPF_S``: every seed sends each query equally often,
    so only the order of the requests depends on the seed.
    """
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, ranks + 1)]
    total = sum(weights)
    exact = [count * weight / total for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(ranks), key=lambda k: counts[k] - exact[k])
    for rank in by_remainder[: count - sum(counts)]:
        counts[rank] += 1
    return counts


def hot_requests(seed: int, count: int) -> list[Request]:
    popular = hot_popular()
    requests = [
        request
        for request, times in zip(popular, zipf_counts(len(popular), count))
        for _ in range(times)
    ]
    random.Random(seed).shuffle(requests)
    return requests


def live_popular() -> list[Request]:
    """The 35 queries read after writes in ``ingest_live``.

    Every query is read equally often, so an odd count per kind (and
    overall) puts each median inside one query's block of reads.
    """
    return popular_set(
        LIVE_SET_SEED, {"context": 17, "content": 7, "combined": 7, "xslt": 4}
    )


# -- ingest_live --------------------------------------------------------------------


def live_stream(seed: int, writes: int, base_names: list[str]) -> LiveStream:
    """``writes`` drops (new documents and same-format replacements).

    Three writes in every five add a document and two replace one; a
    replacement reuses the file name of a stored document whose
    extension matches the new content's format, so the converter sniff
    accepts it.  Each write is followed by ``READS_PER_WRITE`` reads
    that walk seeded permutations of :func:`live_popular`: no query is
    read twice between two writes, so every read is the first after a
    commit and misses the result cache.
    """
    rng = random.Random(seed)
    fresh = generate_corpus(CorpusSpec(documents=writes, seed=10_000 + seed))
    by_extension: dict[str, list[str]] = {}
    for name in base_names:
        by_extension.setdefault(name.rsplit(".", 1)[1], []).append(name)
    reads = _cycler(rng, live_popular())
    new_or_replace = _cycler(rng, (True,) * 3 + (False,) * 2)
    stream = LiveStream(writes=[])
    for index, generated in enumerate(fresh):
        extension = generated.name.rsplit(".", 1)[1]
        is_new = new_or_replace()
        if is_new:
            name = f"live-{index:05d}.{extension}"
            by_extension.setdefault(extension, []).append(name)
        else:
            name = rng.choice(by_extension[extension])
        stream.writes.append(
            Write(name, generated.text, not is_new, generated.headings)
        )
        batch: list[Request] = []
        while len(batch) < READS_PER_WRITE:
            request = reads()
            if request not in batch:
                batch.append(request)
        stream.reads.append(batch)
    return stream
