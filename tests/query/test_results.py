"""Result model: ordering helpers, XML rendering, limits."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.results import ResultSet, SectionMatch
from repro.sgml.dom import Element
from repro.sgml.serializer import serialize


def match(doc_id=1, file_name="a.md", context="H", content="body",
          section=None, source="local"):
    return SectionMatch(
        doc_id=doc_id,
        file_name=file_name,
        context=context,
        content=content,
        section=section,
        source=source,
    )


class TestResultSet:
    def test_len_bool_iter(self):
        results = ResultSet("q")
        assert not results and len(results) == 0
        results.add(match())
        assert results and len(results) == 1
        assert list(results)[0].context == "H"

    def test_documents_distinct_in_order(self):
        results = ResultSet("q")
        results.extend([match(file_name="b"), match(file_name="a"),
                        match(file_name="b")])
        assert results.documents() == ["b", "a"]

    def test_limited(self):
        results = ResultSet("q")
        results.extend([match(context=str(i)) for i in range(5)])
        assert len(results.limited(3)) == 3
        assert len(results.limited(None)) == 5
        assert len(results.limited(10)) == 5

    def test_brief_truncates(self):
        m = match(content="x" * 100)
        line = m.brief(width=20)
        assert "..." in line and len(line) < 100


class TestToXml:
    def test_shape(self):
        results = ResultSet("Context=Budget")
        results.add(match())
        document = results.to_xml()
        assert document.root.tag == "results"
        assert document.root.get("query") == "Context=Budget"
        [result] = document.find_all("result")
        assert result.get("doc") == "a.md"
        assert result.find("context").text_content() == "H"
        assert result.find("content").text_content() == "body"

    def test_section_children_cloned(self):
        section = Element("section")
        context = section.make_child("context")
        context.append_text("H")
        content = section.make_child("content")
        content.append_text("rich ")
        content.make_child("b").append_text("bold")
        results = ResultSet("q")
        results.add(match(section=section))
        first = serialize(results.to_xml())
        second = serialize(results.to_xml())
        assert first == second  # rendering twice must be stable
        assert "<b>bold</b>" in first
        # context child from section is not duplicated
        assert first.count("<context>") == 1

    def test_sources_attributed(self):
        results = ResultSet("q")
        results.add(match(source="llis"))
        xml = serialize(results.to_xml())
        assert 'source="llis"' in xml


# -- render == serialize(to_xml()) --------------------------------------------

_text = st.text(alphabet='ab &<>"\' \n\t', max_size=12)


@st.composite
def _sections(draw):
    """A reconstructed ``<section>``: heading, then content nodes that may
    hold INTENSE spans, nested elements and whitespace-only text."""
    section = Element("section")
    section.make_child("context").append_text(draw(_text))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["content", "blank", "intense", "empty"]))
        if kind == "blank":
            section.append_text(draw(st.sampled_from([" ", "\n  ", "\t"])))
            continue
        child = section.make_child("content" if kind != "empty" else "p")
        if kind == "content":
            child.append_text(draw(_text))
        elif kind == "intense":
            child.append_text(draw(_text))
            child.make_child("intense").append_text(draw(_text))
            child.append_text(draw(st.sampled_from(["", " ", "tail"])))
    return section


@st.composite
def _result_sets(draw):
    results = ResultSet(draw(_text))
    for index in range(draw(st.integers(0, 4))):
        results.add(SectionMatch(
            doc_id=index,
            file_name=draw(_text),
            context=draw(_text),
            content=draw(_text),
            section=draw(st.none() | _sections()),
            source=draw(st.sampled_from(["local", 'r&"<s>'])),
        ))
    results.partial = draw(st.booleans())
    results.deadline_expired = draw(st.booleans())
    if results.partial or results.deadline_expired:
        results.source_errors = draw(
            st.dictionaries(_text, _text, max_size=2)
        )
    return results


def _trace() -> Element:
    trace = Element("trace")
    trace.make_child("span", name="request", start="0", ticks="4")
    return trace


class TestRender:
    @settings(max_examples=200, deadline=None)
    @given(
        results=_result_sets(),
        cached=st.booleans(),
        degraded=st.booleans(),
        traced=st.booleans(),
    )
    def test_render_equals_serialized_tree(
        self, results, cached, degraded, traced
    ):
        stamps = {}
        if cached:
            stamps["cached"] = "true"
        if degraded:
            stamps["degraded"] = "brownout"
        trailer = [_trace()] if traced else []
        document = results.to_xml()
        document.root.attributes.update(stamps)
        for element in trailer:
            document.root.append(element.clone())
        expected = serialize(document, indent=2)
        assert results.render(stamps, trailer) == expected
        assert results.render(stamps, trailer) == expected  # replayed

    def test_empty_answer_self_closes(self):
        assert ResultSet('a&"b').render() == '<results query="a&amp;&quot;b"/>\n'
