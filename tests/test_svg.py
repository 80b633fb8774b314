"""SVG writer: escaping and the bytes of a small document."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gflab import svg

NS = "{http://www.w3.org/2000/svg}"

# svg.line_plot(*SMALL) as the stdlib ElementTree serialiser writes it
SMALL = ([("a & b", [0.0, 1.0, 2.0], [0.0, 1.0, 0.5]), ("", [0.0, 2.0], [1.0, 0.0])],
         "T <1>", "x", "y")
SMALL_DOC = "".join((
    '<?xml version="1.0" encoding="UTF-8"?>\n',
    '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="480" viewBox="0 0 720 480">',
    '<rect x="0" y="0" width="720" height="480" fill="white" />',
    '<text x="360" y="18" fill="black" text-anchor="middle" font-size="14">T &lt;1&gt;</text>',
    '<rect x="64" y="28" width="640" height="408" fill="none" stroke="black" />',
    '<line x1="64" y1="436" x2="64" y2="440" stroke="black" />',
    '<text x="64" y="452" fill="black" text-anchor="middle" font-size="10">0</text>',
    '<line x1="60" y1="436" x2="64" y2="436" stroke="black" />',
    '<text x="58" y="439" fill="black" text-anchor="end" font-size="10">-0.05</text>',
    '<line x1="224" y1="436" x2="224" y2="440" stroke="black" />',
    '<text x="224" y="452" fill="black" text-anchor="middle" font-size="10">0.5</text>',
    '<line x1="60" y1="334" x2="64" y2="334" stroke="black" />',
    '<text x="58" y="337" fill="black" text-anchor="end" font-size="10">0.225</text>',
    '<line x1="384" y1="436" x2="384" y2="440" stroke="black" />',
    '<text x="384" y="452" fill="black" text-anchor="middle" font-size="10">1</text>',
    '<line x1="60" y1="232" x2="64" y2="232" stroke="black" />',
    '<text x="58" y="235" fill="black" text-anchor="end" font-size="10">0.5</text>',
    '<line x1="544" y1="436" x2="544" y2="440" stroke="black" />',
    '<text x="544" y="452" fill="black" text-anchor="middle" font-size="10">1.5</text>',
    '<line x1="60" y1="130" x2="64" y2="130" stroke="black" />',
    '<text x="58" y="133" fill="black" text-anchor="end" font-size="10">0.775</text>',
    '<line x1="704" y1="436" x2="704" y2="440" stroke="black" />',
    '<text x="704" y="452" fill="black" text-anchor="middle" font-size="10">2</text>',
    '<line x1="60" y1="28" x2="64" y2="28" stroke="black" />',
    '<text x="58" y="31" fill="black" text-anchor="end" font-size="10">1.05</text>',
    '<text x="384" y="472" fill="black" text-anchor="middle" font-size="12">x</text>',
    '<text x="14" y="232" fill="black" text-anchor="middle" font-size="12" '
    'transform="rotate(-90 14 232)">y</text>',
    '<polyline points="64,417.455 384,46.5455 704,232" fill="none" stroke="#1f77b4" />',
    '<text x="72" y="42" fill="#1f77b4" font-size="11">a &amp; b</text>',
    '<polyline points="64,46.5455 704,417.455" fill="none" stroke="#d62728" />',
    '<text x="72" y="55" fill="#d62728" font-size="11" />',
    '</svg>\n',
))


def _element_texts(doc: str) -> list[str]:
    """The text of every <text> element, in document order, parsed as XML."""
    root = ET.fromstring(doc.split("\n", 1)[1])
    return [el.text or "" for el in root.iter(f"{NS}text")]


def test_small_document_matches_elementtree_bytes():
    assert svg.line_plot(*SMALL) == SMALL_DOC


@pytest.mark.parametrize("text", [
    "a & b", "<tag>", "x > y < z", '"double"', "'single'", "tab\there", "two\nlines",
    "&amp; already", "]]>", "mixed & <\"'\t\n>", "",
])
def test_labels_come_back_unchanged(text):
    xs = np.linspace(0.0, 1.0, 5)
    curves = [(text, xs, xs ** 2), ("plain", xs, xs)]
    doc = svg.line_plot(curves, title=text, xlabel=text, ylabel=text)
    got = _element_texts(doc)
    labels = [text, "plain"]
    if text:
        # title first, then 10 tick labels, the axis labels and the curve labels
        assert got[0] == text
        assert got[11:] == [text, text, *labels]
    else:
        assert got[10:] == labels  # empty title and axis labels are left out


def test_empty_curve_label_is_a_self_closed_element():
    doc = svg.line_plot([("", [0.0, 1.0], [0.0, 1.0])])
    assert doc.endswith('<text x="72" y="42" fill="#1f77b4" font-size="11" /></svg>\n')
    assert _element_texts(doc)[-1] == ""
