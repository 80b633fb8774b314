"""SVG writer: escaping, the bytes of a small document, and the polyline points."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _points_oracle(curves) -> list[str]:
    """The points of every polyline of line_plot(curves): per curve, each run of
    at least two consecutive finite points, one f"{x:.6g},{y:.6g}" pair each of
    the screen coordinates (the 720 x 480 frame with margins 64, 16, 28, 44)."""
    curves = [(np.asarray(xs, float), np.asarray(ys, float)) for _, xs, ys in curves]
    fx = np.concatenate([xs[np.isfinite(xs) & np.isfinite(ys)] for xs, ys in curves])
    fy = np.concatenate([ys[np.isfinite(xs) & np.isfinite(ys)] for xs, ys in curves])
    x_lo, x_hi = float(fx.min()), float(fx.max())
    y_lo, y_hi = float(fy.min()), float(fy.max())
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    expected = []
    for xs, ys in curves:
        segment = []
        for x, y in [*zip(xs.tolist(), ys.tolist()), (np.nan, np.nan)]:
            if np.isfinite(x) and np.isfinite(y):
                px = 64 + (x - x_lo) / (x_hi - x_lo) * 640
                py = 28 + (y_hi - y) / (y_hi - y_lo) * 408
                segment.append(f"{px:.6g},{py:.6g}")
                continue
            if len(segment) >= 2:
                expected.append(" ".join(segment))
            segment = []
    return expected


def _points(doc: str) -> list[str]:
    root = ET.fromstring(doc.split("\n", 1)[1])
    return [pl.get("points") for pl in root.iter(f"{NS}polyline")]


def test_points_match_pair_oracle():
    # runs of equal y, nan and inf mid-curve (one leaves a single-point
    # segment, which draws nothing), a first curve with no finite point, and
    # x shared by consecutive curves, also across a curve that cuts it
    xs = np.linspace(-3.0, 2.0, 50)
    steps = np.repeat([0.5, 0.5, 2.0, -1.0, 0.0], 10)
    cut = steps.copy()
    cut[[4, 6, 20, 21]] = [np.nan, np.inf, -np.inf, np.nan]
    curves = [("none", xs, np.full(50, np.nan)), ("steps", xs, steps), ("twice", xs, 2.0 * steps),
              ("cut", xs, cut), ("x cut", np.where(np.arange(50) == 30, np.nan, xs), steps),
              ("own x", xs[::-1].copy(), np.sin(xs)), ("flat", xs, np.zeros(50)),
              ("pair", [0.0, 1.0], [3.0, 3.0])]
    got = _points(svg.line_plot(curves))
    assert got == _points_oracle(curves)
    assert len(got) == 10


def test_first_curves_without_finite_points():
    curves = [("a", [0.0, 1.0], [np.nan, np.inf]), ("b", [], []),
              ("c", [0.0, 1.0, 2.0], [1.0, 1.0, 2.0])]
    got = _points(svg.line_plot(curves))
    assert got == _points_oracle(curves) == [_points_oracle(curves[2:])[0]]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.lists(st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.25, 1e-9, 3e5,
                                                    np.nan, np.inf, -np.inf]),
                                   min_size=0, max_size=30)),
                min_size=1, max_size=5))
def test_random_curves_match_pair_oracle(specs):
    # values from a small pool, so runs of equal y are common; a curve shares
    # the x of the curve before it when its flag is set and the lengths agree
    curves, prev = [], np.empty(0)
    for idx, (share, ys) in enumerate(specs):
        xs = prev if share and len(prev) == len(ys) else np.arange(len(ys)) * (0.5 + idx)
        curves.append((f"c{idx}", xs, np.array(ys, dtype=float)))
        prev = xs
    finite = [np.isfinite(ys) for _, _, ys in curves]
    fy = np.concatenate([ys[k] for (_, _, ys), k in zip(curves, finite)])
    fx = np.concatenate([xs[k] for (_, xs, _), k in zip(curves, finite)])
    if fx.size == 0 or fx.min() == fx.max() or fy.min() == fy.max():
        return      # the oracle does not widen a degenerate range as line_plot does
    assert _points(svg.line_plot(curves)) == _points_oracle(curves)
