"""Minimal SVG line plots (polylines plus axes), written as text.

Deliberately spartan: anything fancier than a quick look at the curves should
be produced by external tools reading the CSV files.

Each element is written as the stdlib ElementTree would serialise it, without
holding a tree: attributes in order, text escaped for & < > only, and an
element without text closed as <tag ... />.  Attribute values are numbers or
fixed strings made here, so they need no escaping.

Point text is "%.6g" of the screen coordinates.  It is a function of the bits
of a coordinate, so each run of equal coordinates is formatted once, and the
x text once for consecutive curves with bitwise equal finite x (the profile
and probe figures share theirs); the document is the same byte for byte.  The
texts are byte cells, "x," and "y " a row per point, and a polyline's points
are its rows' bytes without the NUL padding and the last space.
"""

from __future__ import annotations

import numpy as np

from . import g17

WIDTH, HEIGHT = 720, 480
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _cells(v: np.ndarray, sep: bytes) -> np.ndarray:
    """Cells of "%.6g" % x + sep (the text of _fmt) for every x of v, laid out
    by g17.text_cells; each run of equal bit patterns is formatted once."""
    bits = v.view(np.int64)
    new = np.ones(v.size, dtype=bool)
    new[1:] = bits[1:] != bits[:-1]
    text = g17.text_cells(list(map((b"%.6g" + sep).__mod__, v[new].tolist())))
    return text[np.cumsum(new) - 1]


def _el(tag: str, text: str = "", **attrs) -> str:
    """One element without children; `_` in an attribute name is written as `-`."""
    head = "<" + tag + "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    if not text:
        return head + " />"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"{head}>{text}</{tag}>"


def line_plot(curves, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render labelled (xs, ys) curves into a standalone SVG document string.

    curves: iterable of (label, xs, ys).  Non-finite points break the polyline.
    """
    curves = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float)) for lbl, xs, ys in curves]
    margin_l, margin_r, margin_t, margin_b = 64, 16, 28, 44
    plot_w = WIDTH - margin_l - margin_r
    plot_h = HEIGHT - margin_t - margin_b

    finite_x = np.concatenate([xs[np.isfinite(xs) & np.isfinite(ys)] for _, xs, ys in curves]) \
        if curves else np.array([0.0, 1.0])
    finite_y = np.concatenate([ys[np.isfinite(xs) & np.isfinite(ys)] for _, xs, ys in curves]) \
        if curves else np.array([0.0, 1.0])
    if finite_x.size == 0:
        finite_x = np.array([0.0, 1.0])
        finite_y = np.array([0.0, 1.0])
    x_lo, x_hi = float(np.min(finite_x)), float(np.max(finite_x))
    y_lo, y_hi = float(np.min(finite_y)), float(np.max(finite_y))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    # screen coordinates, of a float or elementwise of an array
    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = ['<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           _el("rect", x=0, y=0, width=WIDTH, height=HEIGHT, fill="white")]
    if title:
        out.append(_el("text", title, x=WIDTH // 2, y=18, fill="black",
                       text_anchor="middle", font_size=14))

    # axes box and ticks
    out.append(_el("rect", x=margin_l, y=margin_t, width=plot_w, height=plot_h,
                   fill="none", stroke="black"))
    n_ticks = 5
    for i in range(n_ticks):
        fx = x_lo + i * (x_hi - x_lo) / (n_ticks - 1)
        px = _fmt(sx(fx))
        out.append(_el("line", x1=px, y1=_fmt(margin_t + plot_h),
                       x2=px, y2=_fmt(margin_t + plot_h + 4), stroke="black"))
        out.append(_el("text", _fmt(fx), x=px, y=_fmt(margin_t + plot_h + 16),
                       fill="black", text_anchor="middle", font_size=10))
        fy = y_lo + i * (y_hi - y_lo) / (n_ticks - 1)
        py = sy(fy)
        out.append(_el("line", x1=_fmt(margin_l - 4), y1=_fmt(py),
                       x2=_fmt(margin_l), y2=_fmt(py), stroke="black"))
        out.append(_el("text", _fmt(fy), x=_fmt(margin_l - 6), y=_fmt(py + 3),
                       fill="black", text_anchor="end", font_size=10))
    if xlabel:
        out.append(_el("text", xlabel, x=margin_l + plot_w // 2, y=HEIGHT - 8,
                       fill="black", text_anchor="middle", font_size=12))
    if ylabel:
        mid = margin_t + plot_h // 2
        out.append(_el("text", ylabel, x=14, y=mid, fill="black", text_anchor="middle",
                       font_size=12, transform=f"rotate(-90 14 {mid})"))

    prev_x, x_cells = np.empty(0), np.empty((0, 0), dtype=np.uint8)
    for idx, (label, xs, ys) in enumerate(curves):
        color = _COLORS[idx % len(_COLORS)]
        ok = np.isfinite(xs) & np.isfinite(ys)
        px = sx(xs[ok])
        if not np.array_equal(px.view(np.int64), prev_x.view(np.int64)):
            prev_x, x_cells = px, _cells(px, b",")
        pts = np.concatenate([x_cells, _cells(sy(ys[ok]), b" ")], axis=1)   # "x,y " a row
        # a non-finite point ends a polyline: cut where the finite indices jump
        jumps = np.flatnonzero(np.diff(np.flatnonzero(ok)) > 1) + 1
        cuts = [0, *jumps.tolist(), len(pts)]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo >= 2:
                points = pts[lo:hi].tobytes().translate(None, b"\0")[:-1].decode()
                out.append(_el("polyline", points=points, fill="none", stroke=color))
        out.append(_el("text", label, x=margin_l + 8, y=margin_t + 14 + 13 * idx, fill=color,
                       font_size=11))
    out.append("</svg>\n")
    return "".join(out)
