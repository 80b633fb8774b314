"""Minimal SVG line plots (polylines plus axes), built with the stdlib XML tree.

Deliberately spartan: anything fancier than a quick look at the curves should
be produced by external tools reading the CSV files.

Point text is "%.6g" of the screen coordinates.  It is a function of the bits
of a coordinate, so each run of equal coordinates is formatted once, and the
x text once for consecutive curves with bitwise equal finite x (the profile
and probe figures share theirs); the document is the same byte for byte.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _texts(v: np.ndarray) -> list[str]:
    """_fmt of every value of v, formatted once per run of equal bit patterns."""
    bits = v.view(np.int64)
    new = np.ones(v.size, dtype=bool)
    new[1:] = bits[1:] != bits[:-1]
    heads = np.flatnonzero(new)
    text = np.array(list(map(_fmt, v[heads].tolist())), dtype=object)
    return np.repeat(text, np.diff(np.r_[heads, v.size])).tolist()


def line_plot(curves, title: str = "", xlabel: str = "", ylabel: str = "",
              width: int = 720, height: int = 480) -> str:
    """Render labelled (xs, ys) curves into a standalone SVG document string.

    curves: iterable of (label, xs, ys).  Non-finite points break the polyline.
    """
    curves = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float)) for lbl, xs, ys in curves]
    margin_l, margin_r, margin_t, margin_b = 64, 16, 28, 44
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

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

    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                      width=str(width), height=str(height),
                      viewBox=f"0 0 {width} {height}")
    ET.SubElement(root, "rect", x="0", y="0", width=str(width), height=str(height),
                  fill="white")
    if title:
        t = ET.SubElement(root, "text", x=str(width // 2), y="18",
                          fill="black")
        t.set("text-anchor", "middle")
        t.set("font-size", "14")
        t.text = title

    # axes box and ticks
    ET.SubElement(root, "rect", x=str(margin_l), y=str(margin_t),
                  width=str(plot_w), height=str(plot_h),
                  fill="none", stroke="black")
    n_ticks = 5
    for i in range(n_ticks):
        fx = x_lo + i * (x_hi - x_lo) / (n_ticks - 1)
        px = sx(fx)
        ET.SubElement(root, "line", x1=_fmt(px), y1=_fmt(margin_t + plot_h),
                      x2=_fmt(px), y2=_fmt(margin_t + plot_h + 4), stroke="black")
        lab = ET.SubElement(root, "text", x=_fmt(px), y=_fmt(margin_t + plot_h + 16),
                            fill="black")
        lab.set("text-anchor", "middle")
        lab.set("font-size", "10")
        lab.text = _fmt(fx)
        fy = y_lo + i * (y_hi - y_lo) / (n_ticks - 1)
        py = sy(fy)
        ET.SubElement(root, "line", x1=_fmt(margin_l - 4), y1=_fmt(py),
                      x2=_fmt(margin_l), y2=_fmt(py), stroke="black")
        lab = ET.SubElement(root, "text", x=_fmt(margin_l - 6), y=_fmt(py + 3),
                            fill="black")
        lab.set("text-anchor", "end")
        lab.set("font-size", "10")
        lab.text = _fmt(fy)
    if xlabel:
        e = ET.SubElement(root, "text", x=str(margin_l + plot_w // 2),
                          y=str(height - 8), fill="black")
        e.set("text-anchor", "middle")
        e.set("font-size", "12")
        e.text = xlabel
    if ylabel:
        e = ET.SubElement(root, "text", x="14", y=str(margin_t + plot_h // 2), fill="black")
        e.set("text-anchor", "middle")
        e.set("font-size", "12")
        e.set("transform", f"rotate(-90 14 {margin_t + plot_h // 2})")
        e.text = ylabel

    prev_x, x_text = np.empty(0), []
    for idx, (label, xs, ys) in enumerate(curves):
        color = _COLORS[idx % len(_COLORS)]
        ok = np.isfinite(xs) & np.isfinite(ys)
        px = sx(xs[ok])
        if not np.array_equal(px.view(np.int64), prev_x.view(np.int64)):
            prev_x, x_text = px, _texts(px)
        pts = list(map("{},{}".format, x_text, _texts(sy(ys[ok]))))
        # a non-finite point ends a polyline: cut where the finite indices jump
        jumps = np.flatnonzero(np.diff(np.flatnonzero(ok)) > 1) + 1
        cuts = [0, *jumps.tolist(), len(pts)]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo >= 2:
                ET.SubElement(root, "polyline", points=" ".join(pts[lo:hi]),
                              fill="none", stroke=color)
        leg = ET.SubElement(root, "text", x=str(margin_l + 8),
                            y=str(margin_t + 14 + 13 * idx), fill=color)
        leg.set("font-size", "11")
        leg.text = label

    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
