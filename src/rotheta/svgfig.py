"""Minimal deterministic SVG writer for phase portraits and wave profiles.

No plotting dependency: a fixed-viewBox canvas with polylines, circles,
markers, dashed lines, and text.  All coordinates are emitted with a fixed
format so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

# glyph per equilibrium kind (stroke-only shapes read better over curves)
_GLYPHS = {
    "Saddle": "cross",
    "Center": "circle",
    "Node": "dot",
    "Cusp": "diamond",
    "Degenerate": "diamond",
}

_FMT = "{:.3f}"


def _n(v: float) -> str:
    out = _FMT.format(float(v))
    return "0.000" if out == "-0.000" else out


class SvgFigure:
    """World-coordinate drawing surface mapped onto a fixed 720x540 viewBox."""

    size = (720, 540)   # viewBox width and height
    margin = 48.0       # frame inset on every side

    def __init__(self, xlim, ylim, *, title=""):
        self.xlim = (float(xlim[0]), float(xlim[1]))
        self.ylim = (float(ylim[0]), float(ylim[1]))
        if not (self.xlim[1] > self.xlim[0] and self.ylim[1] > self.ylim[0]):
            raise ValueError("degenerate axis limits")
        self.elements: list[str] = []
        self._frame(title)

    # --- world -> view ----------------------------------------------------
    def _tx(self, x: float) -> float:
        w = self.size[0] - 2 * self.margin
        return self.margin + (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0]) * w

    def _ty(self, y: float) -> float:
        h = self.size[1] - 2 * self.margin
        return self.size[1] - self.margin - (y - self.ylim[0]) / (self.ylim[1] - self.ylim[0]) * h

    # --- primitives -------------------------------------------------------
    def _frame(self, title: str):
        W, H, m = self.size[0], self.size[1], self.margin
        self.elements.append(
            f'<rect x="{_n(m)}" y="{_n(m)}" width="{_n(W - 2 * m)}" '
            f'height="{_n(H - 2 * m)}" fill="none" stroke="#444444" stroke-width="1"/>')
        if title:
            self.elements.append(
                f'<text x="{_n(W / 2)}" y="{_n(m - 14)}" font-size="13" '
                f'text-anchor="middle" fill="#222222">{_escape(title)}</text>')
        if self.xlim[0] < 0.0 < self.xlim[1]:
            x0 = self._tx(0.0)
            self.elements.append(
                f'<line x1="{_n(x0)}" y1="{_n(m)}" x2="{_n(x0)}" y2="{_n(H - m)}" '
                f'stroke="#cccccc" stroke-width="0.8"/>')
        if self.ylim[0] < 0.0 < self.ylim[1]:
            y0 = self._ty(0.0)
            self.elements.append(
                f'<line x1="{_n(m)}" y1="{_n(y0)}" x2="{_n(W - m)}" y2="{_n(y0)}" '
                f'stroke="#cccccc" stroke-width="0.8"/>')
        self._corner_labels()

    def _corner_labels(self):
        W, H, m = self.size[0], self.size[1], self.margin
        labels = [
            (m, H - m + 16, f"{self.xlim[0]:.6g}", "middle"),
            (W - m, H - m + 16, f"{self.xlim[1]:.6g}", "middle"),
            (m - 6, H - m, f"{self.ylim[0]:.6g}", "end"),
            (m - 6, m + 4, f"{self.ylim[1]:.6g}", "end"),
        ]
        for x, y, s, anchor in labels:
            self.elements.append(
                f'<text x="{_n(x)}" y="{_n(y)}" font-size="10" '
                f'text-anchor="{anchor}" fill="#555555">{s}</text>')

    def polyline(self, xs, ys, *, color="#2a6fb0", width=1.2):
        # the curve is mapped as arrays, in `_tx`'s and `_ty`'s order of
        # operations, which gives every point the floats they give it; numpy
        # overflows without a word, as Python floats do
        with np.errstate(all="ignore"):
            vx = self._tx(np.asarray(xs, dtype=float)).tolist()
            vy = self._ty(np.asarray(ys, dtype=float)).tolist()
        pts = " ".join(f"{_n(x)},{_n(y)}" for x, y in zip(vx, vy))
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_n(width)}"/>')

    def vline(self, x):
        """The singular line: a dashed red vertical line clipped to the frame."""
        if not (self.xlim[0] <= x <= self.xlim[1]):
            return
        xv = self._tx(float(x))
        self.elements.append(
            f'<line x1="{_n(xv)}" y1="{_n(self.margin)}" x2="{_n(xv)}" '
            f'y2="{_n(self.size[1] - self.margin)}" stroke="#b03030" '
            f'stroke-width="1.400" stroke-dasharray="6,4"/>')

    def marker(self, x, y, kind):
        """Equilibrium glyph of radius 5: Saddle = diagonal cross, Center =
        open circle, Node = filled dot, Cusp/Degenerate = open diamond."""
        cx, cy, r = self._tx(float(x)), self._ty(float(y)), 5.0
        color = "#111111"
        shape = _GLYPHS.get(kind, "diamond")
        if shape == "cross":
            self.elements.append(
                f'<path d="M {_n(cx - r)} {_n(cy - r)} L {_n(cx + r)} {_n(cy + r)} '
                f'M {_n(cx - r)} {_n(cy + r)} L {_n(cx + r)} {_n(cy - r)}" '
                f'stroke="{color}" stroke-width="1.6" fill="none"/>')
        elif shape == "circle":
            self.elements.append(
                f'<circle cx="{_n(cx)}" cy="{_n(cy)}" r="{_n(r)}" fill="none" '
                f'stroke="{color}" stroke-width="1.6"/>')
        elif shape == "dot":
            self.elements.append(
                f'<circle cx="{_n(cx)}" cy="{_n(cy)}" r="{_n(0.8 * r)}" '
                f'fill="{color}" stroke="none"/>')
        else:
            self.elements.append(
                f'<path d="M {_n(cx)} {_n(cy - r)} L {_n(cx + r)} {_n(cy)} '
                f'L {_n(cx)} {_n(cy + r)} L {_n(cx - r)} {_n(cy)} Z" '
                f'stroke="{color}" stroke-width="1.6" fill="none"/>')

    # --- output -----------------------------------------------------------
    def render(self) -> str:
        W, H = self.size
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="0 0 {W} {H}" width="{W}" height="{H}" '
                f'font-family="Helvetica, Arial, sans-serif">')
        return "\n".join([head, *self.elements, "</svg>"]) + "\n"


def _escape(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def resample(xs, ys):
    """Arc-length resampling of a polyline to 400 points (keeps files small
    and byte-stable regardless of how the curve was sampled)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = 400
    if len(xs) <= 2 or n >= len(xs):
        return xs, ys
    d = np.hypot(np.diff(xs), np.diff(ys))
    t = np.concatenate([[0.0], np.cumsum(d)])
    if t[-1] <= 0.0:
        return xs[:1], ys[:1]
    u = np.linspace(0.0, t[-1], n)
    return np.interp(u, t, xs), np.interp(u, t, ys)
