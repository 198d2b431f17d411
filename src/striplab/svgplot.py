"""Minimal hand-emitted SVG line/scatter plots (no plotting dependency)."""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN = 60
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * span:
        out.append(round(v, 10))
        v += step
    return out


class Figure:
    def __init__(self, title, xlabel, ylabel):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []     # (kind, xs, ys, label, color), float arrays

    def _add(self, kind, xs, ys, label, color):
        self.series.append((kind, np.asarray(xs, dtype=float),
                            np.asarray(ys, dtype=float), label, color))

    def line(self, xs, ys, label=None, color=None):
        self._add("line", xs, ys, label, color)

    def scatter(self, xs, ys, label=None, color=None):
        self._add("scatter", xs, ys, label, color)

    def hline(self, y, label=None, color="#888888"):
        self._add("hline", [], [y], label, color)

    def _bounds(self):
        xs = np.concatenate([sx for _, sx, _, _, _ in self.series] or [[]])
        ys = np.concatenate([sy for _, _, sy, _, _ in self.series] or [[]])
        if not len(xs):
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x0 == x1:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y0 == y1:
            y0, y1 = y0 - 0.5, y1 + 0.5
        padx, pady = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
        return x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def render(self):
        x0, x1, y0, y1 = self._bounds()
        iw, ih = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN

        # a number or a whole array: the same operations in the same order
        def px(x):
            return MARGIN + (x - x0) / (x1 - x0) * iw

        def py(y):
            return HEIGHT - MARGIN - (y - y0) / (y1 - y0) * ih

        parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
                 'height="%d" font-family="sans-serif" font-size="12">'
                 % (WIDTH, HEIGHT),
                 '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
                 '<text x="%d" y="24" text-anchor="middle" font-size="15">%s'
                 '</text>' % (WIDTH // 2, self.title)]
        # axes
        parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                     'stroke="black"/>' % (MARGIN, MARGIN, iw, ih))
        for tx in _ticks(x0, x1):
            parts.append('<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" '
                         'stroke="black"/>' % (px(tx), HEIGHT - MARGIN,
                                               px(tx), HEIGHT - MARGIN + 5))
            parts.append('<text x="%.1f" y="%d" text-anchor="middle">%g</text>'
                         % (px(tx), HEIGHT - MARGIN + 20, tx))
        for ty in _ticks(y0, y1):
            parts.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                         'stroke="black"/>' % (MARGIN - 5, py(ty),
                                               MARGIN, py(ty)))
            parts.append('<text x="%d" y="%.1f" text-anchor="end" '
                         'dy="4">%g</text>' % (MARGIN - 8, py(ty), ty))
        parts.append('<text x="%d" y="%d" text-anchor="middle">%s</text>'
                     % (WIDTH // 2, HEIGHT - 12, self.xlabel))
        parts.append('<text x="16" y="%d" text-anchor="middle" transform='
                     '"rotate(-90 16 %d)">%s</text>'
                     % (HEIGHT // 2, HEIGHT // 2, self.ylabel))

        if not self.series:
            parts.append('<text x="%d" y="%d" text-anchor="middle" '
                         'fill="#888">no data</text>'
                         % (WIDTH // 2, HEIGHT // 2))
        legend_y = MARGIN + 14
        for i, (kind, xs, ys, label, color) in enumerate(self.series):
            color = color or PALETTE[i % len(PALETTE)]
            if kind == "hline":
                parts.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                             'stroke="%s" stroke-dasharray="6 3"/>'
                             % (MARGIN, py(ys[0]), WIDTH - MARGIN,
                                py(ys[0]), color))
            elif kind == "scatter":
                circle = ('<circle cx="%%.1f" cy="%%.1f" r="2.2" fill="%s"/>'
                          % color)
                parts.extend(map(circle.__mod__,
                                 zip(px(xs).tolist(), py(ys).tolist())))
            else:
                pts = " ".join(map("%.1f,%.1f".__mod__,
                                   zip(px(xs).tolist(), py(ys).tolist())))
                parts.append('<polyline points="%s" fill="none" '
                             'stroke="%s" stroke-width="1.5"/>' % (pts, color))
            if label:
                parts.append('<rect x="%d" y="%d" width="12" height="12" '
                             'fill="%s"/>' % (WIDTH - MARGIN - 120,
                                              legend_y - 10, color))
                parts.append('<text x="%d" y="%d">%s</text>'
                             % (WIDTH - MARGIN - 102, legend_y, label))
                legend_y += 18
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
