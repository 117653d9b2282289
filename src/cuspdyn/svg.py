"""Deterministic SVG pictures of Ford domains, precells and cells.

Geodesics are drawn as circular-arc path elements, vertical sides as
lines clipped at a fixed height.  Coordinates are written with a
fixed 6-decimal precision so identical inputs give byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction

from .tessellation import FordDomain

__all__ = ["render_domain_svg"]

_SCALE = 1000.0
# the drawn window: x in [_X_MIN, _X_MAX], heights up to _Y_CLIP
_X_MIN, _X_MAX, _Y_CLIP = -0.2, 1.2, 1.2


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def sx(self, x: float) -> float:
        return (x - _X_MIN) * _SCALE

    def sy(self, y: float) -> float:
        return (_Y_CLIP - y) * _SCALE

    def line(self, x1, y1, x2, y2, cls):
        self.parts.append(
            f'<line class="{cls}" x1="{_fmt(self.sx(x1))}" y1="{_fmt(self.sy(y1))}" '
            f'x2="{_fmt(self.sx(x2))}" y2="{_fmt(self.sy(y2))}"/>'
        )

    def semicircle(self, center: float, radius: float, cls):
        x1, x2 = center - radius, center + radius
        r = radius * _SCALE
        self.parts.append(
            f'<path class="{cls}" d="M {_fmt(self.sx(x1))} {_fmt(self.sy(0.0))} '
            f'A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(self.sx(x2))} {_fmt(self.sy(0.0))}"/>'
        )

    def dot(self, x: float, y: float, cls):
        self.parts.append(
            f'<circle class="{cls}" cx="{_fmt(self.sx(x))}" cy="{_fmt(self.sy(y))}" r="4"/>'
        )


def render_domain_svg(dom: FordDomain, show: str = "precells") -> str:
    """SVG text for the domain with its precell walls or cell arcs."""
    if show not in ("precells", "cells"):
        raise ValueError("show must be 'precells' or 'cells'")
    cv = _Canvas()
    width = _fmt((_X_MAX - _X_MIN) * _SCALE)
    height = _fmt(_Y_CLIP * _SCALE)
    cv.parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    cv.parts.append(
        "<style>"
        ".axis{stroke:#000;stroke-width:2;fill:none}"
        ".sphere{stroke:#1f4e79;stroke-width:2;fill:none}"
        ".wall{stroke:#888;stroke-width:1.5;stroke-dasharray:6 4;fill:none}"
        ".side{stroke:#b02a2a;stroke-width:2;fill:none}"
        ".vertex{fill:#b02a2a;stroke:none}"
        ".max{fill:#1f4e79;stroke:none}"
        "</style>"
    )
    cv.line(_X_MIN, 0.0, _X_MAX, 0.0, "axis")

    p = dom.p
    walls = [Fraction(k, p) for k in range(p + 1)]

    for s in dom.spheres:
        cv.semicircle(float(s.center), float(s.radius), "sphere")
    if show == "precells":
        for w in walls:
            cv.line(float(w), 0.0, float(w), _Y_CLIP, "wall")
        for m in dom.maxima:
            cv.dot(float(m.x), float(m.y2) ** 0.5, "max")
    else:
        for left, right in zip(walls, walls[1:]):  # the cells (k/p, (k+1)/p, inf)
            cv.line(float(left), 0.0, float(left), _Y_CLIP, "side")
            cv.line(float(right), 0.0, float(right), _Y_CLIP, "side")
            cv.semicircle(float((left + right) / 2), float((right - left) / 2), "side")
    for v in dom.inner_vertices:
        cv.dot(float(v.x), float(v.y2) ** 0.5, "vertex")
    cv.parts.append("</svg>")
    return "\n".join(cv.parts) + "\n"
