"""Deterministic SVG diagrams: arcs over a number line, chords of an N-gon.

Output is a pure function of the input: fixed layout constants, sorted
stroke order, fixed-precision coordinates, no timestamps.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .arcs import Arc
from .errors import TooLarge
from .orbit import MDiagonal

PITCH = 36
MAX_TICKS = 1 << 12  # vertices of the number line of an arc diagram, or of a polygon
MARGIN = 30
BASE_STYLE = 'fill="none" stroke="black" stroke-width="1.5"'
DASHED_STYLE = 'fill="none" stroke="black" stroke-width="1.2" stroke-dasharray="6,4"'


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _svg(width: float, height: float, body: List[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _arc_path(x1: float, x2: float, y: float) -> str:
    r = abs(x2 - x1) / 2
    return f"M {_fmt(x1)} {_fmt(y)} A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(x2)} {_fmt(y)}"


def svg_arc_diagram(
    w: int, arcs: Sequence[Arc], dashed: Sequence[Arc] = ()
) -> str:
    """Arcs drawn as semicircles over an integer number line; loops as lobes.

    The line has one tick per vertex, from one left of the arcs to one right
    of them; past ``MAX_TICKS`` vertices it raises ``TooLarge``.
    """
    every = list(arcs) + list(dashed)
    if not every:
        return _svg(2 * MARGIN, 2 * MARGIN, ["  <!-- empty diagram -->"])
    lo = min(min(a.vertices) for a in every) - 1
    hi = max(max(a.vertices) for a in every) + 1
    span = hi - lo
    if span + 1 > MAX_TICKS:  # one tick per vertex on [lo, hi]
        raise TooLarge(f"refusing a number line of {span + 1} vertices, more than {MAX_TICKS}")
    max_half = max(max(a.length for a in every), 1) * PITCH / 2
    height = max_half + 2 * MARGIN + 16
    width = span * PITCH + 2 * MARGIN
    baseline = height - MARGIN

    def xpos(v: int) -> float:
        return MARGIN + (v - lo) * PITCH

    body = [
        f'  <line x1="{_fmt(xpos(lo))}" y1="{_fmt(baseline)}" '
        f'x2="{_fmt(xpos(hi))}" y2="{_fmt(baseline)}" stroke="black" stroke-width="1"/>'
    ]
    for v in range(lo, hi + 1):
        x = xpos(v)
        body.append(
            f'  <line x1="{_fmt(x)}" y1="{_fmt(baseline - 3)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(baseline + 3)}" stroke="black" stroke-width="1"/>'
        )
        body.append(
            f'  <text x="{_fmt(x)}" y="{_fmt(baseline + 16)}" font-size="11" '
            f'text-anchor="middle">{v}</text>'
        )
    for group, style in ((sorted(arcs), BASE_STYLE), (sorted(dashed), DASHED_STYLE)):
        for a in group:
            if a.is_loop:
                x = xpos(a.t)
                body.append(
                    f'  <circle cx="{_fmt(x)}" cy="{_fmt(baseline - 9)}" r="8" {style}/>'
                )
            else:
                x1, x2 = sorted((xpos(a.t), xpos(a.u)))
                body.append(f'  <path d="{_arc_path(x1, x2, baseline)}" {style}/>')
    return _svg(width, height, body)


def _polygon_vertices(n: int, m: int) -> int:
    """N = m(n+1) - 2, the vertices of the polygon of C_m(A_n); past ``MAX_TICKS`` it raises ``TooLarge``."""
    N = m * (n + 1) - 2
    if N > MAX_TICKS:
        raise TooLarge(f"refusing a polygon of {N} vertices, more than {MAX_TICKS}")
    return N


def svg_polygon_diagram(n: int, m: int, diagonals: Sequence[MDiagonal]) -> str:
    """Diagonals drawn as chords of the N-gon, vertex 1 at the top, clockwise.

    Past ``MAX_TICKS`` vertices it raises ``TooLarge``.
    """
    N = _polygon_vertices(n, m)
    radius = 150.0
    c = radius + MARGIN
    size = 2 * c

    def point(v: int) -> Tuple[float, float]:
        angle = -math.pi / 2 + 2 * math.pi * ((v - 1) % N) / N
        return (c + radius * math.cos(angle), c + radius * math.sin(angle))

    body = []
    ring = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (point(v) for v in range(1, N + 1)))
    body.append(f'  <polygon points="{ring}" fill="none" stroke="black" stroke-width="1"/>')
    for v in range(1, N + 1):
        x, y = point(v)
        lx = c + (radius + 14) * math.cos(-math.pi / 2 + 2 * math.pi * (v - 1) / N)
        ly = c + (radius + 14) * math.sin(-math.pi / 2 + 2 * math.pi * (v - 1) / N)
        body.append(f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" fill="black"/>')
        body.append(
            f'  <text x="{_fmt(lx)}" y="{_fmt(ly + 4)}" font-size="11" '
            f'text-anchor="middle">{v}</text>'
        )
    for dg in sorted(diagonals):
        (x1, y1), (x2, y2) = point(dg.i), point(dg.j)
        body.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" {BASE_STYLE}/>'
        )
    return _svg(size, size, body)
