"""Batch SVG figures: wall arrangements with shadow overlays.

Exact data in, floats out: geometry is computed in the √3 field and only
converted to floats for drawing, with fixed-precision formatting so a given
input always produces identical bytes.
"""

from __future__ import annotations

from itertools import combinations

from .euclid import WallModel
from .shadows import ShadowReport, _feasible_point, _slab_constraints


SIZE = 480  # width and height of every figure, in pixels


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _wall_segment(normal, level, half: float):
    # the wall is {p : n.p = level}; draw its trace inside the [-half, half]^2 box
    nx, ny = float(normal[0]), float(normal[1])
    c = float(level)
    points = []
    for x in (-half, half):
        if abs(ny) > 1e-12:
            y = (c - nx * x) / ny
            if -half - 1e-9 <= y <= half + 1e-9:
                points.append((x, y))
    for y in (-half, half):
        if abs(nx) > 1e-12:
            x = (c - ny * y) / nx
            if -half - 1e-9 <= x <= half + 1e-9:
                points.append((x, y))
    unique = []
    for p in points:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-6 for q in unique):
            unique.append(p)
    return unique[:2] if len(unique) >= 2 else None


def _virtual_position(model: WallModel, cuts):
    """Mid-slab crossing of the first two non-parallel families, the midpoint
    of two opposite corners of their slabs' parallelogram; the stand-in
    position of an inconsistent cut tuple."""
    cross, vertex = model.arrangement.cross, model.arrangement.vertex
    for i, j in combinations(range(model.k), 2):
        if any(cross[i][j]):  # zero iff i and j are parallel
            lo, hi = vertex(i, j, cuts[i] - 1, cuts[j] - 1), vertex(i, j, cuts[i], cuts[j])
            return (lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2
    return None


def shadow_svg(model: WallModel, report: ShadowReport) -> str:
    """Walls of the model with the queried chamber and its shadow marked."""
    coords = [c for member in report.shadow for c in member] + list(report.pi)
    reach = max(abs(c) for c in coords) + 2 if coords else 4
    spacing = max(float(f.spacing) for f in model.families)
    half = reach * spacing
    scale = SIZE / (2 * half)

    def to_px(p):
        x, y = float(p[0]), float(p[1])
        return (x + half) * scale, (half - y) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    for fam in model.families:
        for n in range(-reach, reach + 1):
            seg = _wall_segment(fam.normal, fam.wall_level(n), half)
            if seg is None:
                continue
            (x1, y1), (x2, y2) = (to_px(seg[0]), to_px(seg[1]))
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="#bbbbbb" stroke-width="1"/>'
            )

    def chamber_point(cuts):
        point = _feasible_point(_slab_constraints(model, tuple(cuts)))
        if point is not None:
            return point
        return _virtual_position(model, cuts)

    for member in sorted(report.shadow):
        point = chamber_point(member)
        if point is None:
            continue
        x, y = to_px(point)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#2060c0" '
            f'fill-opacity="0.8"/>'
        )
    marker = chamber_point(report.pi)
    if marker is not None:
        x, y = to_px(marker)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="6" fill="none" '
            f'stroke="#c03020" stroke-width="2"/>'
        )
    lines.append(
        f'<text x="8" y="{SIZE - 10}" font-family="monospace" font-size="12">'
        f"pi={list(report.pi)} dist={report.dist} shadow={len(report.shadow)}</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
