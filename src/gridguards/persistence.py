"""Polygon file formats and SVG scene rendering.

Two polygon formats: plain text with one "x y" pair per line ('#' starts a
comment, rationals written "p/q") and JSON {"vertices": [[x, y], ...]}.
Both round-trip exactly.  SVG output serializes exact coordinates at fixed
decimal precision and embeds the exact rationals in a comment for audit;
the bytes are deterministic for identical scenes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, List, Optional, Sequence, Tuple, Union

from .badregions import BadRegion, wedge_outline
from .geometry import Point, Scalar
from .polygon import PolygonModel, load_polygon

FORMAT_TEXT = "PlainText"
FORMAT_JSON = "Json"


class ParseError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IoError(Exception):
    pass


def _parse_scalar(token: str, line: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad coordinate {token!r}", line)


def _read_text(text: str) -> List[Tuple[Fraction, Fraction]]:
    verts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'x y', got {body!r}", lineno)
        verts.append((_parse_scalar(parts[0], lineno),
                      _parse_scalar(parts[1], lineno)))
    if not verts:
        raise ParseError("no vertices found", 1)
    return verts


def _read_json(text: str) -> List[Tuple[Fraction, Fraction]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ParseError("missing 'vertices' key", 1)
    verts = []
    for entry in doc["vertices"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"bad vertex entry {entry!r}", 1)
        pair = []
        for c in entry:
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise ParseError(f"bad coordinate {c!r}", 1)
            pair.append(_parse_scalar(str(c), 1))
        verts.append((pair[0], pair[1]))
    if not verts:
        raise ParseError("no vertices found", 1)
    return verts


def read_polygon(source: Union[str, IO[str]]) -> PolygonModel:
    """Load a polygon from a path or text stream in either format."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise IoError(str(e))
    stripped = text.lstrip()
    if stripped.startswith("{"):
        verts = _read_json(text)
    else:
        verts = _read_text(text)
    return load_polygon(verts)


def write_text(text: str, target: Union[str, IO[str]]) -> None:
    """Write to a stream, or to a path with OSError reported as IoError."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        try:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise IoError(str(e))


def write_polygon(m: PolygonModel, target: Union[str, IO[str]],
                  fmt: str = FORMAT_TEXT) -> None:
    """Serialize the polygon's exact coordinates to a path or stream."""
    if fmt == FORMAT_TEXT:
        text = "".join(f"{x} {y}\n" for x, y in zip(m.xs, m.ys))
    elif fmt == FORMAT_JSON:
        verts = [list(v) for v in zip(m.xs, m.ys)]
        text = json.dumps({"vertices": verts}, separators=(",", ":")) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    write_text(text, target)


@dataclass
class SceneRender:
    """A polygon with its guards or its bad regions; all geometry is exact
    until render."""

    polygon: PolygonModel
    guards: Tuple[Point, ...] = ()
    bad_regions: Tuple[BadRegion, ...] = ()


_STYLE = {
    "polygon": "fill:none;stroke:#202020;stroke-width:0.5%",
    "bad": "fill:#cc3311;fill-opacity:0.35;stroke:none",
    "guard": "fill:#000000;stroke:#ffffff",
}


def write_svg(scene: SceneRender, target: Union[str, IO[str]]) -> None:
    """Render the scene as standalone SVG 1.1 with deterministic bytes,
    every coordinate with 6 decimals."""
    m = scene.polygon
    xs, ys = m.xs, m.ys
    pad = max(1, (max(xs) - min(xs)) // 20)
    x0, y0 = min(xs) - pad, min(ys) - pad
    x1, y1 = max(xs) + pad, max(ys) + pad
    flip = y0 + y1

    def fx(v: Scalar) -> str:
        return f"{float(v):.6f}"

    def fy(v: Scalar) -> str:
        return f"{float(flip - v):.6f}"

    def path(points: Sequence[Point]) -> str:
        cmds = [f"M {fx(points[0].x)} {fy(points[0].y)}"]
        for q in points[1:]:
            cmds.append(f"L {fx(q.x)} {fy(q.y)}")
        cmds.append("Z")
        return " ".join(cmds)

    r_guard = float(max(x1 - x0, y1 - y0)) / 100
    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{fx(x0)} {fx(Fraction(0))} {fx(x1 - x0)} {fx(y1 - y0)}">')
    audit = "exact: " + "; ".join(f"{x},{y}" for x, y in zip(xs, ys))
    out.append(f"<!-- {audit} -->")
    out.append(f'<path d="{path(list(m.vertices))}" '
               f'style="{_STYLE["polygon"]}"/>')
    for region in scene.bad_regions:
        for w in region.wedges:
            poly = wedge_outline(m, w)
            if poly:
                out.append(f'<path d="{path(poly)}" style="{_STYLE["bad"]}"/>')
    for q in scene.guards:
        out.append(f'<circle cx="{fx(q.x)}" cy="{fy(q.y)}" '
                   f'r="{r_guard:.6f}" style="{_STYLE["guard"]}"/>')
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    write_text(text, target)
