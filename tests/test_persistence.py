"""Polygon file formats and SVG rendering: round-trips and determinism."""

import io
import json
from fractions import Fraction

import pytest
from gridguards.badregions import bad_region
from gridguards.generate import channel
from gridguards.geometry import pt
from gridguards.persistence import (
    FORMAT_JSON,
    FORMAT_TEXT,
    IoError,
    ParseError,
    SceneRender,
    read_polygon,
    write_polygon,
    write_svg,
)
from gridguards.polygon import opposite_reflex_pairs


def roundtrip(m, fmt):
    buf = io.StringIO()
    write_polygon(m, buf, fmt)
    return read_polygon(io.StringIO(buf.getvalue()))


def test_text_roundtrip_exact():
    m = channel()
    m2 = roundtrip(m, FORMAT_TEXT)
    assert m2.vertices == m.vertices
    assert (m2.M, m2.L) == (m.M, m.L)


def test_json_roundtrip_exact():
    m = channel()
    m2 = roundtrip(m, FORMAT_JSON)
    assert m2.vertices == m.vertices


def test_text_parses_comments_and_rationals():
    text = "# header\n3/2 1   # first vertex\n9 1\n9 9\n\n1 9\n"
    m = read_polygon(io.StringIO(text))
    # rationals are cleared by rescaling, so 3/2 becomes 3 at scale 2
    assert m.vertices[0] == pt(3, 2)
    assert m.n == 4


def test_text_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        read_polygon(io.StringIO("1 1\n2 2 2\n3 3\n"))
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        read_polygon(io.StringIO("1 1\n2 x\n"))
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        read_polygon(io.StringIO("# only comments\n"))


def test_json_parse_errors():
    with pytest.raises(ParseError):
        read_polygon(io.StringIO('{"vertices": [[1, 1], [2]]}'))
    with pytest.raises(ParseError):
        read_polygon(io.StringIO('{"points": [[1, 1]]}'))
    with pytest.raises(ParseError):
        read_polygon(io.StringIO('{"vertices": [[1, 1.5], [2, 2], [3, 1]]}'))
    with pytest.raises(ParseError):
        read_polygon(io.StringIO("{broken"))


def test_json_accepts_string_rationals():
    doc = {"vertices": [["3/2", 1], [9, 1], [9, 9], [1, 9]]}
    m = read_polygon(io.StringIO(json.dumps(doc)))
    assert m.vertices[0] == pt(3, 2)


def test_autodetects_format():
    m = channel()
    for fmt in (FORMAT_TEXT, FORMAT_JSON):
        assert roundtrip(m, fmt).vertices == m.vertices


def test_read_polygon_missing_file():
    with pytest.raises(IoError):
        read_polygon("/nonexistent/path/poly.txt")


def test_writers_report_io_errors(tmp_path):
    target = str(tmp_path / "missing" / "out")
    with pytest.raises(IoError):
        write_polygon(channel(), target)
    with pytest.raises(IoError):
        write_svg(SceneRender(polygon=channel()), target)


def test_write_polygon_unknown_format():
    with pytest.raises(ValueError):
        write_polygon(channel(), io.StringIO(), "Yaml")


def render_scene():
    m = channel()
    (pair,) = opposite_reflex_pairs(m)
    return SceneRender(
        polygon=m,
        guards=(pt(2, 5), pt(10, 5)),
        bad_regions=(bad_region(m, pair, Fraction(1, 10)),))


def test_svg_deterministic_bytes():
    scene = render_scene()
    a, b = io.StringIO(), io.StringIO()
    write_svg(scene, a)
    write_svg(scene, b)
    assert a.getvalue() == b.getvalue()


def test_svg_structure():
    buf = io.StringIO()
    write_svg(render_scene(), buf)
    svg = buf.getvalue()
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")
    # every coordinate has six decimals
    assert 'viewBox="0.000000 0.000000 ' in svg
    # exact coordinates survive in the audit comment
    assert "<!-- exact: 1,1; 7,1;" in svg
    # one circle per guard
    assert svg.count("<circle") == 2
    # polygon path plus one path per bad-region wedge
    assert svg.count("<path") == 3
