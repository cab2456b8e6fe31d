import pytest

from sphtor import TooLarge, arc
from sphtor.orbit import MDiagonal, OrbitCategory
from sphtor.render import MAX_TICKS, svg_arc_diagram, svg_polygon_diagram


def test_empty_input_renders_valid_canvas():
    svg = svg_arc_diagram(2, [])
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_arc_diagram_structure():
    arcs = [arc(2, 0, 3), arc(2, 1, 4)]
    dashed = [arc(2, 0, 4), arc(2, 1, 3)]
    svg = svg_arc_diagram(2, arcs, dashed)
    assert svg.count("<path") == 4
    assert svg.count("stroke-dasharray") == 2
    # every vertex from -1 to 5 is labelled
    for v in range(-1, 6):
        assert f">{v}</text>" in svg


def test_loops_render_as_lobes():
    svg = svg_arc_diagram(0, [arc(0, 4, 4), arc(0, 3, 1)])
    assert svg.count("<circle") == 1
    assert svg.count("<path") == 1


def test_polygon_diagram_counts():
    cat = OrbitCategory(3, 2)
    svg = svg_polygon_diagram(3, 2, sorted(cat.diagonals))
    assert svg.count("<line") == 9
    assert svg.count("<polygon") == 1
    for v in range(1, 7):
        assert f">{v}</text>" in svg


def test_deterministic_output():
    arcs = [arc(-2, 5, 0), arc(-2, 8, 3)]
    assert svg_arc_diagram(-2, arcs) == svg_arc_diagram(-2, list(reversed(arcs)))
    diag = [MDiagonal(1, 2), MDiagonal(3, 6)]
    assert svg_polygon_diagram(3, 2, diag) == svg_polygon_diagram(3, 2, diag[::-1])


def test_arc_diagram_refuses_past_its_tick_budget():
    # the number line runs one vertex beyond the arcs on each side
    last = MAX_TICKS - 3
    svg = svg_arc_diagram(0, [arc(0, 0, 0), arc(0, last, last)])
    assert svg.count("<text") == MAX_TICKS
    with pytest.raises(TooLarge, match=str(MAX_TICKS)):
        svg_arc_diagram(0, [arc(0, 0, 0)], dashed=[arc(0, last + 1, last + 1)])


def test_polygon_diagram_refuses_past_its_tick_budget():
    # N = m(n + 1) - 2: 2049 * 2 - 2 = MAX_TICKS vertices, then two more
    svg = svg_polygon_diagram(1, 2049, [])
    assert svg.count("<circle") == MAX_TICKS
    with pytest.raises(TooLarge, match=str(MAX_TICKS)):
        svg_polygon_diagram(1, 2050, [])
