import pytest

from prudentwalks.render import (
    MARGIN,
    SCALE,
    _svg_document,
    render_ascii,
    render_square_svg,
    render_svg,
)
from prudentwalks.sampler import kinetic_sample
from prudentwalks.walks import SquareWalk, TriWalk


def reference_square_svg(walk, box=False):
    """The square renderer written with per-coordinate pixel maps."""
    vs = walk.vertices()
    xs = [p[0] for p in vs]
    ys = [p[1] for p in vs]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)

    def px(x):
        return MARGIN + (x - x0) * SCALE

    def py(y):
        return MARGIN + (y1 - y) * SCALE

    body = ['<rect width="100%" height="100%" fill="white"/>\n']
    grid = []
    for x in range(x0, x1 + 1):
        grid.append('<line x1="%d" y1="%d" x2="%d" y2="%d"/>' % (px(x), py(y1), px(x), py(y0)))
    for y in range(y0, y1 + 1):
        grid.append('<line x1="%d" y1="%d" x2="%d" y2="%d"/>' % (px(x0), py(y), px(x1), py(y)))
    body.append('<g stroke="#dddddd" stroke-width="1">%s</g>\n' % "".join(grid))
    if box:
        body.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
            'stroke="#cc3333" stroke-dasharray="4 3"/>\n'
            % (px(x0), py(y1), (x1 - x0) * SCALE, (y1 - y0) * SCALE)
        )
    if len(vs) > 1:
        points = " ".join("%d,%d" % (px(x), py(y)) for x, y in vs)
        body.append(
            '<polyline points="%s" fill="none" stroke="#1f4e9c" '
            'stroke-width="2.5" stroke-linecap="round" stroke-linejoin="round"/>\n'
            % points
        )
    body.append('<circle cx="%d" cy="%d" r="4" fill="#1f4e9c"/>\n' % (px(0), py(0)))
    return _svg_document(px(x1) + MARGIN, py(y0) + MARGIN, body)


@pytest.mark.parametrize("box", [False, True])
def test_square_svg_matches_reference(box):
    for n in [*range(31), 1000]:
        for seed in range(5):
            walk = kinetic_sample(n, seed)
            assert render_square_svg(walk, box=box) == reference_square_svg(walk, box=box)


def test_empty_walk_single_marker():
    svg = render_svg(SquareWalk(""))
    assert "<circle" in svg
    assert "<polyline" not in svg


def test_nes_three_segments():
    svg = render_svg(SquareWalk("NES"), box=True)
    assert svg.count("<polyline") == 1
    pts = svg.split('points="')[1].split('"')[0].split()
    assert len(pts) == 4  # three segments
    # bounding rectangle 1x1 drawn as the box outline
    assert 'width="20" height="20"' in svg


def test_svg_deterministic():
    w = SquareWalk("NNEESSWWN"[:6])
    assert render_svg(w) == render_svg(w)


def test_triangular_walk_inside_box_outline():
    w = TriWalk("21013")
    svg = render_svg(w, box=True)
    assert "<polygon" in svg  # triangle outline
    assert "<polyline" in svg


def test_ascii_square():
    art = render_ascii(SquareWalk("NES"))
    assert art.splitlines() == ["*-*", "| |", "O X"]


def test_ascii_rejects_triangular():
    with pytest.raises(ValueError):
        render_ascii(TriWalk("210"))
