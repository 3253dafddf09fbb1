"""SVG and ASCII rendering of walks.

SVG output is deterministic (no timestamps, fixed formatting): unit grid,
start marker, the walk as a polyline, optional box outline.  Triangular
walks use the standard 60-degree embedding.  ASCII art covers the square
lattice only; a triangular character grid would be lossy.
"""

from __future__ import annotations

from prudentwalks.walks import SquareWalk, TriWalk, square_bounds, tri_bounds

SCALE = 20
MARGIN = 30
SQRT3_2 = 0.8660254037844386


def _fmt(x):
    if isinstance(x, float):
        if x == int(x):
            return str(int(x))
        return "%.2f" % x
    return str(x)


def _svg_document(width, height, body):
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">\n' % (width, height, width, height)
    )
    return head + "".join(body) + "</svg>\n"


def render_square_svg(walk, box):
    vs = walk.vertices()
    x0, x1, y0, y1 = square_bounds(vs)
    # lattice (x, y) sits at pixel (ox + x*SCALE, oy - y*SCALE), North up
    ox = MARGIN - x0 * SCALE
    oy = MARGIN + y1 * SCALE
    right = MARGIN + (x1 - x0) * SCALE
    bottom = MARGIN + (y1 - y0) * SCALE
    body = ['<rect width="100%" height="100%" fill="white"/>\n']
    col = '<line x1="%%d" y1="%d" x2="%%d" y2="%d"/>' % (MARGIN, bottom)
    row = '<line x1="%d" y1="%%d" x2="%d" y2="%%d"/>' % (MARGIN, right)
    grid = [col % (p, p) for p in range(MARGIN, right + 1, SCALE)]  # left to right
    grid += [row % (p, p) for p in range(bottom, MARGIN - 1, -SCALE)]  # bottom to top
    body.append('<g stroke="#dddddd" stroke-width="1">%s</g>\n' % "".join(grid))
    if box:
        body.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
            'stroke="#cc3333" stroke-dasharray="4 3"/>\n'
            % (MARGIN, MARGIN, right - MARGIN, bottom - MARGIN)
        )
    if len(vs) > 1:
        points = " ".join(["%d,%d" % (ox + x * SCALE, oy - y * SCALE) for x, y in vs])
        body.append(
            '<polyline points="%s" fill="none" stroke="#1f4e9c" '
            'stroke-width="2.5" stroke-linecap="round" stroke-linejoin="round"/>\n'
            % points
        )
    body.append('<circle cx="%d" cy="%d" r="4" fill="#1f4e9c"/>\n' % (ox, oy))
    return _svg_document(right + MARGIN, bottom + MARGIN, body)


def render_tri_svg(walk, box):
    vs = walk.vertices()

    def embed(x, y):
        return (x + y / 2.0, y * SQRT3_2)

    x_min, y_min, s_max = tri_bounds(vs)
    pts = [embed(x, y) for x, y in vs]
    # the box's North, SW and SE corners
    corner_pts = [embed(x_min, s_max - x_min), embed(x_min, y_min), embed(s_max - y_min, y_min)]
    all_pts = pts + corner_pts
    ex0 = min(p[0] for p in all_pts)
    ex1 = max(p[0] for p in all_pts)
    ey0 = min(p[1] for p in all_pts)
    ey1 = max(p[1] for p in all_pts)

    def px(p):
        return MARGIN + (p[0] - ex0) * SCALE

    def py(p):
        return MARGIN + (ey1 - p[1]) * SCALE

    width = int(px((ex1, 0))) + MARGIN
    height = int(py((0, ey0))) + MARGIN
    body = ['<rect width="100%" height="100%" fill="white"/>\n']
    if box:
        tri = " ".join(
            "%s,%s" % (_fmt(px(c)), _fmt(py(c))) for c in corner_pts
        )
        body.append(
            '<polygon points="%s" fill="none" stroke="#cc3333" '
            'stroke-dasharray="4 3"/>\n' % tri
        )
    if len(pts) > 1:
        points = " ".join("%s,%s" % (_fmt(px(p)), _fmt(py(p))) for p in pts)
        body.append(
            '<polyline points="%s" fill="none" stroke="#1f6b3a" '
            'stroke-width="2.5" stroke-linecap="round" stroke-linejoin="round"/>\n'
            % points
        )
    start = pts[0]
    body.append(
        '<circle cx="%s" cy="%s" r="4" fill="#1f6b3a"/>\n'
        % (_fmt(px(start)), _fmt(py(start)))
    )
    return _svg_document(int(width), int(height), body)


def render_svg(walk, box=False):
    if isinstance(walk, TriWalk):
        return render_tri_svg(walk, box=box)
    return render_square_svg(walk, box=box)


def render_ascii(walk):
    """Character-grid picture of a square walk: O start, X end, * visited."""
    if not isinstance(walk, SquareWalk):
        raise ValueError("ASCII rendering covers the square lattice only")
    vs = walk.vertices()
    x0, x1, y0, y1 = square_bounds(vs)
    w = 2 * (x1 - x0) + 1
    h = 2 * (y1 - y0) + 1
    grid = [[" "] * w for _ in range(h)]

    def cell(x, y):
        return 2 * (y1 - y), 2 * (x - x0)

    for (ax, ay), (bx, by) in zip(vs, vs[1:]):
        ra, ca = cell(ax, ay)
        rb, cb = cell(bx, by)
        grid[(ra + rb) // 2][(ca + cb) // 2] = "-" if ra == rb else "|"
    for x, y in vs:
        r, c = cell(x, y)
        grid[r][c] = "*"
    r, c = cell(*vs[-1])
    grid[r][c] = "X"
    r, c = cell(*vs[0])
    grid[r][c] = "O"
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"
