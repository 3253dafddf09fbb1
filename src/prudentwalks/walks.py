"""Walk geometry on the square and triangular lattices, class membership
(`in_class`), and the brute-force enumeration oracle.

The oracle is a plain depth-first search with no memoization; every other
counting route in the package is validated against it.  Each walk state keeps
its box and the least and greatest visited position per row and column
(square) or box edge (triangular), which give `legal_steps` and `lookahead`
(for each legal step, the steps legal after it, without pushing) in O(1) per
step.  The k-sided edge rule is checked at the step's midpoint only, which
implies it at the endpoint (see `SquareState`).
Each class's symmetries are stated once, as generator matrices
(`SYMMETRY_GENERATORS`); the first-step orbits and each orbit member's action
on a walk's endpoint and box are derived from them at import.
`enumerate_counts`, `endpoint_stats` and `enumerate_tri_by_box` search from
one first step per orbit: the counts are weighted by the orbit size, the
endpoints and boxes folded through every member's map.  The first two stop
at length n - 2 and read the last two generations off each walk's lookahead
instead of visiting them.  `enumerate_walks` searches every first step.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

# square steps, encoded 0..3: N, E, S, W (clockwise)
SQ_STEP_VECTORS = ((0, 1), (1, 0), (0, -1), (-1, 0))
SQ_STEP_NAMES = "NESW"

# triangular steps, encoded 0..5 clockwise with NW = 0
TRI_STEP_VECTORS = ((-1, 1), (0, 1), (1, 0), (1, -1), (0, -1), (-1, 0))
TRI_STEP_NAMES = ("NW", "NE", "E", "SE", "SW", "W")


class WalkClass(Enum):
    ONE_SIDED = "1-sided"
    TWO_SIDED = "2-sided"
    THREE_SIDED = "3-sided"
    PRUDENT4 = "4-sided"
    TRIANGULAR = "triangular"


# the square classes, by their number of allowed box edges
SQUARE_CLASSES = (
    WalkClass.ONE_SIDED,
    WalkClass.TWO_SIDED,
    WalkClass.THREE_SIDED,
    WalkClass.PRUDENT4,
)


def square_bounds(points):
    """(x_min, x_max, y_min, y_max) of the points."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def tri_bounds(points):
    """(x_min, y_min, s_max) of the points."""
    return (
        min(p[0] for p in points),
        min(p[1] for p in points),
        max(p[0] + p[1] for p in points),
    )


class _Walk:
    """Walk from the origin, stored as a tuple of step codes; each subclass
    gives its lattice's step codes (_codes; in text, _text_codes) and its
    text and JSON forms."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = self._parse(steps, self._codes)

    @classmethod
    def _parse(cls, steps, codes):
        """Step codes of the steps, each a str or an exact int key of codes
        (names in any case).  The type is checked first, as True and 1.0 look
        up the same key as the code 1."""
        out = []
        for s in steps:
            if isinstance(s, str):
                code = codes.get(s.upper())
            else:
                code = codes.get(s) if type(s) is int else None
            if code is None:
                raise ValueError("bad step %r: %s" % (s, cls._accepted))
            out.append(code)
        return tuple(out)

    @classmethod
    def from_codes(cls, steps):
        """Walk from a tuple of step codes known to be valid, without parsing."""
        walk = cls.__new__(cls)
        walk.steps = steps
        return walk

    @classmethod
    def from_text(cls, text):
        return cls.from_codes(cls._parse(text.strip(), cls._text_codes))

    @classmethod
    def from_json(cls, obj):
        if "steps" not in obj:
            raise ValueError('missing "steps", the list of steps')
        steps = obj["steps"]
        if not isinstance(steps, (list, str)):
            raise ValueError('"steps" must be a list of steps, not %r' % (steps,))
        return cls.from_text(steps) if isinstance(steps, str) else cls(steps)

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return type(other) is type(self) and self.steps == other.steps

    def __hash__(self):
        return hash((self.lattice, self.steps))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.to_text())

    def vertices(self):
        vectors = self._vectors
        x = y = 0
        out = [(0, 0)]
        for s in self.steps:
            dx, dy = vectors[s]
            x += dx
            y += dy
            out.append((x, y))
        return out


class SquareWalk(_Walk):
    """Square-lattice walk from the origin, steps over {N, E, S, W}."""

    __slots__ = ()
    lattice = "square"
    _vectors = SQ_STEP_VECTORS
    _codes = {k: d for d, name in enumerate(SQ_STEP_NAMES) for k in (name, d)}
    _text_codes = _codes
    _accepted = "square steps are N, E, S, W (codes 0-3)"

    def to_text(self):
        return "".join(SQ_STEP_NAMES[s] for s in self.steps)

    def to_json(self):
        return {"lattice": "square", "steps": [SQ_STEP_NAMES[s] for s in self.steps]}


class TriWalk(_Walk):
    """Triangular-lattice walk from the origin.

    Lattice coordinates: E=(1,0), W=(-1,0), NE=(0,1), SW=(0,-1), NW=(-1,1),
    SE=(1,-1); step codes 0..5 clockwise with NW = 0.
    """

    __slots__ = ()
    lattice = "tri"
    _vectors = TRI_STEP_VECTORS
    _codes = {k: d for d, name in enumerate(TRI_STEP_NAMES) for k in (name, d, str(d))}
    _text_codes = {str(d): d for d in range(6)}
    _accepted = "triangular steps are the digits 0-5 in text, and in JSON also the names NW, NE, E, SE, SW, W"

    def to_text(self):
        return "".join(str(s) for s in self.steps)

    def to_json(self):
        return {"lattice": "tri", "steps": list(self.steps)}


def walk_from_json(obj):
    """The walk of a JSON object {"lattice": "square" or "tri", "steps": [...]}."""
    for cls in (SquareWalk, TriWalk):
        if obj.get("lattice") == cls.lattice:
            return cls.from_json(obj)
    problem = "unknown lattice %r" % (obj["lattice"],) if "lattice" in obj else 'missing "lattice"'
    raise ValueError('%s: the lattices are "square" and "tri"' % problem)


# --------------------------------------------------------------------------
# Incremental walk states.  These implement the class definitions directly
# and back both the membership predicates and the brute-force oracle.
# --------------------------------------------------------------------------

class SquareState:
    """Square-lattice walk state with prudence and k-sided step checks.

    k in {1, 2, 3} restricts the (continuous-time) endpoint to the top /
    top+right / top+right+left edges of the instantaneous box; k=None checks
    prudence only (general 4-sided prudent walks).  A degenerate box edge
    counts as all the edges it coincides with.

    The continuous rule is checked at the step's midpoint alone.  In doubled
    coordinates the midpoint (2x+dx, 2y+dy) lies on an allowed edge of the
    box it extends iff the step leaves from that edge and does not point
    inward: from the top edge (y == y_max) N, E and W; from the right edge
    (k >= 2, x == x_max) N, E and S; from the left edge (k >= 3, x == x_min)
    N, S and W (_edge_steps).  The endpoint (2x+2dx, 2y+2dy) then lies on the
    same edge, since the coordinate that put the midpoint there is either
    unchanged or moved further out, so an endpoint check would refuse
    nothing more.

    row[y] / col[x] hold the (least, greatest) x / y of the visited vertices
    in row y / column x.  They all lie in the box, so a step points at one
    inside the box iff the current vertex is not the extreme of its line in
    the step's direction: prudence is one lookup.  push(d) needs legal(d).
    lookahead() reads, for every legal d, only the cross line of the vertex
    push(d) would reach and the box it would grow, and changes nothing.
    """

    lattice = "square"

    def __init__(self, k=None):
        self.k = k
        self.x = self.y = 0
        self.row = {0: (0, 0)}
        self.col = {0: (0, 0)}
        self.x_min = self.x_max = self.y_min = self.y_max = 0
        self.trail = []

    def legal(self, d):
        x, y = self.x, self.y
        # prudence: N and E need the greatest, S and W the least (d < 2 picks)
        if d & 1:
            if self.row[y][d < 2] != x:
                return False
        elif self.col[x][d < 2] != y:
            return False
        k = self.k
        return k is None or _edge_steps(k, x, y, self.x_min, self.x_max, self.y_max) >> d & 1 == 1

    def legal_steps(self):
        """The legal steps from the current vertex, in N, E, S, W order."""
        x, y = self.x, self.y
        south, north = self.col[x]
        west, east = self.row[y]
        mask = (north == y) | (east == x) << 1 | (south == y) << 2 | (west == x) << 3
        k = self.k
        if k is not None:
            mask &= _edge_steps(k, x, y, self.x_min, self.x_max, self.y_max)
        return _MASK_STEPS[mask]

    def lookahead(self):
        """(d, the steps that would be legal after push(d)) for each legal
        step d, in N, E, S, W order, read off the state without pushing.

        The new vertex is the extreme of its own line in d's direction, with
        the old one behind it, so along that line only d is free.  Across, a
        step is free iff the new vertex's cross line is new (the box grows
        past it) or holds no visited vertex beyond it; the grown box then
        goes through the same edge rule as legal_steps."""
        k, x, y = self.k, self.x, self.y
        row, col = self.row, self.col
        x_min, x_max, y_max = self.x_min, self.x_max, self.y_max
        out = []
        for d in self.legal_steps():
            dx, dy = SQ_STEP_VECTORS[d]
            px, py = x + dx, y + dy
            if dx:  # N and S, by column px
                cross = col.get(px)
                mask = 1 << d | (5 if cross is None else (cross[1] <= py) | (cross[0] >= py) << 2)
            else:  # E and W, by row py
                cross = row.get(py)
                mask = 1 << d | (10 if cross is None else (cross[1] <= px) << 1 | (cross[0] >= px) << 3)
            if k is not None:
                mask &= _edge_steps(
                    k,
                    px,
                    py,
                    px if px < x_min else x_min,
                    px if px > x_max else x_max,
                    py if py > y_max else y_max,
                )
            out.append((d, _MASK_STEPS[mask]))
        return out

    def push(self, d):
        # the own line's extreme moves with the step; the new vertex's cross
        # line widens or, as the box grows, appears; its old entry is trailed
        dx, dy = SQ_STEP_VECTORS[d]
        x, y = self.x, self.y
        if dx:
            lo, hi = self.row[y]
            self.x = nx = x + dx
            self.row[y] = (lo, nx) if dx > 0 else (nx, hi)
            old = self.col.get(nx)
            if old is None:
                self.col[nx] = (y, y)
                if dx > 0:
                    self.x_max = nx
                else:
                    self.x_min = nx
            else:
                lo, hi = old
                self.col[nx] = (y, hi) if y < lo else (lo, y) if y > hi else old
        else:
            lo, hi = self.col[x]
            self.y = ny = y + dy
            self.col[x] = (lo, ny) if dy > 0 else (ny, hi)
            old = self.row.get(ny)
            if old is None:
                self.row[ny] = (x, x)
                if dy > 0:
                    self.y_max = ny
                else:
                    self.y_min = ny
            else:
                lo, hi = old
                self.row[ny] = (x, hi) if x < lo else (lo, x) if x > hi else old
        self.trail.append((x, y, old))

    def pop(self):
        nx, ny = self.x, self.y
        x, y, old = self.trail.pop()
        self.x, self.y = x, y
        if nx != x:
            lo, hi = self.row[y]
            self.row[y] = (lo, x) if nx > x else (x, hi)
            if old is not None:
                self.col[nx] = old
            else:
                del self.col[nx]
                if nx > x:
                    self.x_max = x
                else:
                    self.x_min = x
        else:
            lo, hi = self.col[x]
            self.col[x] = (lo, y) if ny > y else (y, hi)
            if old is not None:
                self.row[ny] = old
            else:
                del self.row[ny]
                if ny > y:
                    self.y_max = y
                else:
                    self.y_min = y


def _edge_steps(k, x, y, x_min, x_max, y_max):
    """Mask of the steps (bit d for step d) from (x, y) whose midpoint lies
    on an allowed edge of the box; k-sided walks only."""
    mask = 11 if y == y_max else 0  # top: N, E, W
    if k >= 2 and x == x_max:
        mask |= 7  # right: N, E, S
    if k >= 3 and x == x_min:
        mask |= 13  # left: N, S, W
    return mask


# the step codes of each mask of steps (bit d for step d), in code order
_MASK_STEPS = tuple(tuple(d for d in range(6) if mask >> d & 1) for mask in range(64))


# triangular box edges: 0 left (x = x_min; a vertex's position on it is y),
# 1 bottom (y = y_min; x), 2 right (x + y = s_max; x).  Per step: the edge it
# inflates the box past, leaving from it, else the one it runs along.  Per set
# of edges a vertex is on (bit e for edge e): the steps that inflate the box,
# and the other steps along an edge
_TRI_INFLATES = tuple(0 if dx < 0 else 1 if dy < 0 else 2 for dx, dy in TRI_STEP_VECTORS)
_TRI_RUNS_ALONG = tuple(0 if dx == 0 else 1 if dy == 0 else 2 for dx, dy in TRI_STEP_VECTORS)
_TRI_INFLATE = tuple(sum(1 << d for d in range(6) if on >> _TRI_INFLATES[d] & 1) for on in range(8))
_TRI_ALONG = tuple(
    sum(1 << d for d in range(6) if on >> _TRI_RUNS_ALONG[d] & 1) & ~_TRI_INFLATE[on] for on in range(8)
)


class TriState:
    """Triangular prudent walk state: each step either strictly inflates the
    box, or keeps it fixed while the step lies along one box edge and points
    at no visited vertex.

    left / bottom / right hold the (least, greatest) position of the visited
    vertices on each box edge; each came after the box reached the edge.  So
    a step along an edge points at no visited vertex iff the walker is the
    edge's extreme in the step's direction.  push(d) needs legal(d), and
    lookahead() changes nothing."""

    lattice = "tri"
    # inflating the box past this size is refused (enumerate_tri_by_box sets it)
    _max_size = float("inf")

    def __init__(self):
        self.x = self.y = self.x_min = self.y_min = self.s_max = 0
        self.left = self.bottom = self.right = (0, 0)
        self.trail = []

    def legal(self, d):
        return d in self.legal_steps()

    def legal_steps(self):  # in code order
        x, y, x_min, y_min, s_max = self.x, self.y, self.x_min, self.y_min, self.s_max
        (l_lo, l_hi), (b_lo, b_hi), (r_lo, r_hi) = self.left, self.bottom, self.right
        on = (x == x_min) | (y == y_min) << 1 | (x + y == s_max) << 2
        # NW, NE, E, SE, SW, W, each free iff the walker is its edge's extreme
        free = (r_lo == x) | (l_hi == y) << 1 | (b_hi == x) << 2 | (r_hi == x) << 3
        mask = _TRI_ALONG[on] & (free | (l_lo == y) << 4 | (b_lo == x) << 5)
        if s_max - x_min - y_min < self._max_size:
            mask |= _TRI_INFLATE[on]
        return _MASK_STEPS[mask]

    def lookahead(self):
        """(d, the steps that would be legal after push(d)) for each legal
        step d, in code order, read off the state without pushing.

        The new vertex is on each edge whose line it reaches.  After a step
        along an edge it is that edge's new extreme, so only d is free along
        it; after a step that inflates the box it is alone on the edge passed,
        so both steps along that are free.  Where it is a corner, the step
        along the other edge into the box points at a visited vertex, since
        every box edge holds one."""
        x, y, x_min, y_min, s_max = self.x, self.y, self.x_min, self.y_min, self.s_max
        size, cap = s_max - x_min - y_min, self._max_size
        inflating = _TRI_INFLATE[(x == x_min) | (y == y_min) << 1 | (x + y == s_max) << 2]
        out = []
        for d in self.legal_steps():
            dx, dy = TRI_STEP_VECTORS[d]
            px, py = x + dx, y + dy
            on = (px <= x_min) | (py <= y_min) << 1 | (px + py >= s_max) << 2
            grows = inflating >> d & 1
            mask = _TRI_ALONG[on] & (_TRI_ALONG[1 << _TRI_INFLATES[d]] if grows else 1 << d)
            if size + grows < cap:
                mask |= _TRI_INFLATE[on]
            out.append((d, _MASK_STEPS[mask]))
        return out

    def push(self, d):
        dx, dy = TRI_STEP_VECTORS[d]
        x, y, x_min, y_min, s_max = self.x, self.y, self.x_min, self.y_min, self.s_max
        left, bottom, right = self.left, self.bottom, self.right
        self.trail.append((x, y, x_min, y_min, s_max, left, bottom, right))
        self.x = x = x + dx
        self.y = y = y + dy
        # the new vertex is alone on an edge the box grows past, and past one
        # end of any other it lands on: it left that edge's extreme, or is a
        # corner
        if x <= x_min:
            lo, hi = left if x == x_min else (y, y)
            self.x_min, self.left = x, ((y, hi) if y < lo else (lo, y))
        if y <= y_min:
            lo, hi = bottom if y == y_min else (x, x)
            self.y_min, self.bottom = y, ((x, hi) if x < lo else (lo, x))
        if x + y >= s_max:
            lo, hi = right if x + y == s_max else (x, x)
            self.s_max, self.right = x + y, ((x, hi) if x < lo else (lo, x))

    def pop(self):
        (self.x, self.y, self.x_min, self.y_min, self.s_max,
         self.left, self.bottom, self.right) = self.trail.pop()


def _make_state(walk_class):
    if walk_class is WalkClass.TRIANGULAR:
        return TriState()
    k = SQUARE_CLASSES.index(walk_class) + 1
    return SquareState(k=k if k != 4 else None)


# --------------------------------------------------------------------------
# Membership predicates
# --------------------------------------------------------------------------

def in_class(walk, walk_class):
    """True iff every step of the walk is legal from the class's state
    reached before it."""
    state = _make_state(walk_class)
    if walk.lattice != state.lattice:
        raise ValueError(
            "a %s-lattice walk cannot be checked on the %s lattice" % (walk.lattice, state.lattice)
        )
    legal, push = state.legal, state.push
    for d in walk.steps:
        if not legal(d):
            return False
        push(d)
    return True


def is_prudent(walk):
    """True iff no step of the square walk points at a visited vertex."""
    return in_class(walk, WalkClass.PRUDENT4)


# --------------------------------------------------------------------------
# Brute-force oracle
# --------------------------------------------------------------------------

def _dfs(state, visit):
    """Depth-first search over the walks that extend `state`.

    Calls visit(state, depth) at every walk, the starting one included, and
    extends a walk only while visit returns true.
    """
    legal_steps, push, pop = state.legal_steps, state.push, state.pop

    def rec(depth):
        depth += 1
        for d in legal_steps():
            push(d)
            if visit(state, depth):
                rec(depth)
            pop()

    if visit(state, 0):
        rec(0)


def _check_length(n):
    if n < 0:
        raise ValueError("walk length must be >= 0, got %d" % n)


# Generators of each class's symmetry group: integer matrices ((a, b), (c, d))
# acting on (x, y) as (ax + by, cx + dy), each mapping the class onto itself.
# 1- and 3-sided: the reflection x -> -x; 2-sided: the reflection x <-> y;
# 4-sided: the quarter turn (x, y) -> (y, -x); triangular: x <-> y and the
# 120-degree rotation (x, y) -> (y, -x-y).
SYMMETRY_GENERATORS = {
    WalkClass.ONE_SIDED: (((-1, 0), (0, 1)),),
    WalkClass.TWO_SIDED: (((0, 1), (1, 0)),),
    WalkClass.THREE_SIDED: (((-1, 0), (0, 1)),),
    WalkClass.PRUDENT4: (((0, 1), (-1, 0)),),
    WalkClass.TRIANGULAR: (((0, 1), (1, 0)), ((0, 1), (-1, -1))),
}


def _apply(g, x, y):
    (a, b), (c, d) = g
    return a * x + b * y, c * x + d * y


def _geometry_map(g, tri):
    """The action of the symmetry g on a walk's geometry (`_geometry`): g maps
    the walk's box onto the mapped walk's box, corners onto corners, and two
    corners (opposite ones on a rectangle) fix a box."""
    (a, b), (c, d) = g
    # plain arithmetic and conditional expressions: min/max calls cost more
    # than the rest of an image
    if tri:
        def image(x, y, x_min, y_min, s_max):
            y_top = s_max - x_min  # corners SW (x_min, y_min), North (x_min, y_top)
            x1, y1 = a * x_min + b * y_min, c * x_min + d * y_min
            x2, y2 = a * x_min + b * y_top, c * x_min + d * y_top
            s1, s2 = x1 + y1, x2 + y2
            return (a * x + b * y, c * x + d * y,
                    x1 if x1 < x2 else x2, y1 if y1 < y2 else y2, s1 if s1 > s2 else s2)
    else:
        def image(x, y, x_min, x_max, y_min, y_max):
            x1, y1 = a * x_min + b * y_min, c * x_min + d * y_min
            x2, y2 = a * x_max + b * y_max, c * x_max + d * y_max
            if x1 > x2:
                x1, x2 = x2, x1
            if y1 > y2:
                y1, y2 = y2, y1
            return a * x + b * y, c * x + d * y, x1, x2, y1, y2
    return image


def _orbits(walk_class):
    """The orbits of the first step under the class's symmetry group, each
    in step-code order, and per orbit and member the geometry map of a group
    element that takes the orbit's first step to the member.  Each generator
    must permute the step vectors, so that the group does too."""
    tri = walk_class is WalkClass.TRIANGULAR
    vectors = TRI_STEP_VECTORS if tri else SQ_STEP_VECTORS
    generators = SYMMETRY_GENERATORS[walk_class]
    for g in generators:
        if sorted(_apply(g, *v) for v in vectors) != sorted(vectors):
            raise ValueError(
                "symmetry %r of %s walks does not permute the steps" % (g, walk_class.value)
            )
    orbits, maps = [], []
    for d, v in enumerate(vectors):
        if any(d in orbit for orbit in orbits):
            continue
        reached = [(d, ((1, 0), (0, 1)))]  # grows while read: breadth first
        for _, h in reached:
            for g in generators:
                # g after h: the matrix whose columns are g of the columns of h
                gh = tuple(zip(*(_apply(g, *col) for col in zip(*h))))
                e = vectors.index(_apply(gh, *v))
                if all(e != member for member, _ in reached):
                    reached.append((e, gh))
        reached.sort()
        orbits.append(tuple(e for e, _ in reached))
        maps.append(tuple(_geometry_map(g, tri) for _, g in reached))
    return tuple(orbits), tuple(maps)


# derived once, at import
FIRST_STEP_ORBITS, GEOMETRY_MAPS = {}, {}
for _wc in WalkClass:
    FIRST_STEP_ORBITS[_wc], GEOMETRY_MAPS[_wc] = _orbits(_wc)


def _orbit_starts(walk_class, state):
    """For each first-step orbit whose first step is legal, pushes that step
    and yields the orbit's geometry maps, one per member; pops it after."""
    for orbit, maps in zip(FIRST_STEP_ORBITS[walk_class], GEOMETRY_MAPS[walk_class]):
        if state.legal(orbit[0]):
            state.push(orbit[0])
            yield maps
            state.pop()


def _geometry(state):
    """The walk's endpoint and box."""
    if state.lattice == "tri":
        return state.x, state.y, state.x_min, state.y_min, state.s_max
    return state.x, state.y, state.x_min, state.x_max, state.y_min, state.y_max


def _grown(geo, d):
    """The geometry after the step d from its endpoint."""
    if len(geo) == 5:  # triangular
        dx, dy = TRI_STEP_VECTORS[d]
        x, y = geo[0] + dx, geo[1] + dy
        return x, y, min(geo[2], x), min(geo[3], y), max(geo[4], x + y)
    dx, dy = SQ_STEP_VECTORS[d]
    x, y = geo[0] + dx, geo[1] + dy
    return x, y, min(geo[2], x), max(geo[3], x), min(geo[4], y), max(geo[5], y)


def _orbit_geometry(walk_class, state, search):
    """Counter of the geometries of the walks search finds, over every first
    step.  search(state) runs once per first-step orbit, with the orbit's
    first step pushed, and returns a Counter of geometries; each is counted
    once per orbit member, through the member's map in GEOMETRY_MAPS."""
    out = Counter()
    for maps in _orbit_starts(walk_class, state):
        for geo, count in search(state).items():
            for image in maps:
                out[image(*geo)] += count
    return out


def enumerate_counts(walk_class, n_max):
    """Number of walks of each length 0..n_max in the class (exact, by DFS).

    The search runs once per first-step orbit (FIRST_STEP_ORBITS), from the
    orbit's first step, and counts each walk it finds once per orbit member.
    It visits the walks of length <= n_max - 2 only: the last two generations
    are counted from each such walk's lookahead, its legal steps and the
    steps legal after each.  At n_max = 2 the length-2 walks are counted as
    the legal steps of their length-1 parents.
    """
    _check_length(n_max)
    tail = [0] * n_max  # tail[i] counts the walks of length i + 1
    last = n_max - 3  # depth of the length n_max - 2 walks

    def visit(state, depth):
        tail[depth] += weight
        if depth < last:
            return True
        if depth == last:
            ahead = state.lookahead()
            grandchildren = 0
            for _, steps in ahead:
                grandchildren += len(steps)
            tail[depth + 1] += weight * len(ahead)
            tail[depth + 2] += weight * grandchildren
        elif n_max == 2:
            tail[1] += weight * len(state.legal_steps())
        return False

    if n_max:
        state = _make_state(walk_class)
        for maps in _orbit_starts(walk_class, state):
            weight = len(maps)
            _dfs(state, visit)
    return [1] + tail


def enumerate_walks(walk_class, n):
    """All length-n walks of the class (exhaustive; for small n)."""
    _check_length(n)
    make = TriWalk if walk_class is WalkClass.TRIANGULAR else SquareWalk
    code = {v: d for d, v in enumerate(make._vectors)}
    out = []

    def visit(state, depth):
        if depth < n:
            return True
        # the trail holds the vertices before each step, the state the last one
        pts = [entry[:2] for entry in state.trail] + [(state.x, state.y)]
        out.append(make(tuple(code[(b[0] - a[0], b[1] - a[1])] for a, b in zip(pts, pts[1:]))))
        return False

    _dfs(_make_state(walk_class), visit)
    return out


def enumerate_tri_by_box(k):
    """Triangular prudent walks spanning a box of size exactly k.

    Returns (total, r) where r maps (i, j), i+j = k, to the number of
    spanning walks ending on the right edge at distance i from the North
    corner and j from the SE corner.  Walks of every length are counted;
    the search is confined to boxes of size <= k, hence finite, and runs once
    per first-step orbit (_orbit_geometry).
    """
    state = TriState()
    state._max_size = k

    def search(state):
        found = Counter()

        def visit(state, depth):
            if state.s_max - state.x_min - state.y_min == k:
                found[state.x, state.y, state.x_min, state.y_min, state.s_max] += 1
            return True

        _dfs(state, visit)
        return found

    # only the empty walk spans the box of size 0
    found = (
        _orbit_geometry(WalkClass.TRIANGULAR, state, search) if k else Counter([_geometry(state)])
    )
    r = Counter()
    for (x, y, x_min, y_min, s_max), count in found.items():
        if x + y == s_max:  # right edge
            r[x - x_min, k - x + x_min] += count
    return sum(found.values()), dict(r)


def endpoint_stats(walk_class, n):
    """Exact distributions of endpoint/box statistics over length-n walks.

    Square classes: 'sum' (X+Y), 'diff' (X-Y), 'ne_dist' (distance from the
    endpoint to the NE box corner), 'width'.  Triangular: 'box_size'.

    The search runs once per first-step orbit (_orbit_geometry) and stops at
    length n - 2: each walk there is counted with its lookahead, and the
    geometry of its children and grandchildren follows from its own and the
    steps.  At n = 2 the first step's walk is grown by its legal steps.
    """
    _check_length(n)
    tri = walk_class is WalkClass.TRIANGULAR
    state = _make_state(walk_class)
    last = n - 3  # depth of the length n - 2 walks

    def search(state):
        if n <= 2:
            geo = _geometry(state)
            return Counter([geo] if n == 1 else [_grown(geo, d) for d in state.legal_steps()])
        parents = Counter()

        def visit(state, depth):
            if depth < last:
                return True
            parents[_geometry(state), tuple(state.lookahead())] += 1
            return False

        _dfs(state, visit)
        found = Counter()
        for (geo, ahead), count in parents.items():
            for d, steps in ahead:
                child = _grown(geo, d)
                for e in steps:
                    found[_grown(child, e)] += count
        return found

    found = _orbit_geometry(walk_class, state, search) if n else Counter([_geometry(state)])
    if tri:
        box_size = Counter()
        for (x, y, x_min, y_min, s_max), count in found.items():
            box_size[s_max - x_min - y_min] += count
        return {"box_size": box_size}
    stats = {key: Counter() for key in ("sum", "diff", "ne_dist", "width")}
    for (x, y, x_min, x_max, y_min, y_max), count in found.items():
        stats["sum"][x + y] += count
        stats["diff"][x - y] += count
        stats["ne_dist"][(x_max - x) + (y_max - y)] += count
        stats["width"][x_max - x_min] += count
    return stats
