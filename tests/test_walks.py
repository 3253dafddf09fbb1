from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from prudentwalks.sampler import UniformSampler, kinetic_sample
from prudentwalks.walks import (
    FIRST_STEP_ORBITS,
    GEOMETRY_MAPS,
    SQ_STEP_VECTORS,
    SQUARE_CLASSES,
    TRI_STEP_VECTORS,
    SquareState,
    SquareWalk,
    TriWalk,
    WalkClass,
    endpoint_stats,
    enumerate_counts,
    enumerate_tri_by_box,
    enumerate_walks,
    in_class,
    is_prudent,
    walk_from_json,
    square_bounds,
    tri_bounds,
)
from prudentwalks import verify, walks

# exhaustive reference counts, themselves frozen from this oracle and
# cross-checked against the series routes in test_acceptance
COUNTS = {
    WalkClass.ONE_SIDED: [1, 3, 7, 17, 41, 99, 239, 577, 1393],
    WalkClass.TWO_SIDED: [1, 4, 10, 26, 66, 168, 426, 1078, 2722],
    WalkClass.THREE_SIDED: [1, 4, 12, 34, 90, 236, 612, 1580, 4060],
    WalkClass.PRUDENT4: [1, 4, 12, 36, 100, 276, 748, 2012, 5356],
    WalkClass.TRIANGULAR: [1, 6, 30, 132, 552, 2244, 8928],
}


def test_prudence_examples():
    assert is_prudent(SquareWalk("NES"))
    assert not is_prudent(SquareWalk("NESW"))  # W points back at the origin
    assert is_prudent(SquareWalk(""))


def test_k_sided_examples():
    assert not in_class(SquareWalk("ESW"), WalkClass.THREE_SIDED)  # the footnote walk
    assert in_class(SquareWalk("EN"), WalkClass.ONE_SIDED)
    assert in_class(SquareWalk("S"), WalkClass.TWO_SIDED)  # degenerate box: right edge
    assert not in_class(SquareWalk("S"), WalkClass.ONE_SIDED)


def test_one_sided_equals_partially_directed():
    # 1-sided = self-avoiding over {N, E, W}
    for n in range(7):
        got = {w.to_text() for w in enumerate_walks(WalkClass.ONE_SIDED, n)}
        for text in got:
            assert "S" not in text
        assert len(got) == COUNTS[WalkClass.ONE_SIDED][n]


@pytest.mark.parametrize("wc", list(COUNTS))
def test_enumeration_counts(wc):
    n = len(COUNTS[wc]) - 1
    assert enumerate_counts(wc, n) == COUNTS[wc]


def test_class_inclusion_chain():
    # 1-sided subset 2-sided subset 3-sided subset prudent, on every walk
    for w in enumerate_walks(WalkClass.PRUDENT4, 6):
        flags = [in_class(w, wc) for wc in SQUARE_CLASSES[:3]] + [is_prudent(w)]
        for a, b in zip(flags, flags[1:]):
            assert (not a) or b


def test_every_length2_saw_is_prudent():
    assert enumerate_counts(WalkClass.PRUDENT4, 2)[2] == 12


def test_endpoint_on_box_border():
    for wc in SQUARE_CLASSES:
        for w in enumerate_walks(wc, 5):
            vs = w.vertices()
            (x, y), (x_min, x_max, y_min, y_max) = vs[-1], square_bounds(vs)
            assert x in (x_min, x_max) or y in (y_min, y_max)
    for w in enumerate_walks(WalkClass.TRIANGULAR, 4):
        vs = w.vertices()
        (x, y), (x_min, y_min, s_max) = vs[-1], tri_bounds(vs)
        assert x == x_min or y == y_min or x + y == s_max


def test_triangular_single_steps():
    for s in range(6):
        w = TriWalk((s,))
        assert in_class(w, WalkClass.TRIANGULAR)
        x_min, y_min, s_max = tri_bounds(w.vertices())
        assert s_max - x_min - y_min == 1


def test_triangular_box_spanning_small():
    assert enumerate_tri_by_box(0) == (1, {(0, 0): 1})
    total, r = enumerate_tri_by_box(1)
    assert total == 12
    assert r == {(0, 1): 4, (1, 0): 4}
    total, r = enumerate_tri_by_box(2)
    assert total == 144
    assert r[(1, 1)] == 16 and r[(0, 2)] == 32


def test_triangular_rotation_symmetry():
    # counts are invariant under the 120-degree rotation (x,y) -> (-x-y, x),
    # which maps step code s to s - 2 (mod 6)
    for n in range(1, 6):
        walks = {w.to_text() for w in enumerate_walks(WalkClass.TRIANGULAR, n)}
        rotated = {
            "".join(str((int(c) - 2) % 6) for c in text) for text in walks
        }
        assert walks == rotated


def test_two_sided_diagonal_reflection():
    # reflection in the diagonal maps N<->E and S<->W and preserves the class
    swap = {"N": "E", "E": "N", "S": "W", "W": "S"}
    for n in range(1, 7):
        walks = {w.to_text() for w in enumerate_walks(WalkClass.TWO_SIDED, n)}
        mirrored = {"".join(swap[c] for c in text) for text in walks}
        assert walks == mirrored


def test_inclusion_exclusion_against_box_formula():
    # consistency of the oracle with P(t;u) = 1 + 3R(u,u) - 3R(u,0): per box
    # size k >= 1, total = 3*(right-edge enders) - 3*(one corner's enders)
    for k in range(1, 4):
        total, r = enumerate_tri_by_box(k)
        right = sum(r.values())
        assert total == 3 * (right - r[(k, 0)])
        assert r[(0, k)] == r[(k, 0)]  # edge symmetry


def exact_mean(counter):
    return Fraction(sum(v * c for v, c in counter.items()), sum(counter.values()))


def test_endpoint_stats_examples():
    st = endpoint_stats(WalkClass.TWO_SIDED, 1)
    assert dict(st["sum"]) == {1: 2, -1: 2}
    assert exact_mean(st["diff"]) == 0  # diagonal symmetry
    st3 = endpoint_stats(WalkClass.TWO_SIDED, 3)
    assert exact_mean(st3["sum"]) == Fraction(11, 13)
    assert sum(st3["sum"].values()) == 26


def test_walk_text_and_json():
    w = SquareWalk("NESW")
    assert SquareWalk.from_text(w.to_text()) == w
    assert walk_from_json(w.to_json()) == w
    t = TriWalk("0123450")
    assert TriWalk.from_text(t.to_text()) == t
    assert walk_from_json(t.to_json()) == t
    assert SquareWalk((0, 1)) != TriWalk((0, 1))  # same codes, different lattices


@pytest.mark.parametrize("make", [SquareWalk, TriWalk])
def test_walks_have_slots_and_value_equality(make):
    # a sampler holds many walks at once: they carry no per-instance dict
    w = make((0, 1, 1))
    assert not hasattr(w, "__dict__")
    with pytest.raises(AttributeError):
        w.extra = 1
    text = "011" if make is TriWalk else "NEE"
    for twin in (make(text), make.from_text(text), make.from_codes((0, 1, 1))):
        assert twin == w
        assert hash(twin) == hash(w) == hash((make.lattice, (0, 1, 1)))
    assert w != make((0, 1))
    assert len({w, make((0, 1, 1)), make((1, 1, 0))}) == 2


@pytest.mark.parametrize("make", [SquareWalk, TriWalk])
@pytest.mark.parametrize("step", [True, False, 1.0, 2.0])
def test_steps_neither_str_nor_int_raise(make, step):
    # True == 1 == 1.0 would look up the code 1
    with pytest.raises(ValueError, match="bad step"):
        make((step,))
    assert make((1,)).steps == (1,)


def test_boxes():
    assert square_bounds(SquareWalk("NES").vertices()) == (0, 1, 0, 1)
    assert tri_bounds(TriWalk("2").vertices()) == (0, 0, 1)  # E


def test_in_class_dispatch():
    assert in_class(SquareWalk("EN"), WalkClass.ONE_SIDED)
    assert in_class(TriWalk("21"), WalkClass.TRIANGULAR)


# generators of each class's symmetry group, as step-code permutations
SYMMETRIES = {
    WalkClass.ONE_SIDED: [(0, 3, 2, 1)],  # x -> -x
    WalkClass.TWO_SIDED: [(1, 0, 3, 2)],  # reflection in x = y
    WalkClass.THREE_SIDED: [(0, 3, 2, 1)],
    WalkClass.PRUDENT4: [(1, 2, 3, 0)],  # 90-degree rotation
    WalkClass.TRIANGULAR: [(3, 2, 1, 0, 5, 4), (2, 3, 4, 5, 0, 1)],  # x <-> y, 120 degrees
}


def _unreduced_dfs(state, visit):
    # every first step, every walk pushed and visited: shares neither the
    # orbits nor the lookahead with the oracle's searches.  Square states try
    # legal(d) for every d, so they share no step sets either; a TriState's
    # legal(d) is `d in legal_steps()`, so its steps are read once per node
    # from legal_steps(), which refuses the same steps
    tri = state.lattice == "tri"

    def rec(depth):
        if visit(state, depth):
            for d in state.legal_steps() if tri else [d for d in range(4) if state.legal(d)]:
                state.push(d)
                rec(depth + 1)
                state.pop()

    rec(0)


def _unreduced_counts(wc, n_max):
    counts = [0] * (n_max + 1)

    def visit(state, depth):
        counts[depth] += 1
        return depth < n_max

    _unreduced_dfs(walks._make_state(wc), visit)
    return counts


def _unreduced_endpoint_stats(wc, n):
    tri = wc is WalkClass.TRIANGULAR
    keys = ("box_size",) if tri else ("sum", "diff", "ne_dist", "width")
    stats = {key: Counter() for key in keys}

    def visit(state, depth):
        if depth < n:
            return True
        if tri:
            stats["box_size"][state.s_max - state.x_min - state.y_min] += 1
        else:
            x, y = state.x, state.y
            stats["sum"][x + y] += 1
            stats["diff"][x - y] += 1
            stats["ne_dist"][(state.x_max - x) + (state.y_max - y)] += 1
            stats["width"][state.x_max - state.x_min] += 1
        return False

    _unreduced_dfs(walks._make_state(wc), visit)
    return stats


def _unreduced_tri_by_box(k):
    # no size cap in the state: walks whose box grew past k are refused here
    total, r = 0, Counter()

    def visit(state, depth):
        nonlocal total
        size = state.s_max - state.x_min - state.y_min
        if size == k:
            total += 1
            if state.x + state.y == state.s_max:
                i = state.x - state.x_min
                r[(i, k - i)] += 1
        return size <= k

    _unreduced_dfs(walks.TriState(), visit)
    return total, dict(r)


@pytest.mark.parametrize("wc", list(WalkClass))
def test_endpoint_stats_match_unreduced_dfs(wc):
    for n in range(7 if wc is WalkClass.TRIANGULAR else 9):
        got = {key: dict(c) for key, c in endpoint_stats(wc, n).items()}
        expected = {key: dict(c) for key, c in _unreduced_endpoint_stats(wc, n).items()}
        assert got == expected
        assert all(count > 0 for c in got.values() for count in c.values())


def test_tri_by_box_matches_unreduced_dfs():
    for k in range(6):
        assert enumerate_tri_by_box(k) == _unreduced_tri_by_box(k)


def _walk_geometry(walk):
    vs = walk.vertices()
    bounds = tri_bounds(vs) if walk.lattice == "tri" else square_bounds(vs)
    return vs[-1] + bounds


@pytest.mark.parametrize("wc", list(WalkClass))
def test_geometry_maps_act_like_the_symmetries(wc):
    # the group the SYMMETRIES generators span, as step permutations
    group = {tuple(range(len(SYMMETRIES[wc][0])))}
    while True:
        grown = group | {tuple(g[s] for s in h) for g in SYMMETRIES[wc] for h in group}
        if grown == group:
            break
        group = grown
    # the group maps the class onto itself, so every image is a key here
    geometry = {w.steps: _walk_geometry(w) for n in range(7) for w in enumerate_walks(wc, n)}
    for orbit, maps in zip(FIRST_STEP_ORBITS[wc], GEOMETRY_MAPS[wc]):
        assert len(maps) == len(orbit)
        for d, image in zip(orbit, maps):
            assert any(
                all(
                    image(*geo) == geometry[tuple(g[s] for s in steps)]
                    for steps, geo in geometry.items()
                )
                for g in group
                if g[orbit[0]] == d
            )


@pytest.mark.parametrize("wc", list(WalkClass))
def test_orbit_reduced_counts_match_unreduced_dfs(wc):
    n_max = 6 if wc is WalkClass.TRIANGULAR else 8
    expected = _unreduced_counts(wc, n_max)
    assert expected[: len(COUNTS[wc])] == COUNTS[wc][: n_max + 1]
    for n in range(n_max + 1):
        assert enumerate_counts(wc, n) == expected[: n + 1]
        assert len(enumerate_walks(wc, n)) == expected[n]


@pytest.mark.parametrize("wc", list(WalkClass))
def test_searches_push_no_walk_longer_than_n_minus_2(monkeypatch, wc):
    # the last two generations are read off the lookahead, never pushed
    lengths = []
    for cls in (SquareState, walks.TriState):
        def push(self, d, _push=cls.push):
            _push(self, d)
            lengths.append(len(self.trail))

        monkeypatch.setattr(cls, "push", push)
    for n in range(3, 8 if wc is WalkClass.TRIANGULAR else 10):
        for search in (enumerate_counts, endpoint_stats):
            lengths.clear()
            search(wc, n)
            assert max(lengths) == n - 2


@pytest.mark.parametrize("wc", list(WalkClass))
def test_first_step_orbits_are_symmetry_orbits(wc):
    ndirs = 6 if wc is WalkClass.TRIANGULAR else 4
    # every generator maps the class onto itself
    for n in range(1, 6 if wc is WalkClass.TRIANGULAR else 8):
        ws = {w.steps for w in enumerate_walks(wc, n)}
        for g in SYMMETRIES[wc]:
            assert {tuple(g[s] for s in steps) for steps in ws} == ws
    # the table lists each orbit of the group on the steps once
    orbits = set()
    for d in range(ndirs):
        orbit = {d}
        while True:
            grown = orbit | {g[s] for g in SYMMETRIES[wc] for s in orbit}
            if grown == orbit:
                break
            orbit = grown
        orbits.add(frozenset(orbit))
    table = FIRST_STEP_ORBITS[wc]
    assert sorted(map(sorted, orbits)) == sorted(map(sorted, table))


@pytest.mark.parametrize("g", [((1, 1), (0, 0)), ((2, 0), (0, 1))])
def test_symmetry_generator_that_does_not_permute_the_steps_raises(monkeypatch, g):
    # ((1, 1), (0, 0)) sends every step to a step, but not one to one
    monkeypatch.setitem(walks.SYMMETRY_GENERATORS, WalkClass.TWO_SIDED, (g,))
    with pytest.raises(ValueError):
        walks._orbits(WalkClass.TWO_SIDED)


def test_lattice_mismatch_raises():
    square, tri = SquareWalk("NNN"), TriWalk("555")
    with pytest.raises(ValueError):
        in_class(square, WalkClass.TRIANGULAR)
    for wc in SQUARE_CLASSES:
        with pytest.raises(ValueError):
            in_class(tri, wc)
    with pytest.raises(ValueError):
        is_prudent(tri)


@pytest.mark.parametrize("wc", list(WalkClass))
def test_negative_length_raises(wc):
    for search in (enumerate_counts, enumerate_walks, endpoint_stats):
        with pytest.raises(ValueError):
            search(wc, -1)
    assert enumerate_counts(wc, 0) == [1]


class ReferenceSquareState:
    """Reference square state: a visited set, and prudence checked by scanning
    the forward ray to the box edge one vertex at a time."""

    def __init__(self, k=None):
        self.k = k
        self.x = self.y = 0
        self.visited = {(0, 0)}
        self.x_min = self.x_max = self.y_min = self.y_max = 0
        self.trail = []

    def legal(self, d):
        x, y = self.x, self.y
        dx, dy = SQ_STEP_VECTORS[d]
        visited = self.visited
        if dx:
            bound = self.x_max if dx > 0 else self.x_min
            for xx in range(x + dx, bound + dx, dx):
                if (xx, y) in visited:
                    return False
        else:
            bound = self.y_max if dy > 0 else self.y_min
            for yy in range(y + dy, bound + dy, dy):
                if (x, yy) in visited:
                    return False
        k = self.k
        if k is None:
            return True
        top, right, left = 2 * self.y_max, 2 * self.x_max, 2 * self.x_min
        px, py = 2 * x, 2 * y
        for _ in (0, 1):
            px += dx
            py += dy
            if not (py >= top or (k >= 2 and px >= right) or (k >= 3 and px <= left)):
                return False
        return True

    def push(self, d):
        dx, dy = SQ_STEP_VECTORS[d]
        self.trail.append((self.x, self.y, self.x_min, self.x_max, self.y_min, self.y_max))
        self.x += dx
        self.y += dy
        self.x_min, self.x_max = min(self.x_min, self.x), max(self.x_max, self.x)
        self.y_min, self.y_max = min(self.y_min, self.y), max(self.y_max, self.y)
        self.visited.add((self.x, self.y))

    def pop(self):
        self.visited.discard((self.x, self.y))
        (self.x, self.y, self.x_min, self.x_max, self.y_min, self.y_max) = self.trail.pop()


def _box_and_position(state):
    return (state.x, state.y, state.x_min, state.x_max, state.y_min, state.y_max)


def _reference_lookahead(ref, steps, ndirs):
    # the legal steps after pushing each step, read off the pushed reference
    out = []
    for d in steps:
        ref.push(d)
        out.append((d, tuple(e for e in range(ndirs) if ref.legal(e))))
        ref.pop()
    return out


@pytest.mark.parametrize("k", [1, 2, 3, None])
def test_square_state_matches_reference_dfs(k):
    # every legal answer and lookahead at every node of the full search, in
    # lockstep; the lookahead leaves the state as it found it
    state, ref = SquareState(k), ReferenceSquareState(k)
    nodes = 0

    def rec(depth):
        nonlocal nodes
        nodes += 1
        answers = [ref.legal(d) for d in range(4)]
        assert [state.legal(d) for d in range(4)] == answers
        assert state.legal_steps() == tuple(d for d in range(4) if answers[d])
        assert _box_and_position(state) == _box_and_position(ref)
        before = (dict(state.row), dict(state.col), _box_and_position(state), list(state.trail))
        ahead = state.lookahead()
        assert (dict(state.row), dict(state.col), _box_and_position(state), list(state.trail)) == before
        assert ahead == _reference_lookahead(ref, [d for d in range(4) if answers[d]], 4)
        if depth == 10:
            return
        for d in range(4):
            if answers[d]:
                state.push(d)
                ref.push(d)
                rec(depth + 1)
                state.pop()
                ref.pop()

    rec(0)
    wc = WalkClass.PRUDENT4 if k is None else SQUARE_CLASSES[k - 1]
    assert nodes == sum(enumerate_counts(wc, 10))
    assert state.row == {0: (0, 0)} and state.col == {0: (0, 0)}
    assert _box_and_position(state) == (0, 0, 0, 0, 0, 0) and state.trail == []


def test_prudent_steps_match_reference_on_kinetic_walks():
    for seed in range(100):
        state, ref = SquareState(), ReferenceSquareState()
        for d in kinetic_sample(2000, seed).steps:
            assert state.legal_steps() == tuple(e for e in range(4) if ref.legal(e))
            state.push(d)
            ref.push(d)
        assert state.legal_steps() == tuple(e for e in range(4) if ref.legal(e))


def _tri_state_snapshot(state):
    return (
        state.x, state.y, state.x_min, state.y_min, state.s_max,
        state.left, state.bottom, state.right, list(state.trail),
    )


@pytest.mark.parametrize("cap", [None, 3, 4])
def test_tri_state_legal_steps_match_legal(cap):
    # at every node of the full search to n = 8 (cap None), or of the whole
    # box-capped search enumerate_tri_by_box(cap) makes; the lookahead is
    # checked against legal(e) after push(d), and leaves the state as it was
    state = walks.TriState()
    if cap is not None:
        state._max_size = cap
    nodes = 0

    def rec(depth):
        nonlocal nodes
        nodes += 1
        steps = [d for d in range(6) if state.legal(d)]
        assert state.legal_steps() == tuple(steps)
        before = _tri_state_snapshot(state)
        ahead = state.lookahead()
        assert _tri_state_snapshot(state) == before
        assert ahead == _reference_lookahead(state, steps, 6)
        if depth == 8 and cap is None:
            return
        for d in steps:
            state.push(d)
            rec(depth + 1)
            state.pop()

    rec(0)
    if cap is None:
        assert nodes == sum(enumerate_counts(WalkClass.TRIANGULAR, 8))
    else:
        boxes = [enumerate_tri_by_box(k)[0] for k in range(cap + 1)]
        assert nodes == sum(boxes)
    assert (state.left, state.bottom, state.right) == ((0, 0), (0, 0), (0, 0))
    assert state.trail == []


class ReferenceTriState:
    """Reference triangular state: the visited vertices in walk order, the
    box recomputed from all of them, and prudence checked by scanning the
    forward ray one vertex at a time until it leaves the box.  Steps that
    would grow the box past max_size are refused."""

    def __init__(self, max_size=float("inf")):
        self.max_size = max_size
        self.path = [(0, 0)]

    @staticmethod
    def box(points):
        return min(x for x, _ in points), min(y for _, y in points), max(x + y for x, y in points)

    def legal(self, d):
        x, y = self.path[-1]
        dx, dy = TRI_STEP_VECTORS[d]
        px, py = x + dx, y + dy
        x_min, y_min, s_max = self.box(self.path)

        def inside(px, py):
            return x_min <= px and y_min <= py and px + py <= s_max

        if not inside(px, py):  # the step grows the box by one
            return s_max - x_min - y_min + 1 <= self.max_size
        edges = [(x, px, x_min), (y, py, y_min), (x + y, px + py, s_max)]
        if not any(a == b == bound for a, b, bound in edges):
            return False
        while inside(px, py):
            if (px, py) in self.path:
                return False
            px, py = px + dx, py + dy
        return True

    def push(self, d):
        x, y = self.path[-1]
        dx, dy = TRI_STEP_VECTORS[d]
        self.path.append((x + dx, y + dy))

    def pop(self):
        self.path.pop()


def _reference_edge_extremes(path):
    # the (least, greatest) position of the visited vertices on the left
    # (position y), bottom (x) and right (x) edge of the box
    x_min, y_min, s_max = ReferenceTriState.box(path)
    edges = (
        [y for x, y in path if x == x_min],
        [x for x, y in path if y == y_min],
        [x for x, y in path if x + y == s_max],
    )
    return tuple((min(positions), max(positions)) for positions in edges)


def _check_tri_state_against_reference(state, ref):
    answers = [ref.legal(d) for d in range(6)]
    steps = [d for d in range(6) if answers[d]]
    assert [state.legal(d) for d in range(6)] == answers
    assert state.legal_steps() == tuple(steps)
    assert (state.x, state.y) == ref.path[-1]
    assert (state.x_min, state.y_min, state.s_max) == ref.box(ref.path)
    assert (state.left, state.bottom, state.right) == _reference_edge_extremes(ref.path)
    return steps


@pytest.mark.parametrize("cap", [None, 3, 4])
def test_tri_state_matches_reference_dfs(cap):
    # every legal and legal_steps answer, the box edges' extremes and the
    # membership of every walk, at every node of the full search to n = 7
    # (cap None) or of the whole search in boxes of size <= cap
    state, ref = walks.TriState(), ReferenceTriState()
    if cap is not None:
        state._max_size = ref.max_size = cap
    walk, nodes = [], 0

    def rec():
        nonlocal nodes
        nodes += 1
        assert in_class(TriWalk(tuple(walk)), WalkClass.TRIANGULAR)
        steps = _check_tri_state_against_reference(state, ref)
        if len(walk) == 7 and cap is None:
            return
        for d in steps:
            state.push(d)
            ref.push(d)
            walk.append(d)
            rec()
            state.pop()
            ref.pop()
            walk.pop()

    rec()
    if cap is None:
        assert nodes == sum(enumerate_counts(WalkClass.TRIANGULAR, 7))
    else:
        assert nodes == sum(enumerate_tri_by_box(k)[0] for k in range(cap + 1))


def test_tri_state_matches_reference_on_random_walks():
    # random step strings over the six codes, half of the steps drawn among
    # the legal ones so that walks run long, the rest from all six so that
    # most walks end with a step that is not prudent
    rng = Random(2008)
    verdicts = Counter()
    for _ in range(600):
        state, ref = walks.TriState(), ReferenceTriState()
        walk, prudent = [], True
        for _ in range(rng.randrange(1, 40)):
            steps = _check_tri_state_against_reference(state, ref)
            assert state.lookahead() == _reference_lookahead(ref, steps, 6)
            d = rng.choice(steps) if steps and rng.random() < 0.5 else rng.randrange(6)
            walk.append(d)
            if d not in steps:
                prudent = False
                break
            state.push(d)
            ref.push(d)
        assert in_class(TriWalk(tuple(walk)), WalkClass.TRIANGULAR) == prudent
        verdicts[prudent] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_tri_state_matches_reference_on_long_uniform_walks():
    # long walks, whose steps along a box edge pass many visited vertices
    sampler = UniformSampler(WalkClass.TRIANGULAR, 80)
    rng = Random(80)
    for _ in range(5):
        state, ref = walks.TriState(), ReferenceTriState()
        for d in sampler.sample(rng).steps:
            steps = _check_tri_state_against_reference(state, ref)
            assert state.lookahead() == _reference_lookahead(ref, steps, 6)
            state.push(d)
            ref.push(d)
        assert _check_tri_state_against_reference(state, ref)
        assert state.s_max - state.x_min - state.y_min >= 20


def _square_state_snapshot(state):
    return dict(state.row), dict(state.col), _box_and_position(state), list(state.trail)


def _pushed_lookahead(state):
    out = []
    for d in state.legal_steps():
        state.push(d)
        out.append((d, state.legal_steps()))
        state.pop()
    return out


def test_lookahead_matches_push_on_long_walks():
    # long walks, whose cross lines hold many visited vertices on either side
    # of the walker: at every step the lookahead equals pushing each legal
    # step, and leaves the state as it was
    rng = Random(33)
    drawn = [(SquareState(), kinetic_sample(2000, seed)) for seed in range(2)]
    for k, n in ((1, 400), (2, 400), (3, 120)):
        drawn.append((SquareState(k), UniformSampler(SQUARE_CLASSES[k - 1], n).sample(rng)))
    drawn.append((walks.TriState(), UniformSampler(WalkClass.TRIANGULAR, 150).sample(rng)))
    for state, walk in drawn:
        snapshot = _tri_state_snapshot if state.lattice == "tri" else _square_state_snapshot
        for d in walk.steps + (None,):
            before = snapshot(state)
            ahead = state.lookahead()
            assert snapshot(state) == before
            assert ahead == _pushed_lookahead(state)
            if d is not None:
                state.push(d)
        assert len(state.trail) == len(walk)


@pytest.mark.parametrize("wc", SQUARE_CLASSES[:3])
def test_k_sided_oracle_matches_funceq_at_14(wc):
    # the midpoint-only edge rule against the functional equations, whose
    # derivation follows the continuous-time definition
    expected = verify.run_iteration(wc, 14)[0]
    assert enumerate_counts(wc, 14) == expected


def _rotations(text):
    turn = {"N": "E", "E": "S", "S": "W", "W": "N"}
    out = [text]
    for _ in range(3):
        out.append("".join(turn[c] for c in out[-1]))
    return out


def _reference_prudent(walk):
    ref = ReferenceSquareState()
    for d in walk.steps:
        if not ref.legal(d):
            return False
        ref.push(d)
    return True


def test_long_ray_blockers():
    # the last step points along its row or column at a vertex 300 steps away
    texts = _rotations("E" * 300 + "N" + "W" * 600 + "S" + "E")
    texts += _rotations("N" * 300 + "E" + "S" * 600 + "W" + "N")
    assert {text[-1] for text in texts} == set("NESW")
    for text in texts:
        blocked, shorter = SquareWalk(text), SquareWalk(text[:-1])
        assert not is_prudent(blocked) and not _reference_prudent(blocked)
        assert is_prudent(shorter) and _reference_prudent(shorter)


def test_long_kinetic_walk_is_prudent():
    assert is_prudent(kinetic_sample(100_000, seed=99))
