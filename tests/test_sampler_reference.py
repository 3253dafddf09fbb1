"""The extension table and the sampler against plain reference loops.

ExtTable builds its slabs from index columns and UniformSampler bisects
cumulative weights from cached child records; the references below are the
direct forms: the labels of each slab read off the refined P-tree rather
than the table's breadth-first pass over l_children, one l_children call
per (label, remaining length) entry, and a linear scan over Ex(child, m-1)
at every step.  Both must give the same slabs and the same draws for the
same seed.
"""

import random
import time
from fractions import Fraction

import pytest

from prudentwalks.cli import main
from prudentwalks.labels import RULES
from prudentwalks.sampler import (
    ExtTable,
    UniformSampler,
    estimate_entries,
    exact_distribution,
)
from prudentwalks.walks import SquareWalk, TriWalk, WalkClass


def _slab_labels(walk_class, d):
    """Superset of the L-labels reachable in d steps (distance sums <= d):
    the labels `estimate_entries` counts for the remaining length n-d."""
    if walk_class is WalkClass.ONE_SIDED:
        yield (0,)
        yield (1,)
        return
    if walk_class is WalkClass.TWO_SIDED:
        for ty in range(3):
            for i in range(d + 1):
                yield (ty, i)
        return
    if walk_class is WalkClass.THREE_SIDED:
        for i in range(d + 1):
            for j in range(i, d + 1 - i):
                yield (0, i, j)  # I_v, unordered i <= j
        for ty in range(1, 5):
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    yield (ty, i, j)
        return
    if walk_class is WalkClass.PRUDENT4:
        for h in range(d + 1):
            for i in range(d + 1 - h):
                for j in range(i, d + 1 - h - i):
                    yield (0, i, j, h)
        for h in range(d + 1):
            for i in range(d + 1 - h):
                for j in range(d + 1 - h - i):
                    yield (1, i, j, h)
        return
    # triangular: every reachable label has second distance >= 1
    for ty in range(2):
        for i in range(d):
            for j in range(1, d + 1 - i):
                yield (ty, i, j)


def p_tree_depths(walk_class, d):
    """{L-label: fewest steps in which a walk reaches it}, over 1..d steps,
    read off the refined P-tree (p_children/l_of_p from the root)."""
    rules = RULES[walk_class]
    level = set(rules.root) if d > 0 else set()
    seen = set(level)
    depths = {}
    for k in range(1, d + 1):
        for p in level:
            depths.setdefault(rules.l_of_p(p), k)
        level = {c for p in level for c in rules.p_children(p)} - seen
        seen |= level
    return depths


def reference_slabs(walk_class, n):
    l_children = RULES[walk_class].l_children
    depths = p_tree_depths(walk_class, n - 1)
    slabs = [None] * (n + 1)
    prev = None
    for m in range(1, n + 1):
        slab = {}
        for label, d in depths.items():
            if d <= n - m:
                kids = l_children(label)
                slab[label] = len(kids) if prev is None else sum(prev[c] for c in kids)
        slabs[m] = slab
        prev = slab
    return slabs


def reference_sample(walk_class, table, rng):
    rules = RULES[walk_class]
    make = TriWalk if walk_class is WalkClass.TRIANGULAR else SquareWalk
    steps = []
    kids = rules.root
    for m in range(table.n, 0, -1):
        weights = [table.ex(rules.l_of_p(p), m - 1) for p in kids]
        r = rng.randrange(sum(weights))
        idx = 0
        acc = weights[0]
        while r >= acc:
            idx += 1
            acc += weights[idx]
        steps.append(rules.step_of(kids[idx]))
        kids = rules.p_children(kids[idx])
    return make(tuple(steps))


def reference_distribution(walk_class, n):
    rules = RULES[walk_class]
    table = ExtTable(walk_class, n)
    make = TriWalk if walk_class is WalkClass.TRIANGULAR else SquareWalk
    out = {}

    def rec(kids, m, steps, prob):
        weights = [table.ex(rules.l_of_p(p), m - 1) for p in kids]
        total = sum(weights)
        for p, w in zip(kids, weights):
            sub = steps + (rules.step_of(p),)
            if m == 1:
                out[make(sub)] = prob * Fraction(w, total)
            elif w:
                rec(rules.p_children(p), m - 1, sub, prob * Fraction(w, total))

    rec(rules.root, n, (), Fraction(1))
    return out


@pytest.mark.parametrize("walk_class", list(WalkClass), ids=lambda wc: wc.value)
def test_slabs_match_reference_recursion(walk_class):
    for n in (*range(13), 20, 40):
        assert ExtTable(walk_class, n).slabs == reference_slabs(walk_class, n)


def test_three_sided_slabs_match_reference_at_60():
    wc = WalkClass.THREE_SIDED
    assert ExtTable(wc, 60).slabs == reference_slabs(wc, 60)


def test_slabs_share_key_tuples():
    table = ExtTable(WalkClass.TWO_SIDED, 20)
    keys = {id(label) for slab in table.slabs[1:] for label in slab}
    assert len(keys) == len(table.slabs[1])


@pytest.mark.parametrize("walk_class", list(WalkClass), ids=lambda wc: wc.value)
def test_slabs_share_equal_values(walk_class):
    table = ExtTable(walk_class, 40)
    for vals in table.values[1:]:
        assert len(set(map(id, vals))) == len(set(vals))


@pytest.mark.parametrize("walk_class", list(WalkClass), ids=lambda wc: wc.value)
def test_estimate_entries_is_exact(walk_class):
    # exact for the distance-sum superset, an upper bound on the table built
    for n in range(16):
        table = ExtTable(walk_class, n)
        estimate = estimate_entries(walk_class, n)
        assert estimate == sum(len(list(_slab_labels(walk_class, n - m))) for m in range(1, n + 1))
        assert estimate >= sum(len(s) for s in table.slabs[1:])
        for m in range(1, n + 1):
            assert set(table.slabs[m]) <= set(_slab_labels(walk_class, n - m))


@pytest.mark.parametrize("walk_class", ["3-sided", "4-sided"])
def test_huge_sample_refused_fast(capsys, walk_class):
    start = time.perf_counter()
    code = main(["sample", "--class", walk_class, "--length", "100000"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert "entries" in err
    assert elapsed < 1.0


@pytest.mark.parametrize("extra", [("--length", "120"), ("--length", "1000000", "--kinetic")])
def test_svg_without_out_refused_fast(capsys, extra):
    start = time.perf_counter()
    code = main(["sample", "--class", "4-sided", *extra, "--count", "2", "--format", "svg"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--out" in err and "Traceback" not in err
    assert elapsed < 1.0


@pytest.mark.parametrize("walk_class", list(WalkClass), ids=lambda wc: wc.value)
def test_draws_match_reference_linear_scan(walk_class):
    for n in (1, 2, 7, 40):
        table = ExtTable(walk_class, n)
        sampler = UniformSampler(walk_class, n, table=table)
        for seed in (11, 2024):
            rng_a, rng_b = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert sampler.sample(rng_a) == reference_sample(walk_class, table, rng_b)
            assert rng_a.getstate() == rng_b.getstate()


@pytest.mark.parametrize("walk_class", list(WalkClass), ids=lambda wc: wc.value)
def test_exact_distribution_matches_reference(walk_class):
    for n in (1, 3, 5):
        assert exact_distribution(walk_class, n) == reference_distribution(walk_class, n)


def test_public_constructors_still_validate():
    for bad in ((4,), "X"):
        with pytest.raises(ValueError):
            SquareWalk(bad)
    for bad in ((6,), "X"):
        with pytest.raises(ValueError):
            TriWalk(bad)
    assert SquareWalk.from_codes((0, 1, 3)) == SquareWalk("NEW")
    assert TriWalk.from_codes((5, 0, 2)) == TriWalk("502")
