"""Exact uniform random generation of n-step walks, plus the kinetic sampler.

The extension numbers Ex(l, m) -- the number of length-m continuations of
any walk with L-label l -- are precomputed in per-remaining-length slabs
over the compact L-labels only; the refined P-labels live in the sampling
walk state.  Each step is drawn by comparing one integer in [0, Ex(l, m))
(rejection-sampled by the seeded generator) against cumulative child sums,
so every length-n walk has probability exactly 1/p_n.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

from prudentwalks.labels import RULES
from prudentwalks.walks import (
    SQ_STEP_VECTORS,
    SquareWalk,
    TriWalk,
    WalkClass,
)

DEFAULT_MAX_ENTRIES = 20_000_000


class ResourceBudgetError(MemoryError):
    """Precomputation would exceed the extension-table entry budget."""

    def __init__(self, estimate, budget):
        super().__init__(
            "extension table needs about %d entries, budget is %d" % (estimate, budget)
        )
        self.estimate = estimate
        self.budget = budget


def _slab_labels(walk_class, d):
    """Superset of the L-labels reachable at depth d (distance sums <= d).

    Children of depth-d labels stay inside the depth-(d+1) superset, which is
    what the slab recursion needs.
    """
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


def estimate_entries(walk_class, n):
    """Number of (label, remaining-length) entries the table will hold."""
    if walk_class is WalkClass.ONE_SIDED:
        return 2 * n
    total = 0
    for d in range(1, n + 1):
        if walk_class is WalkClass.TWO_SIDED:
            total += 3 * (d + 1)
        elif walk_class is WalkClass.THREE_SIDED:
            iv = sum(1 for i in range(d + 1) for _ in range(i, d + 1 - i))
            total += iv + 4 * (d + 1) * (d + 2) // 2
        elif walk_class is WalkClass.PRUDENT4:
            asym = sum(
                (d + 1 - h) * (d + 2 - h) // 2 for h in range(d + 1)
            )
            sym = sum(
                sum(len(range(i, d + 1 - h - i)) for i in range(d + 1 - h))
                for h in range(d + 1)
            )
            total += asym + sym
        else:
            total += d * (d + 1)
    return total


class ExtTable:
    """Extension numbers Ex(label, m) for one class and target length n.

    slab[m] maps each L-label reachable at depth n-m to its extension count;
    slab 0 is the constant function 1 and is not materialized.
    """

    def __init__(self, walk_class, n, max_entries=DEFAULT_MAX_ENTRIES):
        estimate = estimate_entries(walk_class, n)
        if estimate > max_entries:
            raise ResourceBudgetError(estimate, max_entries)
        self.walk_class = walk_class
        self.n = n
        self.rules = RULES[walk_class]
        l_children = self.rules.l_children
        slabs = [None] * (n + 1)
        prev = None  # slab m-1; None encodes the all-ones slab 0
        for m in range(1, n + 1):
            slab = {}
            if prev is None:
                for label in _slab_labels(walk_class, n - m):
                    slab[label] = len(l_children(label))
            else:
                get = prev.__getitem__
                for label in _slab_labels(walk_class, n - m):
                    acc = 0
                    for child in l_children(label):
                        acc += get(child)
                    slab[label] = acc
            slabs[m] = slab
            prev = slab
        self.slabs = slabs

    def ex(self, label, m):
        if m == 0:
            return 1
        return self.slabs[m][label]

    def counts(self):
        """p_m for m = 0..n: root-children totals (p_0 = 1)."""
        l_of_p = self.rules.l_of_p
        out = [1]
        for m in range(1, self.n + 1):
            out.append(sum(self.ex(l_of_p(p), m - 1) for p in self.rules.root))
        return out

    def root_total(self):
        return self.counts()[-1]


class UniformSampler:
    """Draws length-n walks of the class uniformly at random.

    Deterministic for a fixed seed: the table layout and the child ordering
    are fixed, and each choice consumes exactly one randrange() call.
    """

    def __init__(self, walk_class, n, max_entries=DEFAULT_MAX_ENTRIES, table=None):
        self.walk_class = walk_class
        self.n = n
        self.rules = RULES[walk_class]
        self.table = table if table is not None else ExtTable(walk_class, n, max_entries)
        self._child_cache = {}
        self._make = TriWalk if walk_class is WalkClass.TRIANGULAR else SquareWalk

    def _children_of(self, plabel):
        cached = self._child_cache.get(plabel)
        if cached is None:
            cached = self.rules.p_children(plabel)
            if len(self._child_cache) < (1 << 20):
                self._child_cache[plabel] = cached
        return cached

    def sample(self, rng):
        n = self.n
        if n == 0:
            return self._make(())
        rules = self.rules
        l_of_p = rules.l_of_p
        ex = self.table.ex
        steps = []
        kids = rules.root
        m = n
        while True:
            weights = [ex(l_of_p(p), m - 1) for p in kids]
            total = sum(weights)
            r = rng.randrange(total)
            idx = 0
            acc = weights[0]
            while r >= acc:
                idx += 1
                acc += weights[idx]
            pick = kids[idx]
            steps.append(rules.step_of(pick))
            m -= 1
            if m == 0:
                return self._make(tuple(steps))
            kids = self._children_of(pick)


def children(walk_class, plabel):
    """The refined-label children multiset, in the fixed rule order."""
    return RULES[walk_class].p_children(plabel)


def uniform_sample(walk_class, n, seed, table=None):
    """One uniformly random length-n walk from a 64-bit seed."""
    sampler = UniformSampler(walk_class, n, table=table)
    return sampler.sample(random.Random(seed))


def exact_distribution(walk_class, n):
    """The sampler's induced law, as exact path probabilities per walk.

    Multiplies the exact branch probabilities Ex(child, m-1)/Ex(label, m)
    along every root-to-depth-n path of the refined tree.
    """
    rules = RULES[walk_class]
    table = ExtTable(walk_class, n)
    make = TriWalk if walk_class is WalkClass.TRIANGULAR else SquareWalk
    out = {}

    def rec(kids, m, steps, prob):
        weights = [table.ex(rules.l_of_p(p), m - 1) for p in kids]
        total = sum(weights)
        for p, w in zip(kids, weights):
            if not w:
                continue
            sub = steps + (rules.step_of(p),)
            q = prob * Fraction(w, total)
            if m == 1:
                walk = make(sub)
                if walk in out:
                    raise RuntimeError("refined tree revisits a walk")
                out[walk] = q
            else:
                rec(rules.p_children(p), m - 1, sub, q)

    if n > 0:
        rec(rules.root, n, (), Fraction(1))
    else:
        out[make(())] = Fraction(1)
    return out


# --------------------------------------------------------------------------
# kinetic sampler: grow a prudent walk by uniform choice among the legal
# prudent steps; linear time, no precomputation (a different measure).
# --------------------------------------------------------------------------

class _KineticState:
    """Prudence bookkeeping with per-row/column sorted coordinate indexes."""

    def __init__(self):
        self.x = self.y = 0
        self.rows = {0: [0]}  # y -> sorted xs
        self.cols = {0: [0]}  # x -> sorted ys

    def available(self):
        x, y = self.x, self.y
        row = self.rows.get(y, ())
        col = self.cols.get(x, ())
        out = []
        if bisect_right(col, y) >= len(col):  # N: nothing visited above in this column
            out.append(0)
        if bisect_right(row, x) >= len(row):  # E
            out.append(1)
        if bisect_left(col, y) == 0:  # S: nothing visited below
            out.append(2)
        if bisect_left(row, x) == 0:  # W
            out.append(3)
        return out

    def push(self, d):
        dx, dy = SQ_STEP_VECTORS[d]
        self.x += dx
        self.y += dy
        insort(self.rows.setdefault(self.y, []), self.x)
        insort(self.cols.setdefault(self.x, []), self.y)


def kinetic_sample(n, seed):
    """Length-n kinetic prudent walk: each step uniform over the currently
    legal prudent steps (non-uniform measure on length-n walks)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    state = _KineticState()
    steps = []
    for _ in range(n):
        avail = state.available()
        if not avail:
            raise RuntimeError("prudent walk unexpectedly stuck")
        d = avail[rng.randrange(len(avail))]
        state.push(d)
        steps.append(d)
    return SquareWalk(tuple(steps))
