"""Exact uniform random generation of n-step walks, plus the kinetic sampler.

The extension numbers Ex(l, m) -- the number of length-m continuations of
any walk with L-label l -- are precomputed in per-remaining-length slabs
over the compact L-labels only (the recursive method).  The labels are
listed once, in the breadth-first order in which walks first reach them, so
slab m -- the labels reached in <= n-m steps -- is a prefix of that list and
one plain list of values addressed by label index, each distinct value
stored once per slab; each slab is summed from the previous one through
child-index columns, and the breadth-first pass that finds the labels
produces their children, so l_children runs once per label.  The refined
P-labels live in the sampling walk state: each P-label's children, their
steps and one itemgetter over the table indices of their L-labels are
cached as one record.  Each step is drawn by bisecting the cumulative child
weights Ex(child, m-1), read from the slab by that getter in one call, at
one integer in [0, Ex(l, m)), so every length-n walk has probability
exactly 1/p_n.  That integer is drawn by the getrandbits
rejection rule of `_below`, which consumes the generator exactly as
CPython's Random.randrange does.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate, chain, islice, zip_longest
from math import comb
from operator import add, itemgetter

from prudentwalks.labels import RULES
from prudentwalks.walks import SquareState, SquareWalk, TriWalk, WalkClass, check_length

DEFAULT_MAX_ENTRIES = 20_000_000


class ResourceBudgetError(MemoryError):
    """Precomputation would exceed the extension-table entry budget."""

    def __init__(self, estimate, budget):
        super().__init__(
            "extension table needs up to about %d entries, budget is %d" % (estimate, budget)
        )
        self.estimate = estimate
        self.budget = budget


def _quarter_squares(k):
    """Sum of floor(e^2 / 4) over e = 0..k."""
    return k * (k + 2) * (2 * k - 1) // 24


def _quarter_squares_2(k):
    """Sum of _quarter_squares(e) over e = 0..k."""
    return (k * (k + 1) ** 2 * (k + 2) // 12 - (k + 1) ** 2 // 4) // 4


def estimate_entries(walk_class, n):
    """Upper bound on the (label, remaining-length) entries the table holds.

    O(1), so the budget is checked before the table is built.  A label
    reached in k steps has distance sum <= k, so slab m lies inside the
    labels of distance sum <= d = n-m, of which there are 2 (1-sided),
    3(d+1) (2-sided), floor((d+2)^2/4) + 2(d+1)(d+2) (3-sided),
    C(d+3,3) + sum_{e<=d} floor((e+2)^2/4) (4-sided) and d(d+1)
    (triangular); the sum over d = 0..n-1 is taken in closed form.
    """
    if walk_class is WalkClass.ONE_SIDED:
        return 2 * n
    if walk_class is WalkClass.TWO_SIDED:
        return 3 * n * (n + 1) // 2
    if walk_class is WalkClass.THREE_SIDED:
        return _quarter_squares(n + 1) + 2 * n * (n + 1) * (n + 2) // 3
    if walk_class is WalkClass.PRUDENT4:
        return comb(n + 3, 4) + _quarter_squares_2(n + 1)
    return (n - 1) * n * (n + 1) // 3


class _Slab(Mapping):
    """Read-only label -> Ex(label, m) view of one slab: the labels reached
    in <= n-m steps, a prefix of the table's shared label list, over that
    slab's value list.  A label outside the prefix raises KeyError."""

    __slots__ = ("_labels", "_index", "_values")

    def __init__(self, labels, index, values):
        self._labels = labels
        self._index = index
        self._values = values

    def __getitem__(self, label):
        i = self._index[label]
        if i >= len(self._values):
            raise KeyError(label)
        return self._values[i]

    def __iter__(self):
        return islice(self._labels, len(self._values))

    def __len__(self):
        return len(self._values)


class ExtTable:
    """Extension numbers Ex(label, m) for one class and target length n.

    One breadth-first pass over l_children, from the L-labels of the root's
    children, lists in `labels` exactly the labels that walks of 1..n-1
    steps reach, in the order first reached; `index` maps each to its
    position and `ends[d]` counts the labels first reached in fewer than d
    steps.  Slab m (the labels reached in <= n-m steps) is the prefix of
    `ends[n-m+1]` labels, so it is stored as one plain list `values[m]` of
    Ex(label, m) in list order; slab 0 is the constant function 1 and is
    not materialized.  `slabs[m]` is a read-only mapping view over
    (labels, index, values[m]).

    l_children runs once per label, in the pass that finds the labels: the
    children become index columns (one per child position, padded with -1),
    and each slab is summed as one chain of C-level maps, one per column,
    over the previous slab's values, made a list once.  The pad reads a 0
    appended to the previous list only while the next slab is summed, so
    `values[m]` holds exactly its prefix and an index past it raises.  Equal values within a slab are
    stored once, as one shared int object: with m steps left a distance
    above m acts as m, so most labels share their Ex(label, m) with others.
    """

    def __init__(self, walk_class, n, max_entries=DEFAULT_MAX_ENTRIES):
        check_length(n)
        estimate = estimate_entries(walk_class, n)
        if estimate > max_entries:
            raise ResourceBudgetError(estimate, max_entries)
        self.n = n
        self.rules = rules = RULES[walk_class]
        self.values = values = [None] * (n + 1)
        self.slabs = [None] * (n + 1)
        self.labels = labels = list(dict.fromkeys(map(rules.l_of_p, rules.root))) if n > 1 else []
        self.index = index = dict(zip(labels, range(len(labels))))
        self.ends = ends = [0, 0][:n + 1]  # no label is reached in 0 steps
        if n == 0:
            return
        kids = []
        for d in range(2, n + 1):  # l_children of the labels first reached in d-1 steps
            level = list(map(rules.l_children, labels[ends[-1]:]))
            ends.append(len(labels))
            kids += level
            if d < n:
                for label in chain.from_iterable(level):
                    if label not in index:
                        index[label] = len(labels)
                        labels.append(label)
        vals = values[1] = list(map(len, kids))  # slab 1, since Ex(., 0) = 1
        # one index column per child position, over the labels reached in
        # < n-1 steps (later ones are read by slab 1 only); -1 pads the shorter rows
        cols = list(zip_longest(*[map(index.__getitem__, ks) for ks in kids[:ends[n - 1]]], fillvalue=-1))
        first, *rest = cols or [()]  # no columns: every slab from 2 on is empty
        del kids, cols
        for m in range(2, n + 1):
            k = ends[n - m + 1]
            vals.append(0)  # what the pad index -1 reads, only while slab m is summed
            get = vals.__getitem__
            acc = map(get, islice(first, k))
            for col in rest:
                acc = map(add, acc, map(get, islice(col, k)))
            acc = list(acc)
            vals.pop()
            canon = {}
            vals = values[m] = list(map(canon.setdefault, acc, acc))
        self.slabs[1:] = [_Slab(labels, index, vals) for vals in values[1:]]

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


def _below(getrandbits, total):
    """Uniform integer in [0, total), drawn as CPython's Random.randrange(total)
    draws it: getrandbits(total.bit_length()) until the value is below total."""
    k = total.bit_length()
    r = getrandbits(k)
    while r >= total:
        if total <= 0:  # getrandbits(0) is 0: an empty range would never end
            raise ValueError("empty range for _below(%d)" % total)
        r = getrandbits(k)
    return r


class UniformSampler:
    """Draws length-n walks of the class uniformly at random.

    Deterministic for a fixed seed: the table layout and the child ordering
    are fixed, and each choice is one `_below` draw from the random.Random
    passed in, which leaves the generator as one randrange() call would.
    """

    def __init__(self, walk_class, n, max_entries=DEFAULT_MAX_ENTRIES, table=None):
        check_length(n)
        self.n = n
        self.rules = RULES[walk_class]
        self.table = table if table is not None else ExtTable(walk_class, n, max_entries)
        self._child_cache = {}
        self._make = TriWalk.from_codes if walk_class is WalkClass.TRIANGULAR else SquareWalk.from_codes

    def _record(self, plabel):
        """(P-children, their steps, an itemgetter of the table indices of
        their L-labels) of a P-label; None is the root.  Applied to a slab's
        values, the getter returns the children's weights as one tuple, so a
        record needs at least two children: ValueError otherwise.

        The getter is None when the P-label's L-label sits at table position
        ends[n-1] or later (first reached in >= n-1 steps): its children may
        first be reached in n steps, outside the table, and it is only ever
        the parent of the last step, which is drawn without weights.
        """
        cached = self._child_cache.get(plabel)
        if cached is None:
            rules = self.rules
            table = self.table
            if plabel is None:
                kids, inside = rules.root, self.n > 1
            else:
                kids = rules.p_children(plabel)
                inside = table.index[rules.l_of_p(plabel)] < table.ends[self.n - 1]
            weights = None
            if inside:
                if len(kids) < 2:  # an itemgetter of one index returns no tuple
                    raise ValueError(
                        "P-label %r has %d children; a weighted step needs two or more" % (plabel, len(kids))
                    )
                weights = itemgetter(*map(table.index.__getitem__, map(rules.l_of_p, kids)))
            cached = (kids, tuple(map(rules.step_of, kids)), weights)
            if len(self._child_cache) < (1 << 20):
                self._child_cache[plabel] = cached
        return cached

    def sample(self, rng):
        """One walk: m > 1 remaining steps pick child i with weight
        Ex(L-label of child i, m-1) by bisecting the cumulative weights at
        _below(total); the last step is uniform, since Ex(., 0) = 1."""
        n = self.n
        if n == 0:
            return self._make(())
        values = self.table.values
        cached = self._child_cache.get
        record = self._record
        getrandbits = rng.getrandbits
        steps = []
        pick = None
        for m in range(n, 1, -1):
            kids, kid_steps, weights = cached(pick) or record(pick)
            cum = list(accumulate(weights(values[m - 1])))
            i = bisect_right(cum, _below(getrandbits, cum[-1]))
            steps.append(kid_steps[i])
            pick = kids[i]
        kids, kid_steps, _ = cached(pick) or record(pick)
        steps.append(kid_steps[_below(getrandbits, len(kids))])
        return self._make(tuple(steps))


def exact_distribution(walk_class, n):
    """The sampler's induced law, as exact path probabilities per walk.

    Walks the refined tree through the sampler's own child records and
    slab values, multiplying the branch probabilities Ex(child, m-1)/Ex(label, m)
    along every root-to-depth-n path as an integer numerator and
    denominator; one Fraction per walk.
    """
    sampler = UniformSampler(walk_class, n)
    values = sampler.table.values
    make = sampler._make
    out = {}

    def rec(plabel, m, steps, num, den):
        kids, kid_steps, weights_of = sampler._record(plabel)
        if m == 1:
            total = len(kids)
            for s in kid_steps:
                walk = make(steps + (s,))
                if walk in out:
                    raise RuntimeError("refined tree revisits a walk")
                out[walk] = Fraction(num, den * total)
            return
        weights = weights_of(values[m - 1])
        den *= sum(weights)
        for p, w, s in zip(kids, weights, kid_steps):
            if w:
                rec(p, m - 1, steps + (s,), num * w, den)

    if n > 0:
        rec(None, n, (), 1, 1)
    else:
        out[make(())] = Fraction(1)
    return out


# --------------------------------------------------------------------------
# kinetic sampler: grow a prudent walk by uniform choice among the steps of
# SquareState.legal_steps(); linear time, no precomputation (a different measure).
# --------------------------------------------------------------------------

def kinetic_sample(n, seed):
    """Length-n kinetic prudent walk: each step uniform over the currently
    legal prudent steps (non-uniform measure on length-n walks)."""
    check_length(n)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    getrandbits = rng.getrandbits
    state = SquareState()
    steps = []
    for _ in range(n):
        avail = state.legal_steps()
        if not avail:
            raise RuntimeError("prudent walk unexpectedly stuck")
        d = avail[_below(getrandbits, len(avail))]
        state.push(d)
        steps.append(d)
    return SquareWalk.from_codes(tuple(steps))
