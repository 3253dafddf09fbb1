"""Generating-tree labellings for the five walk classes.

Each class gets two labellings: a compact L-label whose children multiset
depends only on the label (good labelling, drives the extension-number
table) and a refined P-label that additionally determines the last lattice
step, so walks can be reconstructed while sampling.  The L-projection of the
P-children of p always equals the L-children of the L-projection of p.

Square steps are 0..3 = N,E,S,W (arithmetic mod 4); triangular steps are
0..5 clockwise from NW (arithmetic mod 6).  C- and F-type refinements store
a rotation direction d = +-1 instead of the step, which the last-step
function then resolves.

Each class's rules are one `RuleSet`: its root P-labels, and four callables
(any callable will do) giving a P-label's children, an L-label's children,
the L-projection of a P-label and its last step.  The children rules return
one tuple literal per branch, in a fixed child order that the sampler's
draws depend on.  Where a projection is a plain field selection (the
2-sided and triangular L-projections, and the 2-sided, 4-sided and
triangular last steps) it is an `operator.itemgetter`.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from prudentwalks.walks import WalkClass

# type tags (first tuple entry of every label)
V, H = 0, 1                      # 1-sided
I2, C2, F2 = 0, 1, 2             # 2-sided
IV3, IH3, A3, C3, F3 = 0, 1, 2, 3, 4  # 3-sided
I4, A4 = 0, 1                    # 4-sided
IT, AT = 0, 1                    # triangular


# --------------------------------------------------------------------------
# 1-sided: labels V (vertical last step) and H; refine H by direction.
# --------------------------------------------------------------------------

def _p_children_1(p):
    if p[0] == V:
        return ((V,), (H, 1), (H, -1))
    return ((V,), p)


def _l_children_1(l):
    if l[0] == V:
        return ((V,), (H,), (H,))
    return ((V,), (H,))


def _l_of_p_1(p):
    return (p[0],)


def _step_1(p):
    if p[0] == V:
        return 0
    return 1 if p[1] == 1 else 3


_ROOT_1 = ((V,), (H, 1), (H, -1))


# --------------------------------------------------------------------------
# 2-sided: (type; i | s), i = distance to the NE corner.
# --------------------------------------------------------------------------

def _p_children_2(p):
    ty, i, s = p
    if ty == I2:
        return (p, (F2, i + 1, (3 - s) % 4),
                (C2, i - 1, (1 - s) % 4) if i > 0 else (I2, 0, (1 - s) % 4))
    if ty == C2:
        return ((I2, i, (1 - s) % 4), (C2, i - 1, s) if i > 0 else (I2, 0, s))
    return ((I2, i, (3 - s) % 4), (F2, i + 1, s))


def _l_children_2(l):
    ty, i = l
    if ty == I2:
        return ((I2, i), (F2, i + 1), (C2, i - 1) if i > 0 else (I2, 0))
    if ty == C2:
        return ((I2, i), (C2, i - 1) if i > 0 else (I2, 0))
    return ((I2, i), (F2, i + 1))


_ROOT_2 = ((I2, 0, 0), (I2, 0, 1), (F2, 1, 2), (F2, 1, 3))


# --------------------------------------------------------------------------
# 3-sided: five types.  I_v carries the unordered corner distances {i,j}
# (the P-label orders them); i is the distance to the top of a vertical
# edge for I_h/C/F, j the box width.
# --------------------------------------------------------------------------

def _p_children_3(p):
    ty = p[0]
    if ty == IV3:  # a side at distance 0 turns its A-child into an I_h-child, listed last
        _, i, j = p
        if i > 0:
            if j > 0:
                return (p, (A3, i - 1, j + 1, 1), (A3, j - 1, i + 1, 3))
            return (p, (A3, i - 1, 1, 1), (IH3, 0, i + 1, 3))
        if j > 0:
            return (p, (A3, j - 1, 1, 3), (IH3, 0, j + 1, 1))
        return (p, (IH3, 0, 1, 1), (IH3, 0, 1, 3))
    if ty == IH3:  # s = 2 + d, d = +-1
        _, i, j, s = p
        return ((IH3, i, j + 1, s), (F3, i + 1, j, 2 - s),
                (C3, i - 1, j, s - 2) if i > 0 else ((IV3, j, 0) if s == 3 else (IV3, 0, j)))
    if ty == A3:
        _, i, j, s = p
        return ((IV3, j, i) if s == 3 else (IV3, i, j),
                (A3, i - 1, j + 1, s) if i > 0 else (IH3, 0, j + 1, s))
    if ty == C3:
        _, i, j, d = p
        return ((IH3, i, j + 1, 2 + d),
                (C3, i - 1, j, d) if i > 0 else ((IV3, j, 0) if d == 1 else (IV3, 0, j)))
    _, i, j, d = p  # F3
    if j == 0:
        return ((F3, i + 1, 0, d), (IH3, i, 1, 2 - d), (IH3, i, 1, 3))
    return ((F3, i + 1, j, d), (IH3, i, j + 1, 2 - d))


def _l_children_3(l):
    ty = l[0]
    if ty == IV3:  # unordered, a <= b
        _, a, b = l
        if a > 0:
            if b > 0:
                return (l, (A3, a - 1, b + 1), (A3, b - 1, a + 1))
            return (l, (A3, a - 1, 1), (IH3, 0, a + 1))
        if b > 0:
            return (l, (A3, b - 1, 1), (IH3, 0, b + 1))
        return (l, (IH3, 0, 1), (IH3, 0, 1))
    if ty == IH3:
        _, i, j = l
        return ((IH3, i, j + 1), (F3, i + 1, j),
                (C3, i - 1, j) if i > 0 else (IV3, 0, j))
    if ty == A3:
        _, i, j = l
        lo, hi = (i, j) if i <= j else (j, i)
        return ((IV3, lo, hi),
                (A3, i - 1, j + 1) if i > 0 else (IH3, 0, j + 1))
    if ty == C3:
        _, i, j = l
        return ((IH3, i, j + 1),
                (C3, i - 1, j) if i > 0 else (IV3, 0, j))
    _, i, j = l  # F3
    if j == 0:
        return ((F3, i + 1, 0), (IH3, i, 1), (IH3, i, 1))
    return ((F3, i + 1, j), (IH3, i, j + 1))


def _l_of_p_3(p):
    ty = p[0]
    if ty == IV3:
        _, i, j = p
        return (IV3, i, j) if i <= j else (IV3, j, i)
    return (ty, p[1], p[2])


def _step_3(p):
    ty = p[0]
    if ty == IV3 or ty == C3:
        return 0
    if ty == F3:
        return 2
    return p[3]


_ROOT_3 = ((IV3, 0, 0), (IH3, 0, 1, 1), (IH3, 0, 1, 3), (F3, 1, 0, 1))


# --------------------------------------------------------------------------
# 4-sided: (I; {i,j}, h | i,j,s) and (A; i,j,h | s,d); all steps mod 4.
# --------------------------------------------------------------------------

def _p_children_4(p):
    ty = p[0]
    if ty == I4:  # a side at distance 0 turns its A-child into an I-child, listed last
        _, i, j, h, s = p
        if i > 0:
            if j > 0:
                return ((I4, i, j, h + 1, s), (A4, i - 1, j + 1, h, (s + 1) % 4, 1),
                        (A4, j - 1, i + 1, h, (s - 1) % 4, -1))
            return ((I4, i, 0, h + 1, s), (A4, i - 1, 1, h, (s + 1) % 4, 1),
                    (I4, 0, h, i + 1, (s - 1) % 4))
        if j > 0:
            return ((I4, 0, j, h + 1, s), (A4, j - 1, 1, h, (s - 1) % 4, -1),
                    (I4, h, 0, j + 1, (s + 1) % 4))
        return ((I4, 0, 0, h + 1, s), (I4, h, 0, 1, (s + 1) % 4), (I4, 0, h, 1, (s - 1) % 4))
    _, i, j, h, s, d = p
    if d == 1:
        return ((I4, i, j, h + 1, (s - 1) % 4),
                (A4, i - 1, j + 1, h, s, 1) if i > 0 else (I4, h, 0, j + 1, s))
    return ((I4, j, i, h + 1, (s + 1) % 4),
            (A4, i - 1, j + 1, h, s, -1) if i > 0 else (I4, 0, h, j + 1, s))


def _l_children_4(l):
    ty = l[0]
    if ty == I4:  # unordered, a <= b
        _, a, b, h = l
        if a > 0:
            if b > 0:
                return ((I4, a, b, h + 1), (A4, a - 1, b + 1, h), (A4, b - 1, a + 1, h))
            return ((I4, a, 0, h + 1), (A4, a - 1, 1, h), (I4, 0, h, a + 1))
        if b > 0:
            return ((I4, 0, b, h + 1), (A4, b - 1, 1, h), (I4, 0, h, b + 1))
        return ((I4, 0, 0, h + 1), (I4, 0, h, 1), (I4, 0, h, 1))
    _, i, j, h = l
    lo, hi = (i, j) if i <= j else (j, i)
    return ((I4, lo, hi, h + 1),
            (A4, i - 1, j + 1, h) if i > 0 else (I4, 0, h, j + 1))


def _l_of_p_4(p):
    if p[0] == I4:
        _, i, j, h, _s = p
        return (I4, i, j, h) if i <= j else (I4, j, i, h)
    return (A4, p[1], p[2], p[3])


_ROOT_4 = tuple((I4, 0, 0, 1, s) for s in range(4))


# --------------------------------------------------------------------------
# triangular: (I; i,j | s,d) and (A; i,j | s,d); steps mod 6.
# --------------------------------------------------------------------------

def _p_children_t(p):
    ty, i, j, s, d = p
    if ty == IT:
        if i > 0:
            return ((IT, i, j + 1, s, d), (IT, j, i + 1, (s - d) % 6, -d),
                    (AT, j - 1, i + 1, (s - 2 * d) % 6, -d), (AT, i - 1, j + 1, (s + d) % 6, d))
        return ((IT, 0, j + 1, s, d), (IT, j, 1, (s - d) % 6, -d),
                (AT, j - 1, 1, (s - 2 * d) % 6, -d), (IT, 0, j + 1, (s + d) % 6, -d),
                (IT, j, 1, (s + 2 * d) % 6, d))
    if i > 0:
        return ((IT, i, j + 1, (s - d) % 6, d), (IT, j, i + 1, (s - 2 * d) % 6, -d),
                (AT, i - 1, j + 1, s, d))
    return ((IT, 0, j + 1, (s - d) % 6, d), (IT, j, 1, (s - 2 * d) % 6, -d),
            (IT, 0, j + 1, s, -d), (IT, j, 1, (s + d) % 6, d))


def _l_children_t(l):
    ty, i, j = l
    if ty == IT:
        if i > 0:
            return ((IT, i, j + 1), (IT, j, i + 1), (AT, j - 1, i + 1), (AT, i - 1, j + 1))
        return ((IT, 0, j + 1), (IT, j, 1), (AT, j - 1, 1), (IT, 0, j + 1), (IT, j, 1))
    if i > 0:
        return ((IT, i, j + 1), (IT, j, i + 1), (AT, i - 1, j + 1))
    return ((IT, 0, j + 1), (IT, j, 1), (IT, 0, j + 1), (IT, j, 1))


# The printed root rotations are (0,-1),(1,1),(2,-1),(3,1),(4,-1),(5,1); in
# the coordinate embedding fixed here (steps clockwise from NW, NE = (0,1))
# the box orientation is mirrored, so d flips sign.  Validated by exhaustive
# bijection against the brute-force walk sets (see test_labels).
_ROOT_T = tuple(
    (IT, 0, 1, s, d)
    for s, d in ((0, 1), (1, -1), (2, 1), (3, -1), (4, 1), (5, -1))
)


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

RuleSet = namedtuple("RuleSet", "root p_children l_children l_of_p step_of")


RULES = {
    WalkClass.ONE_SIDED: RuleSet(_ROOT_1, _p_children_1, _l_children_1, _l_of_p_1, _step_1),
    WalkClass.TWO_SIDED: RuleSet(_ROOT_2, _p_children_2, _l_children_2, itemgetter(0, 1), itemgetter(2)),
    WalkClass.THREE_SIDED: RuleSet(_ROOT_3, _p_children_3, _l_children_3, _l_of_p_3, _step_3),
    WalkClass.PRUDENT4: RuleSet(_ROOT_4, _p_children_4, _l_children_4, _l_of_p_4, itemgetter(4)),
    WalkClass.TRIANGULAR: RuleSet(_ROOT_T, _p_children_t, _l_children_t, itemgetter(0, 1, 2), itemgetter(3)),
}
