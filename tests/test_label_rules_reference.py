"""The generating-tree rules of `prudentwalks.labels` against a reference.

The reference below is the list-building form of the rules: each rule
appends its children branch by branch and converts the list to a tuple, and
each projection builds its tuple field by field.  The library's rules must
return equal values, children in the same order, on every P-label reached
from the root within DEPTH steps and on the L-label of each.
"""

import pytest

from prudentwalks.labels import RULES
from prudentwalks.walks import WalkClass

DEPTH = 20

V, H = 0, 1
I2, C2, F2 = 0, 1, 2
IV3, IH3, A3, C3, F3 = 0, 1, 2, 3, 4
I4, A4 = 0, 1
IT, AT = 0, 1


def _sel(a, d, b):
    """a if d == +1 else b (the i/j selector used by the printed rules)."""
    return a if d == 1 else b


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


# --------------------------------------------------------------------------
# 2-sided: (type; i | s), i = distance to the NE corner.
# --------------------------------------------------------------------------

def _p_children_2(p):
    ty, i, s = p
    if ty == I2:
        out = [(I2, i, s), (F2, i + 1, (3 - s) % 4)]
        if i > 0:
            out.append((C2, i - 1, (1 - s) % 4))
        else:
            out.append((I2, 0, (1 - s) % 4))
        return tuple(out)
    if ty == C2:
        out = [(I2, i, (1 - s) % 4)]
        if i > 0:
            out.append((C2, i - 1, s))
        else:
            out.append((I2, 0, s))
        return tuple(out)
    return ((I2, i, (3 - s) % 4), (F2, i + 1, s))


def _l_children_2(l):
    ty, i = l
    if ty == I2:
        return ((I2, i), (F2, i + 1), (C2, i - 1) if i > 0 else (I2, 0))
    if ty == C2:
        return ((I2, i), (C2, i - 1) if i > 0 else (I2, 0))
    return ((I2, i), (F2, i + 1))


def _l_of_p_2(p):
    return (p[0], p[1])


def _step_2(p):
    return p[2]


# --------------------------------------------------------------------------
# 3-sided: five types.  I_v carries the unordered corner distances {i,j}
# (the P-label orders them); i is the distance to the top of a vertical
# edge for I_h/C/F, j the box width.
# --------------------------------------------------------------------------

def _p_children_3(p):
    ty = p[0]
    if ty == IV3:
        _, i, j = p
        out = [(IV3, i, j)]
        if i > 0:
            out.append((A3, i - 1, j + 1, 1))
        if j > 0:
            out.append((A3, j - 1, i + 1, 3))
        if i == 0:
            out.append((IH3, 0, j + 1, 1))
        if j == 0:
            out.append((IH3, 0, i + 1, 3))
        return tuple(out)
    if ty == IH3:
        _, i, j, s = p
        d = s - 2  # +-1
        out = [(IH3, i, j + 1, s), (F3, i + 1, j, 2 - s)]
        if i > 0:
            out.append((C3, i - 1, j, d))
        else:
            out.append((IV3, _sel(j, d, 0), _sel(0, d, j)))
        return tuple(out)
    if ty == A3:
        _, i, j, s = p
        d = s - 2
        out = [(IV3, _sel(j, d, i), _sel(i, d, j))]
        if i > 0:
            out.append((A3, i - 1, j + 1, s))
        else:
            out.append((IH3, 0, j + 1, s))
        return tuple(out)
    if ty == C3:
        _, i, j, d = p
        out = [(IH3, i, j + 1, 2 + d)]
        if i > 0:
            out.append((C3, i - 1, j, d))
        else:
            out.append((IV3, _sel(j, d, 0), _sel(0, d, j)))
        return tuple(out)
    _, i, j, d = p  # F3
    out = [(F3, i + 1, j, d), (IH3, i, j + 1, 2 - d)]
    if j == 0:
        out.append((IH3, i, 1, 3))
    return tuple(out)


def _l_children_3(l):
    ty = l[0]
    if ty == IV3:
        _, a, b = l  # unordered, a <= b
        out = [(IV3, a, b)]
        if a > 0:
            out.append((A3, a - 1, b + 1))
        if b > 0:
            out.append((A3, b - 1, a + 1))
        if a == 0:
            out.append((IH3, 0, b + 1))
        if b == 0:
            out.append((IH3, 0, a + 1))
        return tuple(out)
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
    out = [(F3, i + 1, j), (IH3, i, j + 1)]
    if j == 0:
        out.append((IH3, i, 1))
    return tuple(out)


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


# --------------------------------------------------------------------------
# 4-sided: (I; {i,j}, h | i,j,s) and (A; i,j,h | s,d); all steps mod 4.
# --------------------------------------------------------------------------

def _p_children_4(p):
    ty = p[0]
    if ty == I4:
        _, i, j, h, s = p
        out = [(I4, i, j, h + 1, s)]
        if i > 0:
            out.append((A4, i - 1, j + 1, h, (s + 1) % 4, 1))
        if j > 0:
            out.append((A4, j - 1, i + 1, h, (s - 1) % 4, -1))
        if i == 0:
            out.append((I4, h, 0, j + 1, (s + 1) % 4))
        if j == 0:
            out.append((I4, 0, h, i + 1, (s - 1) % 4))
        return tuple(out)
    _, i, j, h, s, d = p
    out = [(I4, _sel(i, d, j), _sel(j, d, i), h + 1, (s - d) % 4)]
    if i > 0:
        out.append((A4, i - 1, j + 1, h, s, d))
    else:
        out.append((I4, _sel(h, d, 0), _sel(0, d, h), j + 1, s))
    return tuple(out)


def _l_children_4(l):
    ty = l[0]
    if ty == I4:
        _, a, b, h = l  # unordered, a <= b
        out = [(I4, a, b, h + 1)]
        if a > 0:
            out.append((A4, a - 1, b + 1, h))
        if b > 0:
            out.append((A4, b - 1, a + 1, h))
        if a == 0:
            out.append((I4, 0, h, b + 1))
        if b == 0:
            out.append((I4, 0, h, a + 1))
        return tuple(out)
    _, i, j, h = l
    lo, hi = (i, j) if i <= j else (j, i)
    return ((I4, lo, hi, h + 1),
            (A4, i - 1, j + 1, h) if i > 0 else (I4, 0, h, j + 1))


def _l_of_p_4(p):
    if p[0] == I4:
        _, i, j, h, _s = p
        return (I4, i, j, h) if i <= j else (I4, j, i, h)
    return (A4, p[1], p[2], p[3])


def _step_4(p):
    return p[4]


# --------------------------------------------------------------------------
# triangular: (I; i,j | s,d) and (A; i,j | s,d); steps mod 6.
# --------------------------------------------------------------------------

def _p_children_t(p):
    ty, i, j, s, d = p
    if ty == IT:
        out = [
            (IT, i, j + 1, s, d),
            (IT, j, i + 1, (s - d) % 6, -d),
            (AT, j - 1, i + 1, (s - 2 * d) % 6, -d),
        ]
        if i > 0:
            out.append((AT, i - 1, j + 1, (s + d) % 6, d))
        else:
            out.append((IT, 0, j + 1, (s + d) % 6, -d))
            out.append((IT, j, 1, (s + 2 * d) % 6, d))
        return tuple(out)
    out = [
        (IT, i, j + 1, (s - d) % 6, d),
        (IT, j, i + 1, (s - 2 * d) % 6, -d),
    ]
    if i > 0:
        out.append((AT, i - 1, j + 1, s, d))
    else:
        out.append((IT, 0, j + 1, s, -d))
        out.append((IT, j, 1, (s + d) % 6, d))
    return tuple(out)


def _l_children_t(l):
    ty, i, j = l
    out = [(IT, i, j + 1), (IT, j, i + 1)]
    if ty == IT:
        out.append((AT, j - 1, i + 1))
    if i > 0:
        out.append((AT, i - 1, j + 1))
    else:
        out.append((IT, 0, j + 1))
        out.append((IT, j, 1))
    return tuple(out)


def _l_of_p_t(p):
    return (p[0], p[1], p[2])


def _step_t(p):
    return p[3]


REFERENCE = {
    WalkClass.ONE_SIDED: (_p_children_1, _l_children_1, _l_of_p_1, _step_1),
    WalkClass.TWO_SIDED: (_p_children_2, _l_children_2, _l_of_p_2, _step_2),
    WalkClass.THREE_SIDED: (_p_children_3, _l_children_3, _l_of_p_3, _step_3),
    WalkClass.PRUDENT4: (_p_children_4, _l_children_4, _l_of_p_4, _step_4),
    WalkClass.TRIANGULAR: (_p_children_t, _l_children_t, _l_of_p_t, _step_t),
}


def _reached_plabels(p_children, root, depth):
    seen = dict.fromkeys(root)
    frontier = list(root)
    for _ in range(depth - 1):
        nxt = []
        for p in frontier:
            for c in p_children(p):
                if c not in seen:
                    seen[c] = None
                    nxt.append(c)
        frontier = nxt
    return list(seen)


@pytest.mark.parametrize("wc", list(WalkClass), ids=lambda wc: wc.value)
def test_rules_match_the_list_building_reference(wc):
    rules = RULES[wc]
    p_children, l_children, l_of_p, step_of = REFERENCE[wc]
    plabels = _reached_plabels(p_children, rules.root, DEPTH)
    assert plabels == _reached_plabels(rules.p_children, rules.root, DEPTH)
    llabels = {}
    for p in plabels:
        kids = rules.p_children(p)
        assert type(kids) is tuple and kids == p_children(p), p
        label = rules.l_of_p(p)
        assert type(label) is tuple and label == l_of_p(p), p
        assert rules.step_of(p) == step_of(p), p
        llabels[label] = None
    for label in llabels:
        kids = rules.l_children(label)
        assert type(kids) is tuple and kids == l_children(label), label
