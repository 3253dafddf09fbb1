"""Functional-equation solvers for the five walk families.

Each system is the last-inflating-step decomposition of its class, written as
a fixed point T = RHS(T) in which every T-dependent term carries at least one
extra power of t.  The solvers compute the unique fixed point slice by slice
in increasing t-order (equivalent to iterating the RHS from the zero series N
times, but each coefficient is computed once).  ``rhs_*`` apply one full RHS
pass through the generic CPoly operations; the solved series are their exact
fixed points, which the tests verify directly.

Divided-difference terms like t (u*T(u,v) - tv*T(tv,v))/(u - tv) send a
monomial u^i v^j at t^n to t^(n+1+k) u^(i-k) v^(j+k), k = 0..i.  The solvers
carry the part landing on slice n as a running sum D_n instead of expanding
it: D_(n+1)(i, j) = T_n(i, j) + D_n(i+1, j-1), i.e. advance D by moving every
key (a, b) with a >= 1 to (a-1, b+1) and dropping those with a = 0, then add
T_n.  Geometric runs like t^2 u/(1-tu) T are carried the same way:
G_(n+1) = u (T_(n-1) + G_n).  A slice then costs time linear in the number of
its monomials, which also bounds the size of the running sums, so solving to
order N costs O(N^4) for 4-sided walks, O(N^3) for 3-sided and triangular
walks and the 2-sided refinements, and O(N^2) for 2-sided walks; expanding
the terms monomial-wise would cost one power of N more.

The 3-sided T(u,v), the 4-sided T(u,v,w) and the triangular R(u,v) are
symmetric under u <-> v, so their solvers build the canonical half of each
slice, the keys with i <= j, and carry one of the two mirrored running sums,
DU, as DV(i, j) = DU(j, i).  A canonical key takes DU(i, j) + DU(j, i), which
is twice DU(i, i) on the diagonal, and feeds DU at (i, j) and, unless i = j,
at (j, i).  The full slices are rebuilt once, at the end.
"""

from __future__ import annotations

from prudentwalks.series import CPoly, TSeries
from prudentwalks.walks import WalkClass

# The solvers truncate by t-order only: a contribution to slice m is kept iff
# m <= N, and no monomial is skipped for its degree.  A running sum holds
# exactly the contributions to the slice being built, so stopping after slice
# N is the truncation.  Every stored monomial u^i v^j w^h at t^n has
# i+j+h <= n anyway, since the box dimensions are bounded by the length
# (checked by test_pruning_soundness).


def _merge(dst, src):
    """Add the dict src into the dict dst, key by key."""
    for key, c in src.items():
        dst[key] = dst.get(key, 0) + c


def _fold(dst, D):
    """Add D(i, j, ...) + D(j, i, ...) into dst at the canonical keys i <= j;
    a diagonal key is its own mirror and adds twice."""
    for key, c in D.items():
        i, j = key[0], key[1]
        if i > j:
            key = (j, i) + key[2:]
        elif i == j:
            c += c
        dst[key] = dst.get(key, 0) + c


def _mirror(half):
    """The full u <-> v-symmetric slice whose canonical half is `half`."""
    full = dict(half)
    for key, c in half.items():
        if key[0] != key[1]:
            full[(key[1], key[0]) + key[2:]] = c
    return full


def length_series(walk_class, order):
    """The series `prudent series` prints for one class: P(t;u) as a CPoly
    in u, or the length series of 1-sided walks as a TSeries."""
    if walk_class is WalkClass.ONE_SIDED:
        return iterate_1sided(order)
    if walk_class is WalkClass.TWO_SIDED:
        return solve_2sided(order)[1]
    if walk_class is WalkClass.THREE_SIDED:
        return solve_3sided(order)[2]
    if walk_class is WalkClass.PRUDENT4:
        return solve_4sided(order)[1]
    return solve_triangular(order)[1]


# --------------------------------------------------------------------------
# 1-sided (partially directed) walks: P = (1+t)/(1-t) + t (1+t)/(1-t) P
# --------------------------------------------------------------------------

def iterate_1sided(order):
    """Length series of 1-sided walks from the horizontal/vertical split."""
    n = order
    const = [1] + [2] * n          # (1+t)/(1-t)
    pref = [0, 1] + [2] * (n - 1)  # t(1+t)/(1-t)
    p = [0] * (n + 1)
    for m in range(n + 1):
        s = const[m]
        for a in range(1, m + 1):
            s += pref[a] * p[m - a]
        p[m] = s
    return TSeries(p, n)


# --------------------------------------------------------------------------
# 2-sided walks (Lemma: T(u) = walks ending on top, distance u to NE corner)
# --------------------------------------------------------------------------

def solve_2sided(order):
    """Fixed point of T = 1/(1-tu) + t T(t) + t^2 u/(1-tu) T + t dd_u(uT, t).

    Returns (T, P) with P = 2T - T(0); P(t;1) counts 2-sided walks.
    """
    N = order
    slices = []
    acc = [{n: 1} for n in range(N + 1)]  # 1/(1-tu)
    D = {}  # t dd_u(uT, u->t) on slice n: D_(n+1)(i) = T_n(i) + D_n(i+1)
    G = {}  # t^2 u/(1-tu) T on slice n: G_(n+1) = u (T_(n-1) + G_n)
    prev = {}
    for n in range(N + 1):
        cur = acc[n]
        _merge(cur, D)
        _merge(cur, G)
        cur = {i: c for i, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        _merge(G, prev)
        G = {i + 1: c for i, c in G.items()}
        D = {i - 1: c for i, c in D.items() if i}
        for i, c in cur.items():
            D[i] = D.get(i, 0) + c
            # t * T[u:=t]
            m = n + 1 + i
            if m <= N:
                acc[m][0] = acc[m].get(0, 0) + c
        prev = cur
    T = CPoly(("u",), N, [{(i,): c for i, c in slc.items()} for slc in slices])
    P = CPoly(("u",), N, [{(i,): 2 * c if i else c for i, c in slc.items()} for slc in slices])
    return T, P


def rhs_2sided(T):
    """One application of the 2-sided RHS to a CPoly in u."""
    N = T.order
    one_tu = CPoly.geom(("u",), N, (1,))
    out = one_tu + T.substitute("u", "t").mul_mono(tpow=1)
    out = out + (one_tu * T).mul_mono((1,), 2)
    out = out + T.mul_mono((1,)).divided_difference("u", "t").mul_mono(tpow=1)
    return out


# --------------------------------------------------------------------------
# 3-sided walks: T(u,v) top-enders, R(u,w) right-enders
# --------------------------------------------------------------------------

def solve_3sided(order):
    """Fixed point of the coupled Lemma system; returns (T, R, P)."""
    N = order
    Ts = []  # canonical halves of T, keys (i, j) exponents of u, v with i <= j
    Rs = []  # keys (a, b) exponents of u, w
    accT = [dict() for _ in range(N + 1)]
    accR = [{(n, 0): 1} for n in range(N + 1)]  # 1/(1-tu)
    accT[0][(0, 0)] = 1  # empty walk
    # running sums of the terms landing on slice n (module docstring)
    DU = {}  # t dd_u(uT, u->tv): DU_(n+1)(i, j) = T_n(i, j) + DU_n(i+1, j-1)
    DR = {}  # t w dd_u(uR, u->t): DR_(n+1)(a, b+1) = R_n(a, b) + DR_n(a+1, b+1)
    GR = {}  # t^2 uw/(1-tu) R: GR_(n+1) = u (w R_(n-1) + GR_n)
    prevR = {}
    for n in range(N + 1):
        curT = accT[n]
        _fold(curT, DU)
        curR = accR[n]
        _merge(curR, DR)
        _merge(curR, GR)
        curT = {k: c for k, c in curT.items() if c}
        curR = {k: c for k, c in curR.items() if c}
        Ts.append(curT)
        Rs.append(curR)
        if n == N:
            break
        nxtT = accT[n + 1]
        DU = {(i - 1, j + 1): c for (i, j), c in DU.items() if i}
        for key, c in curT.items():
            DU[key] = DU.get(key, 0) + c
            nxtT[key] = nxtT.get(key, 0) - c  # - t T
            # R-equation: t T(tw, w) sends (i, j) to slice n+1+i, key
            # (0, i+j), and its mirror (j, i) to slice n+1+j
            i, j = key
            kr = (0, i + j)
            if n + 1 + i <= N:
                accR[n + 1 + i][kr] = accR[n + 1 + i].get(kr, 0) + c
            if i != j:
                DU[j, i] = DU.get((j, i), 0) + c
                if n + 1 + j <= N:
                    accR[n + 1 + j][kr] = accR[n + 1 + j].get(kr, 0) + c
        for (a, b), c in prevR.items():
            GR[(a, b + 1)] = GR.get((a, b + 1), 0) + c
        GR = {(a + 1, b): c for (a, b), c in GR.items()}
        DR = {(a - 1, b): c for (a, b), c in DR.items() if a}
        for (a, b), c in curR.items():
            DR[(a, b + 1)] = DR.get((a, b + 1), 0) + c
            # T-equation: tu R(t,u) + tv R(t,v); R(t,x): u_R := t, w -> x.
            # Only tv R(t,v) lands on the canonical half, at (0, b+1)
            if n + 1 + a <= N:
                accT[n + 1 + a][0, b + 1] = accT[n + 1 + a].get((0, b + 1), 0) + c
        prevR = curR

    Ts = list(map(_mirror, Ts))
    Ps = []  # P(t;u) = T(u,u) + 2 R(1,u) - 2 T(u,0) - t/(1-t)
    for n in range(N + 1):
        acc = {(0,): -1} if n else {}
        for (i, j), c in Ts[n].items():
            acc[i + j,] = acc.get((i + j,), 0) + c
            if j == 0:
                acc[i,] = acc.get((i,), 0) - 2 * c
        for (a, b), c in Rs[n].items():
            acc[b,] = acc.get((b,), 0) + 2 * c
        Ps.append({key: c for key, c in acc.items() if c})
    return CPoly(("u", "v"), N, Ts), CPoly(("u", "w"), N, Rs), CPoly(("u",), N, Ps)


def rhs_3sided(T, R):
    """One application of the Lemma system; returns (T', R')."""
    N = min(T.order, R.order)
    one = CPoly.constant(("u", "v"), N)
    # R(t, x): substitute u:=t in R(u,w) (leaving a pure w-series), then let
    # w play the role of the target catalytic variable
    R_t = R.substitute("u", "t")
    R_t_u = R_t.reorder(("w",)).rename({"w": "u"}).reorder(("u", "v"))
    R_t_v = R_t.reorder(("w",)).rename({"w": "v"}).reorder(("u", "v"))
    Tp = one
    Tp = Tp + R_t_u.mul_mono((1, 0), 1)
    Tp = Tp + R_t_v.mul_mono((0, 1), 1)
    Tp = Tp + T.mul_mono((1, 0)).divided_difference("u", ("t", "v")).mul_mono(tpow=1)
    Tp = Tp + T.mul_mono((0, 1)).divided_difference("v", ("t", "u")).mul_mono(tpow=1)
    Tp = Tp - T.mul_mono(tpow=1)
    one_tu = CPoly.geom(("u", "w"), N, (1, 0))
    T_tw_w = T.substitute("u", ("t", "v")).reorder(("v",)).rename({"v": "w"}).reorder(("u", "w"))
    Rp = one_tu + (one_tu * R).mul_mono((1, 1), 2)
    Rp = Rp + R.mul_mono((1, 0)).divided_difference("u", "t").mul_mono((0, 1), 1)
    Rp = Rp + T_tw_w.mul_mono(tpow=1)
    return Tp, Rp


# --------------------------------------------------------------------------
# 4-sided (general prudent) walks: T(u,v,w) top-enders
# --------------------------------------------------------------------------

def solve_4sided(order):
    """Fixed point of T = 1 + G(w,u) + G(w,v) + tw dd_u(uT,tv) + tw dd_v(vT,tu)
    - tw T with G(x,y) = t y T(x, tx, y); returns (T, P)."""
    N = order
    slices = []  # canonical halves, keys (i, j, h) with i <= j
    acc = [dict() for _ in range(N + 1)]
    acc[0][(0, 0, 0)] = 1
    # t w dd_u(u T, u -> tv) on slice n; its mirror image is DU folded onto
    # the canonical half (module docstring)
    DU = {}  # DU_(n+1)(i, j, h+1) = T_n(i, j, h) + DU_n(i+1, j-1, h+1)
    for n in range(N + 1):
        cur = acc[n]
        _fold(cur, DU)
        cur = {k: c for k, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        nxt = acc[n + 1]
        DU = {(i - 1, j + 1, h): c for (i, j, h), c in DU.items() if i}
        for (i, j, h), c in cur.items():
            key = (i, j, h + 1)
            DU[key] = DU.get(key, 0) + c
            nxt[key] = nxt.get(key, 0) - c  # - t w T
            # G(w, v) = t v T(w, tw, v) sends (i, j, h) to t^(j+1) v^(h+1)
            # w^(i+j), and its mirror (j, i, h) to t^(i+1); G(w, u) never
            # lands on the canonical half
            kv = (0, h + 1, i + j)
            if n + 1 + j <= N:
                acc[n + 1 + j][kv] = acc[n + 1 + j].get(kv, 0) + c
            if i != j:
                key = (j, i, h + 1)
                DU[key] = DU.get(key, 0) + c
                if n + 1 + i <= N:
                    acc[n + 1 + i][kv] = acc[n + 1 + i].get(kv, 0) + c

    slices = list(map(_mirror, slices))
    T = CPoly(("u", "v", "w"), N, slices)
    Ps = []  # P(t;u) = 1 + 4 T(u,u,u) - 4 T(0,u,u)
    for n, slc in enumerate(slices):
        tgt = {(0,): 1} if n == 0 else {}
        for (i, j, h), c in slc.items():
            tgt[i + j + h,] = tgt.get((i + j + h,), 0) + 4 * c
            if i == 0:
                tgt[j + h,] = tgt.get((j + h,), 0) - 4 * c
        Ps.append({key: c for key, c in tgt.items() if c})
    return T, CPoly(("u",), N, Ps)


def rhs_4sided(T):
    N = T.order
    one = CPoly.constant(("u", "v", "w"), N)
    # T(u, tu, w) with slots relabelled: G(x, y) = t y T(x, tx, y)
    A = T.substitute("v", ("t", "u")).reorder(("u", "w"))  # T(u, tu, w)
    G_wu = A.rename({"u": "w", "w": "u"}).reorder(("u", "v", "w")).mul_mono((1, 0, 0), 1)
    G_wv = A.rename({"u": "w", "w": "v"}).reorder(("u", "v", "w")).mul_mono((0, 1, 0), 1)
    out = one + G_wu + G_wv
    out = out + T.mul_mono((1, 0, 0)).divided_difference("u", ("t", "v")).mul_mono((0, 0, 1), 1)
    out = out + T.mul_mono((0, 1, 0)).divided_difference("v", ("t", "u")).mul_mono((0, 0, 1), 1)
    out = out - T.mul_mono((0, 0, 1), 1)
    return out


# --------------------------------------------------------------------------
# Triangular prudent walks: R(u,v) right-edge enders
# --------------------------------------------------------------------------

def solve_triangular(order):
    """Fixed point of R = 1 + tu(1+t) R(u,tu) + tv(1+t) R(tv,v)
    + tv(1+t) dd_u(uR, tv) + tu(1+t) dd_v(vR, tu); returns (R, P)."""
    N = order
    slices = []  # canonical halves, keys (i, j) with i <= j
    # R = 1 + (1+t) Y: acc[n] collects the single jumps of Y on slice n, and
    # E carries its divided difference; the mirror term tu dd_v(vR, v->tu)
    # is E folded onto the canonical half (module docstring)
    acc = [dict() for _ in range(N + 1)]
    E = {}  # tv dd_u(uR, u->tv): E_(n+1)(i, j+1) = R_n(i, j) + E_n(i+1, j)
    prevY = {}
    for n in range(N + 1):
        Y = acc[n]
        _fold(Y, E)
        cur = {(0, 0): 1} if n == 0 else dict(prevY)
        _merge(cur, Y)
        cur = {k: c for k, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        prevY = Y
        E = {(i - 1, j + 1): c for (i, j), c in E.items() if i}
        for (i, j), c in cur.items():
            E[i, j + 1] = E.get((i, j + 1), 0) + c
            # tv R(tv, v) sends (i, j) to slice n+1+i, key (0, i+j+1), and its
            # mirror (j, i) to slice n+1+j; tu R(u, tu) never lands on the
            # canonical half
            kv = (0, i + j + 1)
            if n + 1 + i <= N:
                acc[n + 1 + i][kv] = acc[n + 1 + i].get(kv, 0) + c
            if i != j:
                E[j, i + 1] = E.get((j, i + 1), 0) + c
                if n + 1 + j <= N:
                    acc[n + 1 + j][kv] = acc[n + 1 + j].get(kv, 0) + c

    slices = list(map(_mirror, slices))
    R = CPoly(("u", "v"), N, slices)
    Ps = []  # P(t;u) = 1 + 3 R(u,u) - 3 R(u,0)
    for n, slc in enumerate(slices):
        tgt = {(0,): 1} if n == 0 else {}
        for (i, j), c in slc.items():
            tgt[i + j,] = tgt.get((i + j,), 0) + 3 * c
            if j == 0:
                tgt[i,] = tgt.get((i,), 0) - 3 * c
        Ps.append({key: c for key, c in tgt.items() if c})
    return R, CPoly(("u",), N, Ps)


def rhs_triangular(R):
    N = R.order
    one_plus_t = CPoly.from_tseries(("u", "v"), TSeries.from_terms(N, {0: 1, 1: 1}))
    out = CPoly.constant(("u", "v"), N)
    out = out + R.substitute("v", ("t", "u")).mul_mono((1, 0), 1) * one_plus_t
    out = out + R.substitute("u", ("t", "v")).mul_mono((0, 1), 1) * one_plus_t
    out = out + R.mul_mono((1, 0)).divided_difference("u", ("t", "v")).mul_mono((0, 1), 1) * one_plus_t
    out = out + R.mul_mono((0, 1)).divided_difference("v", ("t", "u")).mul_mono((1, 0), 1) * one_plus_t
    return out


# --------------------------------------------------------------------------
# 2-sided refinements: endpoint coordinate sum (z marks X+Y) and
# diagonal distance (z marks X-Y, Laurent in z)
# --------------------------------------------------------------------------

def _solve_2sided_z(N, s):
    """Slices of the refined 2-sided T(t,z;u), keys (u-exponent, z-exponent).

    s = 1: z marks X+Y; s = -1: z marks X-Y.  Either way East is t z and
    West is t u / z, North is t z^s, and the jump back to the NE corner is
    t z T(z^s; t z^s) with the z-exponents of T raised to the power s.
    """
    slices = []
    acc = [{(n, -n): 1} for n in range(N + 1)]  # West run: sum (t u / z)^m
    # North step then bounded East run: t z^s dd_u(u T, u -> t z), and
    # North step then m >= 1 West steps: sum_a t^(1+a) u^(i+a) z^(f+s-a)
    D = {}  # D_(n+1)(i, f+s) = T_n(i, f) + D_n(i+1, f+s-1)
    G = {}  # G_(n+1) = (u/z) (z^s T_(n-1) + G_n)
    prev = {}
    for n in range(N + 1):
        cur = acc[n]
        _merge(cur, D)
        _merge(cur, G)
        cur = {k: c for k, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        for (i, f), c in prev.items():
            G[(i, f + s)] = G.get((i, f + s), 0) + c
        G = {(i + 1, f - 1): c for (i, f), c in G.items()}
        D = {(i - 1, f + 1): c for (i, f), c in D.items() if i}
        for (i, f), c in cur.items():
            D[(i, f + s)] = D.get((i, f + s), 0) + c
            m = n + 1 + i
            if m <= N:
                key = (0, s * (f + i) + 1)
                acc[m][key] = acc[m].get(key, 0) + c
        prev = cur
    return slices


def solve_2sided_refined_sum(order):
    """T(t,z;u) for top-enders with z marking X+Y; returns (T, P).

    P = 2T - T(u:=0); coefficient of t^n z^s u^i counts 2-sided walks of
    length n with X+Y = s at NE-distance i.
    """
    slices = _solve_2sided_z(order, 1)
    T = CPoly(("u", "z"), order, slices)
    P = CPoly(("u", "z"), order, [
        {(i, f): c if i == 0 else 2 * c for (i, f), c in slc.items()} for slc in slices
    ])
    return T, P


def solve_2sided_diagonal(order):
    """P(t,z;u) with Laurent z marking X-Y; P = T(z;u) + T(zbar;u) - T(z;0)."""
    slices = _solve_2sided_z(order, -1)
    Ps = []  # T(z;u) - T(z;0) keeps the solver's keys; T(zbar;u) adds their mirrors
    for slc in slices:
        tgt = {key: c for key, c in slc.items() if key[0]}
        for (i, f), c in slc.items():
            tgt[(i, -f)] = tgt.get((i, -f), 0) + c
        Ps.append(tgt)
    return CPoly(("u", "z"), order, slices), CPoly(("u", "z"), order, Ps)
