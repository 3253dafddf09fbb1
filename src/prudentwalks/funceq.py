"""Functional-equation solvers for the five walk families.

Each system is the last-inflating-step decomposition of its class, written as
a fixed point T = RHS(T) in which every T-dependent term carries at least one
extra power of t.  The solvers compute the unique fixed point slice by slice
in increasing t-order (equivalent to iterating the RHS from the zero series N
times, but each coefficient is computed once).  ``rhs_*`` apply one full RHS
pass through the generic CPoly operations; the solved series are their exact
fixed points, which the tests verify directly.

Running sums.  A divided-difference term like t (u T(u,v) - tv T(tv,v))/(u - tv)
sends a monomial u^i v^j at t^n to t^(n+1+k) u^(i-k) v^(j+k), k = 0..i.  The
part landing on slice n is carried as a running sum D_n instead of being
expanded: D_(n+1)(i, j) = T_n(i, j) + D_n(i+1, j-1).  Geometric runs like
t^2 u/(1-tu) T are carried the same way: G_(n+1) = u (T_(n-1) + G_n).

Single jumps.  A term like t T(tw, w) sends u^i v^j at t^n to t^(n+1+i)
u^0 w^(i+j).  On slice n it adds up T_(n-1-k)(k, s-k) over k, which is
D_n(0, s): the running sum's entry at first exponent 0.  So every single jump
is read off the boundary of a running sum the solver already carries, and a
solver holds only the slice it builds, the previous slice and the running
sums; nothing is scattered forward to later slices.

Lines.  Slices and running sums are stored as lines: plain lists along the
direction in which the running sum shifts, indexed by the first exponent.
For the 3-sided T(u,v) and the triangular R(u,v) that is the anti-diagonal
s = i + j, and the 4-sided T(u,v,w) has one line per (s, h).  The 2-sided
systems and the 3-sided R(u,w) have one line along u per exponent of their
other variable.  The shift (i, j) -> (i-1, j+1) is then line[1:], the
u <-> v mirror is reversed(line), and adding running sums is map(add, ...),
so a u <-> v-symmetric line is built whole as DU + reversed(DU), and the
element work runs in C.  Solving to order N makes O(N^3) list operations for
4-sided walks, O(N^2) for the other two-variable systems and O(N) for 2-sided
walks.  Every stored monomial u^i v^j w^h at t^n has i+j+h <= n, since the
box dimensions are bounded by the length (checked by test_pruning_soundness),
so slice N is exact.

Streams.  lines_* and slices_2sided yield each order's lines or slices, the
CPoly slice of P last, and never change one after yielding it.  solve_* keep
every slice as a CPoly; the iteration routes of verify.ROUTES read only P's.
"""

from __future__ import annotations

from itertools import compress, count, zip_longest
from operator import add, sub

from prudentwalks.series import CPoly, TSeries


def _plus(a, b):
    """The sum of two lines, the shorter one read as 0 past its end."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b):]]


def _slice(pairs):
    """The CPoly slice of (keys, line) pairs: each line's nonzero entries
    under its keys."""
    out = {}
    for keys, line in pairs:
        out.update(compress(zip(keys, line), line))
    return out


def _u_slice(line):
    """The CPoly slice in u of a line indexed by the exponent of u."""
    return dict(compress(zip(zip(count()), line), line))


# --------------------------------------------------------------------------
# 1-sided (partially directed) walks: P = (1+t)/(1-t) + t (1+t)/(1-t) P
# --------------------------------------------------------------------------

def iterate_1sided(order):
    """Length series of 1-sided walks from the horizontal/vertical split."""
    const = [1] + [2] * order          # (1+t)/(1-t)
    pref = [0, 1] + [2] * (order - 1)  # t(1+t)/(1-t)
    p = [0] * (order + 1)
    for m in range(order + 1):
        s = const[m]
        for a in range(1, m + 1):
            s += pref[a] * p[m - a]
        p[m] = s
    return TSeries(p, order)


# --------------------------------------------------------------------------
# 2-sided walks (Lemma: T(u) = walks ending on top, distance u to NE corner)
# --------------------------------------------------------------------------
# The 2-sided systems and the 3-sided R(u,w) keep a slice as {e: line}, one
# line along u per exponent e of their other variable.  Each has the run
# 1/(1-tu) on line 0, a running sum D and a geometric run G whose step moves
# a term k lines up (k = 0 when there is no other variable).

def _runs_slice(D, G, n, jumps):
    """Slice n: D + G, the run 1/(1-tu) and each single jump (e, c), which
    adds c at the first exponent 0 of line e."""
    cur = {e: _plus(D.get(e, ()), G.get(e, ())) for e in D.keys() | G.keys()}
    cur[0] = _plus(cur.get(0, ()), [0] * n + [1])
    for e, c in jumps:
        cur[e] = _plus(cur.get(e, ()), [c])
    return cur


def _next_runs(cur, prev, D, G, k):
    """D and G after slice `cur`, whose predecessor is `prev`:
    D_(n+1)[e+k] = cur[e] + D_n[e+k][1:], G_(n+1)[e+k] = u (prev[e] + G_n[e+k])."""
    D = {e + k: _plus(cur.get(e, ()), D.get(e + k, ())[1:])
         for e in cur.keys() | {e - k for e in D}}
    G = {e + k: [0, *_plus(prev.get(e, ()), G.get(e + k, ()))]
         for e in prev.keys() | {e - k for e in G}}
    return D, G


def slices_2sided(N, refined=None):
    """(T, P) of the 2-sided system (refined None; keys (i,) for u^i) or of
    its refinement by X+Y ("sum") or X-Y ("diagonal"; keys (i, f) for u^i z^f,
    Laurent in z), order by order: T as (keys, line) pairs, P as its CPoly
    slice.  P = T(z;u) - T(z;0) + T(z^s;u), with s = -1 for the diagonal and
    1 otherwise; P(t;1,1) counts 2-sided walks.

    The plain T has the one line along u, D carries t dd_u(uT, u->t), G
    carries t^2 u/(1-tu) T, and t T(t) is the jump T_n(0) += D_n(0).  In a
    refinement East is t z and West t u / z, North is t z^s, and the jump back
    to the NE corner is t z T(z^s; t z^s).  Line e holds the keys (i, f) with
    s (i + f) = e: the West run u^n z^-n lies on line 0, a North step moves a
    term one line up into D (then a bounded East run) or G (then West steps),
    and the jump back is T_n(0, g) += D_n(0, s g).
    """
    k, s = (0, 1) if refined is None else (1, -1 if refined == "diagonal" else 1)
    # keys[sign][e]: the keys (i, sign f) of line e, tuples of shared ints
    us, zs = list(range(N + 1)), list(range(-2 * N, 2 * N + 1))
    keys = {sign: {e: list(zip(us, zs[sign * s * e + 2 * N::-sign]) if k else zip(us))
                   for e in (range(-N, N + 1) if k else [0])} for sign in {1, s}}
    T = prev = D = G = {}
    for n in range(N + 1):
        if n:
            D, G = _next_runs(T, prev, D, G, k)
        prev, T = T, _runs_slice(D, G, n, [(s * e, d[0]) for e, d in D.items() if d])
        P = {}
        for e, line in T.items():  # T(z;u) - T(z;0)
            P.update(compress(zip(keys[1][e], line), [0, *line[1:]]))
        for e, line in T.items():  # + T(z^s;u)
            for key, c in compress(zip(keys[s][e], line), line):
                P[key] = P.get(key, 0) + c
        yield [(keys[1][e], line) for e, line in T.items()], P


def _solved(vars, order, slices):
    """(T, P) as CPolys in vars from the (T, P) slices of each order."""
    pairs = [(_slice(T), P) for T, P in slices]
    return CPoly(vars, order, [T for T, _ in pairs]), CPoly(vars, order, [P for _, P in pairs])


def solve_2sided(order):
    """Fixed point of T = 1/(1-tu) + t T(t) + t^2 u/(1-tu) T + t dd_u(uT, t);
    returns (T, P) with P = 2T - T(0) (see slices_2sided)."""
    return _solved(("u",), order, slices_2sided(order))


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

def lines_3sided(N):
    """(T, R, P) lines of the coupled Lemma system, order by order.

    T lies on anti-diagonal lines s = i + j and R on lines b, its w-exponent.
    DU carries t dd_u(uT, u->tv), DR carries t w dd_u(uR, u->t) and GR carries
    t^2 uw/(1-tu) R.  The single jumps: t T(tw, w) adds DU_n(0, s) to
    R_n(0, s), and tu R(t,u) + tv R(t,v) add DR_n(0, s) to T_n(s, 0) and
    T_n(0, s).
    """
    T, DU = [], []
    R = prevR = DR = GR = {}
    for n in range(N + 1):
        if n:
            DU = [_plus(t, d[1:]) for t, d in zip_longest(T, DU, fillvalue=())]
            DR, GR = _next_runs(R, prevR, DR, GR, 1)
        # T = 1 + DU + its mirror - t T + the jumps from DR
        T = [list(map(sub, map(add, d, reversed(d)), t)) for d, t in zip(DU, T)]
        T.append([0] * (n + 1) if n else [1])
        for s, d in DR.items():
            T[s][0] += d[0]
            T[s][s] += d[0]
        prevR, R = R, _runs_slice(DR, GR, n, [(s, d[0]) for s, d in enumerate(DU)])
        # P(t;u) = T(u,u) + 2 R(1,u) - 2 T(u,0) - t/(1-t)
        P = [sum(t) - 2 * t[s] for s, t in enumerate(T)]
        for b, r in R.items():
            P[b] += 2 * sum(r)
        if n:
            P[0] -= 1
        yield T, R, _u_slice(P)


def solve_3sided(order):
    """Fixed point of the coupled Lemma system; returns (T, R, P)."""
    tkeys = [[(i, s - i) for i in range(s + 1)] for s in range(order + 1)]
    rkeys = [[(a, b) for a in range(order + 1)] for b in range(order + 1)]
    Ts, Rs, Ps = [], [], []
    for T, R, P in lines_3sided(order):
        Ts.append(_slice(zip(tkeys, T)))
        Rs.append(_slice((rkeys[b], r) for b, r in R.items()))
        Ps.append(P)
    return CPoly(("u", "v"), order, Ts), CPoly(("u", "w"), order, Rs), CPoly(("u",), order, Ps)


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

def lines_4sided(N):
    """(T, P) lines of T = 1 + G(w,u) + G(w,v) + tw dd_u(uT,tv) + tw dd_v(vT,tu)
    - tw T with G(x,y) = t y T(x, tx, y), order by order.

    T[s][h] is the line of the keys (i, s-i, h).  E[s][h] is line (s, h+1) of
    DU, which carries tw dd_u(uT, u->tv): DU_(n+1)(i, j, h+1) = T_n(i, j, h) +
    DU_n(i+1, j-1, h+1).  By the u <-> v symmetry of T, G(w,v) + G(w,u) are the
    jumps that add DU_n(0, h, s), last two exponents swapped, to T_n(0, s, h)
    and T_n(s, 0, h).
    """
    T, E = [], []
    for n in range(N + 1):
        if n:
            E = [[_plus(t, e[1:]) for t, e in zip_longest(ts, es, fillvalue=())]
                 for ts, es in zip_longest(T, E, fillvalue=())]
        # T = 1 + DU + its mirror - tw T + the jumps; no DU term has h = 0
        T = [[[0] * (s + 1), *(list(map(sub, map(add, e, reversed(e)), t)) for e, t in zip(es, ts))]
             for s, (es, ts) in enumerate(zip(E, T))]
        T.append([[0] * (n + 1) if n else [1]])
        for h, es in enumerate(E):
            for s, e in enumerate(es, 1):
                T[s][h][0] += e[0]
                T[s][h][s] += e[0]
        P = [0] * (n + 1)  # P(t;u) = 1 + 4 T(u,u,u) - 4 T(0,u,u)
        for s, ts in enumerate(T):
            for e, t in enumerate(ts, s):
                P[e] += 4 * (sum(t) - t[0])
        yield T, _u_slice(P if n else [1])


def solve_4sided(order):
    """Fixed point of the 4-sided system (see lines_4sided); returns (T, P)."""
    keys = [[[(i, s - i, h) for i in range(s + 1)] for h in range(order + 1 - s)] for s in range(order + 1)]
    Ts, Ps = [], []
    for T, P in lines_4sided(order):
        Ts.append(_slice((k, t) for ks, ts in zip(keys, T) for k, t in zip(ks, ts)))
        Ps.append(P)
    return CPoly(("u", "v", "w"), order, Ts), CPoly(("u",), order, Ps)


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

def lines_triangular(N):
    """(R, P) lines of R = 1 + tu(1+t) R(u,tu) + tv(1+t) R(tv,v)
    + tv(1+t) dd_u(uR, tv) + tu(1+t) dd_v(vR, tu), order by order.

    R = 1 + (1+t) Y on anti-diagonal lines.  E carries tv dd_u(uR, u->tv):
    E_(n+1)(i, j+1) = R_n(i, j) + E_n(i+1, j), kept as F[s], line s+1 of E
    without its last entry, which is 0.  The jumps tv R(tv, v) and tu R(u, tu)
    add E_n(0, s) to Y_n(0, s) and Y_n(s, 0); with that jump put past F's end,
    a = F + [F[0]], Y's line s+1 is a + reversed(a).
    """
    R, Y, F = [], [], []
    for n in range(N + 1):
        if n:
            F = [_plus(r, f[1:]) for r, f in zip_longest(R, F, fillvalue=())]
        prevY, Y = Y, [[0], *(list(map(add, a, reversed(a))) for a in ([*f, f[0]] for f in F))]
        R = [list(map(add, p, y)) for p, y in zip(prevY, Y)] + Y[n:] if n else [[1]]
        P = [3 * (sum(r) - r[s]) for s, r in enumerate(R)]  # P(t;u) = 1 + 3 R(u,u) - 3 R(u,0)
        yield R, _u_slice(P if n else [1])


def solve_triangular(order):
    """Fixed point of the triangular system (see lines_triangular); returns (R, P)."""
    keys = [[(i, s - i) for i in range(s + 1)] for s in range(order + 1)]
    Rs, Ps = [], []
    for R, P in lines_triangular(order):
        Rs.append(_slice(zip(keys, R)))
        Ps.append(P)
    return CPoly(("u", "v"), order, Rs), CPoly(("u",), order, Ps)


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

def solve_2sided_refined_sum(order):
    """T(t,z;u) for top-enders with z marking X+Y; returns (T, P).

    P = 2T - T(u:=0); coefficient of t^n z^s u^i counts 2-sided walks of
    length n with X+Y = s at NE-distance i.
    """
    return _solved(("u", "z"), order, slices_2sided(order, "sum"))


def solve_2sided_diagonal(order):
    """(T, P) with Laurent z marking X-Y; P = T(z;u) + T(zbar;u) - T(z;0)."""
    return _solved(("u", "z"), order, slices_2sided(order, "diagonal"))
