"""Functional-equation solvers for the five walk families.

Each system is the last-inflating-step decomposition of its class, written as
a fixed point T = RHS(T) in which every T-dependent term carries at least one
extra power of t.  The solvers compute the unique fixed point slice by slice
in increasing t-order (equivalent to iterating the RHS from the zero series N
times, but each coefficient is computed once).  ``rhs_*`` apply one full RHS
pass through the generic CPoly operations; the solved series are their exact
fixed points, which the tests verify directly.

Divided-difference terms like (u*T(u,v) - tv*T(tv,v))/(u - tv) are expanded
monomial-wise: u^i -> sum_k t^k u^(i-k) v^(j+k), k = 0..i.
"""

from __future__ import annotations

from prudentwalks.series import CPoly, TSeries, geometric
from prudentwalks.walks import WalkClass

# The solvers truncate by t-order only: a contribution to slice m is kept iff
# m <= N, and no monomial is skipped for its degree.  Every stored monomial
# u^i v^j w^h at t^n has i+j+h <= n anyway, since the box dimensions are
# bounded by the length (checked by test_pruning_soundness).


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
    slices = [dict() for _ in range(N + 1)]
    acc = [dict() for _ in range(N + 1)]
    for n in range(N + 1):
        acc[n][n] = 1  # 1/(1-tu)
    for n in range(N + 1):
        cur = {i: c for i, c in acc[n].items() if c}
        slices[n] = cur
        for i, c in cur.items():
            # t * T[u:=t]
            m = n + 1 + i
            if m <= N:
                acc[m][0] = acc[m].get(0, 0) + c
            # t^2 u/(1-tu) * T
            for a in range(N - n - 1):
                m = n + 2 + a
                e = i + 1 + a
                acc[m][e] = acc[m].get(e, 0) + c
            # t * dd_u(u T, u -> t)
            for k in range(min(i, N - n - 1) + 1):
                m = n + 1 + k
                e = i - k
                acc[m][e] = acc[m].get(e, 0) + c
    T = CPoly(("u",), N)
    P = CPoly(("u",), N)
    for n in range(N + 1):
        for i, c in slices[n].items():
            T.slices[n][(i,)] = c
            P.slices[n][(i,)] = c if i == 0 else 2 * c
    return T, P


def rhs_2sided(T):
    """One application of the 2-sided RHS to a CPoly in u."""
    N = T.order
    one_tu = CPoly.geom(("u",), N, 1, (1,))
    out = one_tu.copy()
    out = out + T.substitute("u", "t").mul_mono(tpow=1)
    out = out + (one_tu * T).mul_mono((1,), 2)
    out = out + T.mul_mono((1,)).divided_difference("u", "t").mul_mono(tpow=1)
    return out


# --------------------------------------------------------------------------
# 3-sided walks: T(u,v) top-enders, R(u,w) right-enders
# --------------------------------------------------------------------------

def solve_3sided(order):
    """Fixed point of the coupled Lemma system; returns (T, R, P)."""
    N = order
    Ts = [dict() for _ in range(N + 1)]  # keys (i, j) exponents of u, v
    Rs = [dict() for _ in range(N + 1)]  # keys (a, b) exponents of u, w
    accT = [dict() for _ in range(N + 1)]
    accR = [dict() for _ in range(N + 1)]
    accT[0][(0, 0)] = 1  # empty walk
    for n in range(N + 1):
        accR[n][(n, 0)] = 1  # 1/(1-tu)

    def add(acc, m, key, c):
        acc[m][key] = acc[m].get(key, 0) + c

    for n in range(N + 1):
        curT = {k: c for k, c in accT[n].items() if c}
        curR = {k: c for k, c in accR[n].items() if c}
        Ts[n], Rs[n] = curT, curR
        for (i, j), c in curT.items():
            # T-equation: t dd_u(uT, u->tv) + t dd_v(vT, v->tu) - t T
            lim = N - n - 1
            if lim >= 0:
                for k in range(min(i, lim) + 1):
                    add(accT, n + 1 + k, (i - k, j + k), c)
                for k in range(min(j, lim) + 1):
                    add(accT, n + 1 + k, (i + k, j - k), c)
                add(accT, n + 1, (i, j), -c)
            # R-equation: t T(tw, w) -> slice n+1+i, key (0, i+j)
            m = n + 1 + i
            if m <= N:
                add(accR, m, (0, i + j), c)
        for (a, b), c in curR.items():
            # T-equation: tu R(t,u) + tv R(t,v); R(t,x): u_R := t, w -> x
            m = n + 1 + a
            if m <= N:
                add(accT, m, (b + 1, 0), c)
                add(accT, m, (0, b + 1), c)
            # R-equation: t^2 u w/(1-tu) R
            for e in range(N - n - 1):
                add(accR, n + 2 + e, (a + 1 + e, b + 1), c)
            # R-equation: t w dd_u(uR, u->t)
            for k in range(min(a, N - n - 1) + 1):
                add(accR, n + 1 + k, (a - k, b + 1), c)

    T = CPoly(("u", "v"), N)
    R = CPoly(("u", "w"), N)
    for n in range(N + 1):
        T.slices[n] = dict(Ts[n])
        R.slices[n] = dict(Rs[n])
    # P(t;u) = T(u,u) + 2 R(1,u) - 2 T(u,0) - t/(1-t)
    P = T.substitute("v", "u").reorder(("u",))
    P = P + (R.substitute("u", 1).reorder(("w",)).rename({"w": "u"}) * 2)
    P = P - (T.substitute("v", 0).reorder(("u",)) * 2)
    P = P - CPoly.from_tseries(("u",), geometric(N).shift(1))
    return T, R, P


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
    one_tu = CPoly.geom(("u", "w"), N, 1, (1, 0))
    T_tw_w = T.substitute("u", ("t", "v")).reorder(("v",)).rename({"v": "w"}).reorder(("u", "w"))
    Rp = one_tu.copy()
    Rp = Rp + (one_tu * R).mul_mono((1, 1), 2)
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
    slices = [dict() for _ in range(N + 1)]  # keys (i, j, h)
    acc = [dict() for _ in range(N + 1)]
    acc[0][(0, 0, 0)] = 1

    def add(m, key, c):
        acc[m][key] = acc[m].get(key, 0) + c

    for n in range(N + 1):
        cur = {k: c for k, c in acc[n].items() if c}
        slices[n] = cur
        for (i, j, h), c in cur.items():
            # G(w, u) = t u T(w, tw, u): monomial -> t^(j+1) u^(h+1) w^(i+j)
            m = n + 1 + j
            if m <= N:
                add(m, (h + 1, 0, i + j), c)
                add(m, (0, h + 1, i + j), c)  # G(w, v)
            lim = N - n - 1
            if lim >= 0:
                # t w dd_u(u T, u -> tv) and symmetric
                for k in range(min(i, lim) + 1):
                    add(n + 1 + k, (i - k, j + k, h + 1), c)
                for k in range(min(j, lim) + 1):
                    add(n + 1 + k, (i + k, j - k, h + 1), c)
                add(n + 1, (i, j, h + 1), -c)

    # the decomposition is symmetric in u, v; fail loudly if that ever breaks
    for n in range(min(N, 20) + 1):
        for (i, j, h), c in slices[n].items():
            if slices[n].get((j, i, h), 0) != c:
                raise RuntimeError("4-sided symmetry violated at t^%d" % n)
    T = CPoly(("u", "v", "w"), N)
    for n in range(N + 1):
        T.slices[n] = dict(slices[n])
    # P(t;u) = 1 + 4 T(u,u,u) - 4 T(0,u,u)
    P = CPoly.constant(("u",), N)
    for n in range(N + 1):
        tgt = P.slices[n]
        for (i, j, h), c in slices[n].items():
            e = i + j + h
            tgt[(e,)] = tgt.get((e,), 0) + 4 * c
            if i == 0:
                e0 = j + h
                tgt[(e0,)] = tgt.get((e0,), 0) - 4 * c
        for key in [k for k, c in tgt.items() if not c]:
            del tgt[key]
    return T, P


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
    slices = [dict() for _ in range(N + 1)]
    acc = [dict() for _ in range(N + 1)]
    acc[0][(0, 0)] = 1

    def add(m, key, c):
        if m <= N:
            acc[m][key] = acc[m].get(key, 0) + c

    for n in range(N + 1):
        cur = {k: c for k, c in acc[n].items() if c}
        slices[n] = cur
        for (i, j), c in cur.items():
            # tu(1+t) R(u, tu): v^j -> t^j u^j
            add(n + 1 + j, (i + j + 1, 0), c)
            add(n + 2 + j, (i + j + 1, 0), c)
            # tv(1+t) R(tv, v)
            add(n + 1 + i, (0, i + j + 1), c)
            add(n + 2 + i, (0, i + j + 1), c)
            # tv(1+t) dd_u(u R, u -> tv)
            for k in range(min(i, N - n - 1) + 1):
                add(n + 1 + k, (i - k, j + k + 1), c)
                add(n + 2 + k, (i - k, j + k + 1), c)
            # tu(1+t) dd_v(v R, v -> tu)
            for k in range(min(j, N - n - 1) + 1):
                add(n + 1 + k, (i + k + 1, j - k), c)
                add(n + 2 + k, (i + k + 1, j - k), c)

    R = CPoly(("u", "v"), N)
    for n in range(N + 1):
        R.slices[n] = dict(slices[n])
    # P(t;u) = 1 + 3 R(u,u) - 3 R(u,0)
    P = CPoly.constant(("u",), N)
    for n in range(N + 1):
        tgt = P.slices[n]
        for (i, j), c in slices[n].items():
            e = i + j
            tgt[(e,)] = tgt.get((e,), 0) + 3 * c
            if j == 0:
                tgt[(i,)] = tgt.get((i,), 0) - 3 * c
        for key in [k for k, c in tgt.items() if not c]:
            del tgt[key]
    return R, P


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
    N = order
    slices = [dict() for _ in range(N + 1)]  # keys (i, f): u- and z-exponents
    acc = [dict() for _ in range(N + 1)]
    for n in range(N + 1):
        acc[n][(n, -n)] = 1  # West run: z/(z - tu) = sum (t u / z)^m

    def add(m, key, c):
        acc[m][key] = acc[m].get(key, 0) + c

    for n in range(N + 1):
        cur = {k: c for k, c in acc[n].items() if c}
        slices[n] = cur
        for (i, f), c in cur.items():
            # t z T[u := t z]
            add_m = n + 1 + i
            if add_m <= N:
                add(add_m, (0, f + i + 1), c)
            # North step then m >= 1 West steps: sum_a t^(1+a) u^(i+a) z^(f+1-a)
            for a in range(1, N - n):
                add(n + 1 + a, (i + a, f + 1 - a), c)
            # North step then bounded East run: t z dd_u(u T, u -> t z)
            for k in range(min(i, N - n - 1) + 1):
                add(n + 1 + k, (i - k, f + 1 + k), c)

    T = CPoly(("u", "z"), N)
    P = CPoly(("u", "z"), N)
    for n in range(N + 1):
        for (i, f), c in slices[n].items():
            T.slices[n][(i, f)] = c
            P.slices[n][(i, f)] = c if i == 0 else 2 * c
    return T, P


def solve_2sided_diagonal(order):
    """P(t,z;u) with Laurent z marking X-Y; P = T(z;u) + T(zbar;u) - T(z;0)."""
    N = order
    slices = [dict() for _ in range(N + 1)]
    acc = [dict() for _ in range(N + 1)]
    for n in range(N + 1):
        acc[n][(n, -n)] = 1  # West run: each W is t u / z

    def add(m, key, c):
        acc[m][key] = acc[m].get(key, 0) + c

    for n in range(N + 1):
        cur = {k: c for k, c in acc[n].items() if c}
        slices[n] = cur
        for (i, f), c in cur.items():
            # t z T(zbar; t zbar): invert z, substitute u := t/z, multiply tz
            m = n + 1 + i
            if m <= N:
                add(m, (0, -f - i + 1), c)
            # North then West run (m >= 1): t^(1+a) u^(i+a) z^(f-1-a)
            for a in range(1, N - n):
                add(n + 1 + a, (i + a, f - 1 - a), c)
            # North then bounded East run: t zbar dd_u(u T, u -> t z)
            for k in range(min(i, N - n - 1) + 1):
                add(n + 1 + k, (i - k, f - 1 + k), c)

    T = CPoly(("u", "z"), N)
    for n in range(N + 1):
        T.slices[n] = dict(slices[n])
    P = T + T.invert_var("z") - T.substitute("u", 0)
    return T, P
