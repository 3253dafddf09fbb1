"""Closed-form expansions: the algebraic 2-sided solution, the iterated
3-sided sum, the triangular q-series, and the box-spanning formulas.

Each kernel root and algebraic series is the power-series root of a
quadratic, taken by `_quadratic_root` from the quadratic formula over TSeries
or CPoly alike: the kernel root U(t;W) at each argument W it is needed at (a
series, or u q^i and z themselves), Y and X(t;u).  Each power of q = U(t;1)
past the first (the u-rows pref q^m of the 2-sided P(t;u), the q^i of the
3-sided sums) follows from the two before it by q's quadratic, in O(N).  Each
kernel-root series is checked against its defining algebraic equation;
infinite sums and products are truncated automatically by measuring when the
next summand or factor stops contributing below the truncation order (their
valuations increase strictly, so the loops terminate), and each summand is
carried only to the orders it reaches.
"""

from __future__ import annotations

from math import factorial
from operator import mul

from prudentwalks.series import CPoly, TSeries, half


def _ts(order, terms):
    return TSeries.from_terms(order, terms)


def _raised(x, v, order):
    """t^v x to t^order, for a TSeries or CPoly x known to t^(order - v)."""
    if isinstance(x, TSeries):
        return TSeries([0] * v + x.coeffs, order)
    return CPoly(x.vars, order, [{} for _ in range(v)] + x.slices)


# --------------------------------------------------------------------------
# kernel roots
# --------------------------------------------------------------------------

def _quadratic_root(b, c, s, mono=None):
    """The power-series root x = (b - sqrt(b^2 - 4ac)) / (2a) of
    a x^2 - b x + c with a = t^s mono, over TSeries or CPoly alike (an
    exponent tuple mono only over CPoly).  b has constant term 1; with b and
    c known to t^(N+s), x is known to t^N.  The halving is coefficient-wise."""
    ac = c.shift(s) if mono is None else c.mul_mono(mono, s)
    num = (b - (b * b - ac * 4).sqrt()).shift_down(s)
    if isinstance(num, TSeries):
        return TSeries(map(half, num.coeffs), num.order)
    if mono is not None:
        num = num.mul_mono([-e for e in mono])
    halved = [{key: half(x) for key, x in slc.items()} for slc in num.slices]
    return CPoly(num.vars, num.order, halved)


def kernel_root_at(w):
    """U(t;W), to W's order, for W a TSeries or a CPoly (the variable w
    itself gives the bivariate U(t;w)): the power-series root of
    (U-t)(1-tU) = t W U (1-t^2), i.e. of tU^2 - bU + t with
    b = 1 + t^2 - tW(1-t^2).  Integer W gives integer coefficients, since
    sqrt(1-4y) has them."""
    N = w.order  # b is known to t^(N+1)
    tw = _raised(w * _ts(N, {0: 1, 2: -1}), 1, N + 1)
    one = tw * 0 + 1  # the unit of W's ring
    return _quadratic_root(one + one.shift(2) - tw, one.shift(1), 1)


def q_series(order):
    """q(t) = U(t;1), the power-series kernel root of the 2-sided class."""
    return kernel_root_at(TSeries.one(order))


def y_series(order):
    """Y(t) = (1 - 2t - t^2 - sqrt((1-t)(1-3t-t^2-t^3)))/(2 t^2), the root
    of t^2 Y^2 - (1 - 2t - t^2) Y + t.

    Satisfies Y = t/(1-t) (1+Y)(1+tY); integer coefficients.
    """
    N = order + 2
    Y = _quadratic_root(_ts(N, {0: 1, 1: -2, 2: -1}), TSeries.t(N), 2)
    if not y_alg_residual_of(Y).is_zero():
        raise RuntimeError("Y fails its algebraic equation")
    return Y


def y_alg_residual_of(Y):
    """Y - t/(1-t)(1+Y)(1+tY), which must vanish identically."""
    N = Y.order
    one = TSeries.one(N)
    rhs = TSeries.t(N) * (one + Y) * (one + Y.shift(1)) / _ts(N, {0: 1, 1: -1})
    return Y - rhs


def x_of_u(order):
    """X(t;u): the power series with u(1+tX)(1+t^2 X) = X(1-t), the root of
    u t^3 X^2 - (1 - t - ut - ut^2) X + u.

    CPoly over ("u",) with integer coefficients; X(t;1) = Y/t.
    """
    uvar, N = ("u",), order + 3
    b = CPoly.from_tseries(uvar, _ts(N, {0: 1, 1: -1})) - CPoly.from_tseries(
        uvar, _ts(N, {1: 1, 2: 1}), (1,)
    )
    return _quadratic_root(b, CPoly.monomial(uvar, N, (1,)), 3, (1,))


def one_sided_closed(order):
    """P(t;1) = (1+t)/(1-2t-t^2) for 1-sided (partially directed) walks."""
    return _ts(order, {0: 1, 1: 1}) / _ts(order, {0: 1, 1: -2, 2: -1})


# --------------------------------------------------------------------------
# 2-sided closed form (kernel method, one catalytic variable)
# --------------------------------------------------------------------------

def _times_q(prev, cur, q):
    """cur q to cur's order L, for cur = prev q and q = U(t;1), in O(L).

    q solves t q^2 - b q + t with b = 1 - t + t^2 + t^3, so
    t cur q = b cur - t prev: below t^L, (cur q)_n = cur_(n+1) - cur_n +
    cur_(n-1) + cur_(n-2) - prev_n.  The t^L coefficient would need cur to
    t^(L+1) and is one dot product with q instead."""
    L, c = cur.order, [0, 0, *cur.coeffs]
    low = [a - b + d + e - p for a, b, d, e, p in zip(c[3:], c[2:], c[1:], c, prev.coeffs)]
    return TSeries([*low, sum(map(mul, cur.coeffs, q.coeffs[L::-1]))], L)


def two_sided_closed(order):
    """U, P(t;u) and P(t;1) for 2-sided walks.

    U = U(t;1) = (1 - t + t^2 + t^3 - sqrt((1-t^4)(1-2t-t^2)))/(2t);
    P(t;u) = 2(1-t^2)(1-t) U / ((1-uU)(1-tU)(2t-U)) - 1.
    """
    U1 = kernel_root_at(TSeries.one(order + 1))
    U = U1.truncate(order)
    V = U1.shift_down(1)  # U/t, constant term 1
    # U/(2t - U) = V/(2 - V); 2 - V has constant term 1
    body = V / (2 - V)
    pref = _ts(order, {0: 2, 2: -2}) * _ts(order, {0: 1, 1: -1}) * body / (1 - U.shift(1))
    # 1/(1 - uU) = sum_m u^m U^m; coeff runs through pref * U^m, the powers
    # past the first by the kernel recurrence
    P = CPoly(("u",), order)
    row, nxt = pref, pref * U
    for m in range(order + 1):  # pref U^m has valuation m
        for n, c in enumerate(row.coeffs):
            if c:
                P.slices[n][(m,)] = c
        row, nxt = nxt, _times_q(row, nxt, U)
    P = P - 1
    P1 = P.specialize_ones()
    return U, P, P1


def two_sided_endpoint_closed(order):
    """P(t,z;u) for 2-sided walks with z marking X+Y (Laurent in z).

    P = 2 z^3 (1-t^2)(1-tz) U / ((z^2-uU)(z-tU)(2tz-U)) - 1 at U = U(t,z).
    """
    uz = ("u", "z")
    # (z - tU)(U - tz) = t U z^2 (1 - t^2) becomes the plain kernel at w = z
    # for U = zV, so U(t,z) = z U(t;z)
    U = kernel_root_at(CPoly.monomial(uz, order + 1, (0, 1))).mul_mono((0, 1))
    V = U.mul_mono((0, -1)).shift_down(1)  # U/(tz), constant term 1
    N = V.order
    # 2 z^3/((z^2-uU)(z-tU)) = 2/((1 - u U z^-2)(1 - t U z^-1)), U/(2tz-U) = V/(2-V)
    pref = V / (2 - V) * _ts(N, {0: 2, 2: -2}) * (1 - CPoly.monomial(uz, N, (0, 1), tpow=1))
    U = U.truncate(N)
    return pref / (1 - U.mul_mono((1, -2))) / (1 - U.mul_mono((0, -1), 1)) - 1


# --------------------------------------------------------------------------
# 3-sided closed form (iterated kernel sum)
# --------------------------------------------------------------------------

def _phi(x):
    """(x - t)/(t (1 - t x)) for a kernel-root series x = t + O(t^2), over
    TSeries or CPoly alike."""
    N = x.order
    return (x.shift_down(1) - 1) / (1 - x.truncate(N - 1).shift(1))


def _kernel_setup(order):
    """(q_power, A, B) shared by both 3-sided expansions.

    q = U(t;1), A = t/(1-tq) and B = tq/(q-t) = (1-tq)/(1-t^2) are kept to
    the internal order order + 1, since phi consumes one.  q_power(m, L) is
    q^m to t^L; each new power is built from the two before it by `_times_q`
    at the order L its caller asks for,
    and the callers' L never rises, so a power asked for above the order it
    was built at raises SeriesError (from `truncate`) instead of coming back
    short.
    """
    M = order + 1
    q = q_series(M)
    qpow = [TSeries.one(M), q]

    def q_power(m, L):
        while len(qpow) <= m:
            qpow.append(_times_q(qpow[-2], qpow[-1].truncate(L), q))
        return qpow[m].truncate(L)

    A = TSeries.t(M) / (1 - q.shift(1))
    B = (1 - q.shift(1)) / _ts(M, {0: 1, 2: -1})
    return q_power, A, B


def _kernel_sum(u_at, A, B, order):
    """The iterated kernel sum for T(t;u,tu), over TSeries or CPoly alike:

        sum_k (-1)^k prod_{1<=i<=k} (A - U_i) / prod_{i<=k} (B - U_i)
                     * (1 + phi(U_k) + phi(U_{k+1})),

    with U_i to t^L given by u_at(i, L).  The ratio of products is carried as
    one running quotient quot = prod (A - U_i) / prod (B - U_i) / t^v_k: step
    k multiplies it by A - U_k, measures the valuation w of that product (at
    least 3; since prod (B - U_i) is a unit, it is what the numerator's
    valuation v_k gains), divides by t^w and then by B - U_k.  So quot,
    phi(U_k), phi(U_{k+1}) and U_{k+1} (to t^(L+1), since phi consumes one)
    are carried only to L = order - v_k, and each summand is raised by t^v_k
    into the total.  The loop stops once the numerator, hence the summand,
    vanishes modulo t^(order+1).
    """
    N = order
    one = A * 0 + 1  # the unit of A's ring, at the internal order
    u, u_next = u_at(0, N + 1), u_at(1, N + 1)
    phi, phi_next = _phi(u), _phi(u_next)
    total = one.truncate(N) * 0
    quot = one / (B - u.truncate(N))
    v = k = 0
    while True:
        if k > 0:  # U_k and phi(U_k) carry over from step k-1
            u = u_next
            num = quot * (A - u)
            w = num.valuation()
            if w is None:
                break
            v += w
            L = N - v
            quot = num.shift_down(w) / (B - u.truncate(L))
            u_next = u_at(k + 1, L + 1)
            phi, phi_next = phi_next.truncate(L), _phi(u_next)
        term = quot * (1 + phi + phi_next)
        total = total + _raised(term if k % 2 == 0 else -term, v, N)
        k += 1
    return total


def three_sided_length_series(order):
    """(T(t;1,t), P(t;1)) for 3-sided walks from the iterated sum at u=1."""
    N = order
    q_power, A, B = _kernel_setup(N)

    def u_of_qi(i, L):
        """U(q^i) to t^L as a TSeries."""
        return q_power(1, L) if i == 0 else kernel_root_at(q_power(i, L))  # U(1) = q

    T = _kernel_sum(u_of_qi, A, B, N)
    qN = q_power(1, N)
    P1 = (
        (2 * qN.shift(2) * T + _ts(N, {0: 1, 1: 1}) * (_ts(N, {0: 2, 1: -1}) - qN.shift(2)) / (1 - qN.shift(1)))
        / _ts(N, {0: 1, 1: -2, 2: -1})
        - TSeries.one(N) / _ts(N, {0: 1, 1: -1})
    )
    return T, P1


def three_sided_closed(order):
    """(T(t;1,t), P(t;u), P(t;1)) for 3-sided walks.

    P(t;u) follows the rational expression in U(u) and T(u,tu); its second
    term carries an explicit (1-u) factor, so the u=1 specialization reduces
    to the displayed length series.
    """
    q_power, A, B = _kernel_setup(order)
    uvar = ("u",)

    def u_of_uqi(i, L):
        """U(u q^i) to t^L as a CPoly in u."""
        return kernel_root_at(CPoly.from_tseries(uvar, q_power(i, L), (1,)))

    T = _kernel_sum(u_of_uqi, CPoly.from_tseries(uvar, A), CPoly.from_tseries(uvar, B), order)
    Nt = T.order
    Uu = u_of_uqi(0, Nt)
    one_t = CPoly.from_tseries(uvar, _ts(Nt, {0: 1, 1: 1}))
    r = one_t / (1 - Uu.shift(1))  # (1+t)/(1-tU)
    # 1 - t - tu - t^2 u, truncated like every other factor at t^Nt
    den2 = CPoly.from_tseries(uvar, _ts(Nt, {0: 1, 1: -1})) - CPoly.from_tseries(
        uvar, _ts(Nt, {1: 1, 2: 1}), (1,)
    )
    P = (
        Uu.shift(2) * T * 2
        + (CPoly.from_tseries(uvar, _ts(Nt, {0: 2, 1: -1})) - Uu.shift(2)) * r
        - (1 - Uu) * one_t * (1 - CPoly.monomial(uvar, Nt, (1,))) * (T.shift(2) + r.shift(1)) * 2 / den2
    ) / _ts(Nt, {0: 1, 1: -2, 2: -1})
    P = P - CPoly.constant(uvar, Nt) / _ts(Nt, {0: 1, 1: -1})
    T1t = T.specialize_ones()
    P1 = P.specialize_ones()
    return T1t, P, P1


# --------------------------------------------------------------------------
# triangular closed form (q-series)
# --------------------------------------------------------------------------

def triangular_closed(order):
    """(Y, R(t;1,t), P(t;1)) for triangular prudent walks.

    R(t;1,t) = (1+Y)(1+tY) sum_k t^C(k+1,2) (Y(1-2t^2))^k / (Y(1-2t^2);t)_{k+1}
    * (Y t^2/(1-2t^2); t)_k, with the (1-2t^2) powers cancelled exactly:
    (Y(1-2t^2))^k (Yt^2/(1-2t^2);t)_k = Y^k prod_i (1-2t^2 - Y t^(2+i)).
    Summand k starts at t^C(k+1,2) and is carried divided by it, to order
    L = N - C(k+1,2), as one running quotient: summand k is summand k-1 times
    Y (1 - 2t^2 - Y t^(k+1)) / (1 - Y(1-2t^2) t^k).
    """
    N = order
    Y = y_series(N)
    one = TSeries.one(N)
    YB = Y * _ts(N, {0: 1, 2: -2})  # Y (1-2t^2)
    Y2 = Y * Y
    total = TSeries.zero(N)
    summand = one / (one - YB)  # 1 / (Y(1-2t^2); t)_1
    k = 0
    while True:
        tri = k * (k + 1) // 2
        if tri > N:
            break
        if k > 0:
            # a product has the lower order of its factors
            summand = summand.truncate(N - tri) * (YB - Y2.shift(k + 1)) / (1 - YB.shift(k))
        term = _raised(summand, tri, N)
        if term.is_zero():
            break
        total = total + term
        k += 1
    R1t = (one + Y) * (one + Y.shift(1)) * total
    P1 = 1 + _ts(N, {1: 6, 2: 6}) * (one + _ts(N, {1: 1, 2: 2}) * R1t) / _ts(N, {0: 1, 1: -3, 2: -2})
    return Y, R1t, P1


def triangular_box_total(k):
    """2^(k-1) (k+1) (k+2)!, the number of walks spanning a size-k box."""
    return (2 ** k * (k + 1) * factorial(k + 2)) // 2


def triangular_box_r(i, j):
    """Spanning walks ending on the right edge at distances (i, j), i+j = k.

    Coefficient of u^i v^j in (2^k (k+2)!/6)(u^k + v^k + sum_{a+b=k} u^a v^b):
    the two-case display of the formula assumes k >= 1; at k = 0 the three
    terms coincide and the coefficient is 1.
    """
    k = i + j
    weight = 1 + (1 if i == k else 0) + (1 if j == k else 0)
    return (2 ** k * factorial(k + 2) * weight) // 6


def triangular_box_formula(k):
    """(total, {(i, j): count}) from the closed formulas."""
    return triangular_box_total(k), {
        (i, k - i): triangular_box_r(i, k - i) for i in range(k + 1)
    }


# --------------------------------------------------------------------------
# kernel identities (series-level checks of the solution structure)
# --------------------------------------------------------------------------

def two_sided_kernel_residual(order):
    """(1-tU)(U-t) - tU(1-t^2) at the 2-sided kernel root U; must vanish."""
    U = q_series(order)
    t = TSeries.t(order)
    return (1 - U.shift(1)) * (U - t) - U.shift(1) * _ts(order, {0: 1, 2: -1})


def three_sided_q_homogeneity_residual(order):
    """K(u, qu) for K(u,v) = (u-tv)(v-tu) - tuv(1-t^2); vanishes since the
    kernel is homogeneous and q = U(t;1) cancels it."""
    N = order
    u = CPoly.monomial(("u",), N, (1,))
    v = u * q_series(N)
    return (u - v.shift(1)) * (v - u.shift(1)) - u * v * _ts(N, {1: 1, 3: -1})


def triangular_kernel_parametrization_residual(order):
    """K(U(x), U(tx)) as a polynomial identity in x mod t^(order+1), with
    U(x) = x(1-t)/((1+tx)(1+t^2x)) and K(u,v) = (u-tv)(v-tu) - tuv(1-t^2)(u+v)."""
    N = order
    xv = ("x",)
    x = CPoly.monomial(xv, N, (1,))
    one = CPoly.constant(xv, N)
    u = x * _ts(N, {0: 1, 1: -1}) / ((one + x.shift(1)) * (one + x.shift(2)))
    v = u.substitute("x", ("t", "x"))  # U(tx)
    return (u - v.shift(1)) * (v - u.shift(1)) - (
        u * v * (u + v) * CPoly.from_tseries(xv, _ts(N, {1: 1, 3: -1}))
    )


def x_kernel_residual(order):
    """u(1+tX)(1+t^2X) - X(1-t) for X = x_of_u; must vanish."""
    N = order
    X = x_of_u(N)
    uvar = ("u",)
    one = CPoly.constant(uvar, N)
    lhs = CPoly.monomial(uvar, N, (1,)) * (one + X.shift(1)) * (one + X.shift(2))
    rhs = X * CPoly.from_tseries(uvar, _ts(N, {0: 1, 1: -1}))
    return lhs - rhs
