from collections import Counter
from fractions import Fraction

import pytest

from prudentwalks.closedforms import (
    kernel_root_at,
    q_series,
    three_sided_closed,
    three_sided_length_series,
    triangular_box_formula,
    triangular_closed,
    triangular_kernel_parametrization_residual,
    three_sided_q_homogeneity_residual,
    two_sided_closed,
    two_sided_endpoint_closed,
    two_sided_kernel_residual,
    x_kernel_residual,
    x_of_u,
    y_alg_residual_of,
    y_series,
)
from prudentwalks import closedforms, verify
from prudentwalks.funceq import (
    solve_2sided,
    solve_2sided_refined_sum,
    solve_3sided,
    solve_triangular,
)
from prudentwalks.series import CPoly, SeriesError, TSeries, ts_compose
from prudentwalks.walks import enumerate_tri_by_box
from test_series import _normalized


def _kernel_root_u_of_w(order):
    """U(t;w) from the fixed point U = t + tU^2 - t^2 U + twU(1-t^2), whose
    coefficients are integer polynomials in w: the reference for the root
    that `kernel_root_at` takes from the quadratic formula."""
    N = order
    slices = []
    for n in range(N + 1):
        cur = {(0,): 1} if n == 1 else {}
        for a in range(1, n - 1):  # + t U^2
            for (ja,), ca in slices[a].items():
                for (jb,), cb in slices[n - 1 - a].items():
                    cur[(ja + jb,)] = cur.get((ja + jb,), 0) + ca * cb
        for off, sgn, dj in ((2, -1, 0), (1, 1, 1), (3, -1, 1)):  # - t^2 U + t w U - t^3 w U
            if n >= off:
                for (j,), c in slices[n - off].items():
                    cur[(j + dj,)] = cur.get((j + dj,), 0) + sgn * c
        slices.append({k: c for k, c in cur.items() if c})
    return CPoly(("w",), N, slices)


def _bivariate_root(order):
    """U(t;w) from `kernel_root_at` on the variable w itself."""
    return kernel_root_at(CPoly.monomial(("w",), order, (1,)))


def test_kernel_root_bivariate():
    # (U - t)(1 - tU) = t w U (1 - t^2) as an identity in w and t
    N = 24
    U = _bivariate_root(N)
    wv = ("w",)
    t = CPoly.from_tseries(wv, TSeries.t(N))
    lhs = (U - t) * (CPoly.constant(wv, N) - U.shift(1))
    rhs = U.mul_mono((1,), 1) * CPoly.from_tseries(
        wv, TSeries.from_terms(N, {0: 1, 2: -1})
    )
    assert lhs == rhs
    # U(0) = t
    assert U.substitute("w", 0).specialize_ones() == TSeries.t(N)


def test_kernel_root_at_the_variable_matches_fixed_point():
    want = _kernel_root_u_of_w(40)
    for N in range(41):
        got = _bivariate_root(N)
        assert got.vars == ("w",) and got.order == N
        for g, w in zip(got.slices, want.slices[: N + 1], strict=True):
            assert g == w
            assert {k: type(c) for k, c in g.items()} == {k: type(c) for k, c in w.items()}


def _power(x, m):
    """x^m by repeated multiplication."""
    out = TSeries.one(x.order)
    for _ in range(m):
        out = out * x
    return out


def _u_of_uqi_by_substitution(i, order):
    """U(u q^i) = sum_j U_j(t) q^(i j) u^j, with U_j(t) the coefficient of w^j
    in the fixed-point U(t;w)."""
    q = q_series(order)
    out = CPoly(("u",), order)
    for (j,), coeff in _kernel_root_u_of_w(order).terms().items():
        piece = coeff * _power(q, i * j)
        for n, c in enumerate(piece.coeffs):
            if c:
                out.slices[n][(j,)] = c
    return out


def test_kernel_root_at_u_q_power_matches_substitution():
    N = 30
    q = q_series(N)
    for i in range(7):
        want = _u_of_uqi_by_substitution(i, N)
        for L in range(N + 1):
            got = kernel_root_at(CPoly.from_tseries(("u",), _power(q, i).truncate(L), (1,)))
            _assert_same_series([got], [want.truncate(L)])


def test_q_series_values():
    q = q_series(10)
    assert q.coeffs[:6] == [0, 1, 1, 1, 1, 2]
    # q is the power-series root of the 2-sided kernel
    N = 10
    lhs = (1 - q.shift(1)) * (q - TSeries.t(N))
    rhs = q.shift(1) * TSeries.from_terms(N, {0: 1, 2: -1})
    assert lhs == rhs


def test_compose_unit_dominance_allows_q():
    # U(t;w) has coefficient valuation >= w-exponent, so w := 1 is exact
    Uw = _bivariate_root(12)
    assert ts_compose(Uw, TSeries.one(12)) == q_series(12)


def test_kernel_root_at_matches_bivariate_root():
    # U(t;W) at its argument equals the fixed-point U(t;w) composed with W
    N = 40
    Uw = _kernel_root_u_of_w(N + 1)
    q = ts_compose(Uw, TSeries.one(N + 1))
    qp = TSeries.one(N + 1)
    for i in range(6):
        U = kernel_root_at(qp)
        assert U == ts_compose(Uw, qp)
        assert all(type(c) is int for c in U.coeffs)
        qp = qp * q
    # a rational argument gives odd numerators to halve
    W = TSeries([Fraction(1, 2), Fraction(-1, 3), 5], N + 1)
    U, want = kernel_root_at(W), _normalized(ts_compose(Uw, W))
    assert U == want and any(type(c) is Fraction for c in U.coeffs)
    assert [type(c) for c in U.coeffs] == [type(c) for c in want.coeffs]


def test_length_series_never_build_the_bivariate_root(monkeypatch):
    # the length series take every root over TSeries: the CPoly square root
    # of a bivariate U(t;w) (O(N^4)) stays out of them
    def refuse(self):
        raise AssertionError("CPoly.sqrt called")

    monkeypatch.setattr(CPoly, "sqrt", refuse)
    assert three_sided_length_series(30)[1].integer_coeffs()[:4] == [1, 4, 12, 34]
    for row in verify.ROUTES.values():
        if row.closed_form is not None:  # general prudent walks have no closed form
            row.closed_form(30)
    assert q_series(30).coeffs[:6] == [0, 1, 1, 1, 1, 2]


def test_closed_forms_are_integral_without_stored_zeros():
    # every closed form is built from ints over divisors with constant term
    # +-1, so each coefficient is an exact int and no CPoly keeps a zero term
    for order in [*range(13), 40]:
        outputs = [
            *two_sided_closed(order), two_sided_endpoint_closed(order),
            *three_sided_length_series(order), *three_sided_closed(order),
            *triangular_closed(order), y_series(order), x_of_u(order), q_series(order),
        ]
        for row in verify.ROUTES.values():
            if row.closed_form is not None:  # general prudent walks have no closed form
                outputs.append(row.closed_form(order))
        for out in outputs:
            if isinstance(out, TSeries):
                assert all(type(c) is int for c in out.coeffs), order
            else:
                assert all(type(c) is int and c for slc in out.slices for c in slc.values()), order


def test_compose_with_zero_gives_t():
    Uw = _bivariate_root(12)
    assert ts_compose(Uw, TSeries.zero(12)) == TSeries.t(12)


def _ts(order, terms):
    return TSeries.from_terms(order, terms)


def two_sided_p1_display(order):
    """The paper's displayed P(t;1) = (1+t-t^3 + t(1-t) sqrt((1-t^4)/(1-2t-t^2)))
    / (1-2t-2t^2+2t^3)."""
    N = order
    root = (_ts(N, {0: 1, 4: -1}) * _ts(N, {0: 1, 1: -2, 2: -1}).inv()).sqrt()
    num = _ts(N, {0: 1, 1: 1, 3: -1}) + _ts(N, {1: 1, 2: -1}) * root
    return num * _ts(N, {0: 1, 1: -2, 2: -2, 3: 2}).inv()


def test_two_sided_closed_matches_everything():
    U, P, P1 = two_sided_closed(14)
    assert U.coeffs[1:6] == [1, 1, 1, 1, 2]
    assert P1.integer_coeffs()[:6] == [1, 4, 10, 26, 66, 168]
    assert two_sided_p1_display(14) == P1
    # full catalytic agreement with the functional-equation route
    assert P == solve_2sided(14)[1]
    # the sqrt-formula root coincides with the fixed-point q, byte for byte
    assert U == q_series(14)
    assert U == ts_compose(_kernel_root_u_of_w(14), TSeries.one(14))


def _two_sided_p_by_products(order):
    """P(t;u) of two_sided_closed with each u-row pref U^m taken from the one
    before it by one series product."""
    U, P, _ = two_sided_closed(order)
    pref = P.terms().get((0,), TSeries.zero(order)) + 1
    want = CPoly(("u",), order)
    coeff, m = pref, 0
    while not coeff.is_zero():
        for n, c in enumerate(coeff.coeffs):
            if c:
                want.slices[n][(m,)] = c
        coeff, m = coeff * U, m + 1
    return P, want - 1


@pytest.mark.parametrize("order", [0, 1, 2, 3, 24, 120])
def test_two_sided_u_rows_match_one_product_per_power(order):
    got, want = _two_sided_p_by_products(order)
    assert got == want
    assert all(type(c) is int and c for slc in got.slices for c in slc.values())


def test_two_sided_u_rows_follow_the_kernel_recurrence():
    # t c_(m+2) = b c_(m+1) - t c_m, b = 1 - t + t^2 + t^3, for the u-rows
    # c_m = pref U^m (row 0 of P is pref - 1)
    N = 60
    P = two_sided_closed(N)[1]
    rows = P.terms()
    b = _ts(N, {0: 1, 1: -1, 2: 1, 3: 1})
    c = [rows[(0,)] + 1] + [rows.get((m,), TSeries.zero(N)) for m in range(1, N + 3)]
    assert all(not c[m].is_zero() for m in range(N + 1))
    for m in range(N + 1):
        assert c[m + 2].shift(1) == b * c[m + 1] - c[m].shift(1), m


def test_two_sided_closed_makes_a_fixed_number_of_series_products(monkeypatch):
    calls = Counter()
    product = TSeries.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return product(self, other)

    monkeypatch.setattr(TSeries, "__mul__", counted)
    monkeypatch.setattr(TSeries, "__rmul__", counted)
    counts = []
    for order in (60, 200):
        calls.clear()
        two_sided_closed(order)
        counts.append(calls["mul"])
    assert counts[0] == counts[1]


@pytest.mark.parametrize("order", [3, 17, 40])
def test_q_power_matches_repeated_products(order):
    q = q_series(order + 1)
    for L in (order + 1, order, order // 2):  # each power built at L
        q_power = closedforms._kernel_setup(order)[0]
        for m in range(26):
            got = q_power(m, L)
            assert got == _power(q, m).truncate(L), (L, m)
            assert all(type(c) is int for c in got.coeffs)


def test_two_sided_kernel_residual():
    assert two_sided_kernel_residual(40).is_zero()


def test_two_sided_endpoint_closed():
    for order in (0, 1, 2, 3, 4):  # the lowest orders too, where U is cut below t^2
        assert two_sided_endpoint_closed(order) == solve_2sided_refined_sum(order)[1]
    P = two_sided_endpoint_closed(10)
    ref = solve_2sided_refined_sum(10)[1]
    assert P == ref.truncate(P.order)
    # z = 1 reduces to the unrefined series
    z1 = P.substitute("z", 1).substitute("u", 1).specialize_ones()
    assert z1.integer_coeffs()[:6] == [1, 4, 10, 26, 66, 168]
    assert P.slices[1] == {(1, -1): 2, (0, 1): 2}


def test_two_sided_endpoint_kernel_root_quadratic():
    # (z - tU)(U - tz) = t U z^2 (1 - t^2) at U = z U(t;z), the root that
    # two_sided_endpoint_closed takes, and U(t,1) is the unrefined root
    N = 20
    zv = ("z",)
    U = kernel_root_at(CPoly.monomial(zv, N, (1,))).mul_mono((1,))
    z = CPoly.monomial(zv, N, (1,))
    residual = (z - U.shift(1)) * (U - z.shift(1)) - U.mul_mono(
        (2,), 1
    ) * CPoly.from_tseries(zv, TSeries.from_terms(N, {0: 1, 2: -1}))
    assert residual.is_zero()
    assert U.substitute("z", 1).specialize_ones() == q_series(N)


def test_three_sided_closed_cross_checks():
    T1t, Pu, P1 = three_sided_closed(12)
    T1f, P1f = three_sided_length_series(12)
    assert T1t == T1f.truncate(T1t.order)
    assert P1 == P1f.truncate(P1.order)
    assert P1.integer_coeffs()[:9] == [1, 4, 12, 34, 90, 236, 612, 1580, 4060]
    # Ptu-expr agrees with the iterated functional equation in full
    ref = solve_3sided(12)[2]
    assert Pu == ref.truncate(Pu.order)


def test_three_sided_closed_low_orders():
    # the 1 - t - tu - t^2 u denominator is truncated like every other factor
    expected = [[1], [1, 4], [1, 4, 12], [1, 4, 12, 34]]
    for order in range(4):
        P1 = three_sided_closed(order)[2]
        assert P1 == three_sided_length_series(order)[1]
        assert P1.integer_coeffs() == expected[order]


def test_three_sided_summand_valuations_grow():
    # successive summands gain at least three orders of valuation each, so
    # the measured-valuation auto truncation terminates
    N = 40
    Uw = _kernel_root_u_of_w(N + 1)
    q = ts_compose(Uw, TSeries.one(N + 1))
    A = TSeries.t(N) * (1 - q.truncate(N).shift(1)).inv()
    qp = TSeries.one(N + 1)
    numprod = TSeries.one(N)
    vals = [0]
    for i in range(1, 6):
        qp = qp * q
        numprod = numprod * (A - ts_compose(Uw, qp).truncate(N))
        vals.append(numprod.valuation())
    assert all(b >= a + 3 for a, b in zip(vals, vals[1:]))


def _full_order_setup(order):
    """closedforms._kernel_setup with every power q^m built at the full
    internal order order + 1 and only then cut to the order asked for."""
    M = order + 1
    q = q_series(M)
    qpow = [TSeries.one(M), q]

    def q_power(m, L):
        while len(qpow) <= m:
            qpow.append(qpow[-1] * q)
        return qpow[m].truncate(L)

    A = TSeries.t(M) * (1 - (q * TSeries.t(M))).inv()
    B = (1 - q.shift(1)) * TSeries.from_terms(M, {0: 1, 2: -1}).inv()
    return q_power, A, B


def _full_order_sum(u_at, A, B, order):
    """closedforms._kernel_sum with every root, numerator product, inverse
    and phi term of every summand at the full order."""
    M = order + 1
    one = A * 0 + 1
    phi_of = closedforms._phi
    u, u_next = u_at(0, M), u_at(1, M)
    phi, phi_next = phi_of(u).truncate(order), phi_of(u_next).truncate(order)
    total = one.truncate(order) * 0
    numprod = one
    invden = one / (B - u)
    k = 0
    while True:
        if k > 0:
            u, u_next = u_next, u_at(k + 1, M)
            phi, phi_next = phi_next, phi_of(u_next).truncate(order)
            numprod = numprod * (A - u)
            invden = invden * (one / (B - u))
        term = numprod.truncate(order) * invden.truncate(order) * (1 + phi + phi_next)
        if term.is_zero():
            break
        total = total + (term if k % 2 == 0 else -term)
        k += 1
    return total


def _three_sided_full_order(route, order):
    """route(order), a 3-sided expansion, through the full-order kernel sum
    above instead of the per-summand truncated one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closedforms, "_kernel_setup", _full_order_setup)
        mp.setattr(closedforms, "_kernel_sum", _full_order_sum)
        return route(order)


def _coefficient_types(x):
    if isinstance(x, TSeries):
        return [type(c) for c in x.coeffs]
    return [{key: type(c) for key, c in slc.items()} for slc in x.slices]


def _assert_same_series(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert _coefficient_types(g) == _coefficient_types(w)


def test_three_sided_truncated_summands_match_full_order():
    for order in (0, 1, 2, 5, 12, 30, 60):
        _assert_same_series(
            three_sided_length_series(order),
            _three_sided_full_order(three_sided_length_series, order),
        )
    for order in [*range(13), 16]:
        _assert_same_series(
            three_sided_closed(order), _three_sided_full_order(three_sided_closed, order)
        )


@pytest.mark.parametrize("route", [three_sided_length_series, three_sided_closed])
def test_three_sided_matches_full_order_at_orders_0_to_40(route):
    # every order cuts the summands at different places; each result is the
    # full-order reference at order 40 cut to its own order
    want = _three_sided_full_order(route, 40)
    for order in range(41):
        _assert_same_series(route(order), [x.truncate(order) for x in want])


def test_q_power_refuses_an_order_above_the_one_it_was_built_at():
    q_power = closedforms._kernel_setup(20)[0]
    q = q_series(21)
    assert q_power(3, 21) == q * q * q
    assert q_power(5, 12) == (q * q * q * q * q).truncate(12)
    assert q_power(3, 15) == q_power(3, 21).truncate(15)
    with pytest.raises(SeriesError):
        q_power(5, 13)  # q^5 was built to t^12
    with pytest.raises(SeriesError):
        q_power(6, 13)  # q^6 would be built from q^5


def test_q_homogeneity():
    assert three_sided_q_homogeneity_residual(40).is_zero()


def test_triangular_closed_values():
    Y, R1t, P1 = triangular_closed(14)
    assert P1.integer_coeffs()[:2] == [1, 6]
    assert P1.integer_coeffs() == solve_triangular(14)[1].specialize_ones().integer_coeffs()
    assert y_alg_residual_of(Y).is_zero()


def _triangular_full_order(order):
    """triangular_closed with every running factor at the full order N."""
    N = order
    Y = y_series(N)
    one = TSeries.one(N)
    YB = Y * TSeries.from_terms(N, {0: 1, 2: -2})
    total = TSeries.zero(N)
    ypow, numfac, invden = one, one, (one - YB).inv()
    k = 0
    while k * (k + 1) // 2 <= N:
        if k > 0:
            ypow = ypow * Y
            numfac = numfac * (TSeries.from_terms(N, {0: 1, 2: -2}) - Y.shift(k + 1))
            invden = invden * (one - YB.shift(k)).inv()
        term = ypow.shift(k * (k + 1) // 2) * numfac * invden
        if term.is_zero():
            break
        total = total + term
        k += 1
    R1t = (one + Y) * (one + Y.shift(1)) * total
    P1 = (
        1
        + TSeries.from_terms(N, {1: 6, 2: 6})
        * TSeries.from_terms(N, {0: 1, 1: -3, 2: -2}).inv()
        * (one + TSeries.from_terms(N, {1: 1, 2: 2}) * R1t)
    )
    return Y, R1t, P1


def test_triangular_truncated_summands_match_full_order():
    _assert_same_series(triangular_closed(60), _triangular_full_order(60))
    want = _triangular_full_order(40)
    for order in range(41):
        _assert_same_series(triangular_closed(order), [x.truncate(order) for x in want])


def test_triangular_kernel_parametrization():
    assert triangular_kernel_parametrization_residual(40).is_zero()


def test_x_series():
    assert x_kernel_residual(24).is_zero()
    X = x_of_u(12)
    Y = y_series(12)
    assert X.substitute("u", 1).specialize_ones().shift(1) == Y


def _x_of_u_every_prefix(order):
    """x_of_u recomputing W_0..W_n for every slice n of X = u/(1-t) W."""
    N = order
    slices = [dict() for _ in range(N + 1)]

    def sq(b):
        out = {}
        for a in range(b + 1):
            for (ja,), ca in slices[a].items():
                for (jb,), cb in slices[b - a].items():
                    out[(ja + jb,)] = out.get((ja + jb,), 0) + ca * cb
        return out

    for n in range(N + 1):
        cur = {}
        for b in range(n + 1):
            w_b = {(0,): 1} if b == 0 else {}
            parts = [slices[b - 1]] if b >= 1 else []
            if b >= 2:
                parts.append(slices[b - 2])
            if b >= 3:
                parts.append(sq(b - 3))
            for part in parts:
                for key, c in part.items():
                    w_b[key] = w_b.get(key, 0) + c
            for (j,), c in w_b.items():
                cur[(j + 1,)] = cur.get((j + 1,), 0) + c
        slices[n] = {k: c for k, c in cur.items() if c}
    return slices


def _x_of_u_fixed_point(order):
    """X(t;u) from X = u/(1-t) W, W = 1 + tX + t^2 X + t^3 X^2, one slice at a
    time: X_n = X_(n-1) + u W_n."""
    N = order
    slices = [dict() for _ in range(N + 1)]

    def sq(b):  # (X^2)_b
        out = {}
        for a in range(b + 1):
            for (ja,), ca in slices[a].items():
                for (jb,), cb in slices[b - a].items():
                    out[(ja + jb,)] = out.get((ja + jb,), 0) + ca * cb
        return out

    for n in range(N + 1):
        w_n = Counter(slices[n - 1] if n else {(0,): 1})
        if n >= 2:
            w_n.update(slices[n - 2])
        if n >= 3:
            w_n.update(sq(n - 3))
        cur = Counter(slices[n - 1] if n else {})
        cur.update({(j + 1,): c for (j,), c in w_n.items()})
        slices[n] = {k: c for k, c in cur.items() if c}
    return CPoly(("u",), N, slices)


def test_x_of_u_matches_every_prefix_recompute():
    for n in range(17):
        X = x_of_u(n)
        assert X.slices == _x_of_u_every_prefix(n)
        assert all(type(c) is int for slc in X.slices for c in slc.values())
    for n in (24, 40):
        _assert_same_series([x_of_u(n)], [_x_of_u_fixed_point(n)])


def test_box_formula_values():
    assert [triangular_box_formula(k)[0] for k in range(5)] == [
        1,
        12,
        144,
        1920,
        28800,
    ]
    total, r = triangular_box_formula(2)
    assert r[(1, 1)] == 16 and r[(0, 2)] == 32


def test_box_formula_vs_oracle():
    for k in range(4):
        assert triangular_box_formula(k) == enumerate_tri_by_box(k)


# --------------------------------------------------------------------------
# q-series identity (numerical check of the product form)
# --------------------------------------------------------------------------

def euler_identity_check(order, a):
    """Check sum_n t^C(n+1,2) (a;t)_n/(t;t)_n = prod_m (1+t^m)(1-a t^(2m-1))
    modulo t^(order+1) for a series `a` of valuation >= 1 (or zero)."""
    N = order
    if N == 0:
        return True
    a = a.truncate(N) if a.order > N else a
    if not a.is_zero() and a.valuation() < 1:
        raise SeriesError("needs a of valuation >= 1")
    one = TSeries.one(N)
    lhs = TSeries.zero(N)
    poch_a = one  # (a;t)_n
    inv_poch_t = one  # 1/(t;t)_n
    n = 0
    while n * (n + 1) // 2 <= N:
        lhs = lhs + (poch_a * inv_poch_t).shift(n * (n + 1) // 2)
        poch_a = poch_a * (one - a.shift(n))
        inv_poch_t = inv_poch_t * (one - TSeries.from_terms(N, {n + 1: 1})).inv()
        n += 1
    rhs = one
    va = a.valuation() if not a.is_zero() else N + 1
    m = 1
    while m <= N or va + 2 * m - 1 <= N:
        f = one + TSeries.from_terms(N, {m: 1}) if m <= N else one
        g = one - a.shift(2 * m - 1) if va + 2 * m - 1 <= N else one
        rhs = rhs * f * g
        m += 1
    return lhs == rhs


def test_euler_identity_zero_case():
    assert euler_identity_check(30, TSeries.zero(30))
    assert euler_identity_check(0, TSeries.zero(2))


def test_euler_identity_comment_value():
    # a = t^3/(1-2t^2)^2 reproduces the product form of the especially
    # simple specialization of the right-edge series
    N = 30
    a = TSeries.from_terms(N, {3: 1}) * (
        TSeries.from_terms(N, {0: 1, 2: -2}) * TSeries.from_terms(N, {0: 1, 2: -2})
    ).inv()
    assert euler_identity_check(N, a)
