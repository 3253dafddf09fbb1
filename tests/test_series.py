import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prudentwalks.series import (
    CPoly,
    SeriesError,
    TSeries,
    _packed_products,
    _packing,
    ts_compose,
)


def ts(order, terms):
    return TSeries.from_terms(order, terms)


def _normalized(p):
    """p with integral Fractions as ints and no stored zeros: the form in
    which series built by different routes from rational or hand-summed data
    compare by value and type."""
    def demote(c):
        return c.numerator if type(c) is Fraction and c.denominator == 1 else c

    if isinstance(p, TSeries):
        return TSeries(map(demote, p.coeffs), p.order)
    return CPoly(p.vars, p.order, [
        {key: demote(c) for key, c in slc.items() if c} for slc in p.slices
    ])


# -- inverse ----------------------------------------------------------------

def test_inv_geometric():
    assert ts(8, {0: 1, 1: -1}).inv().coeffs == [1] * 9


def test_inv_pell():
    # long-division oracle: b_n = 2 b_(n-1) + b_(n-2)
    b = [1, 2]
    while len(b) < 9:
        b.append(2 * b[-1] + b[-2])
    assert ts(8, {0: 1, 1: -2, 2: -1}).inv().coeffs == b


def test_partially_directed_series():
    got = ts(6, {0: 1, 1: 1}) * ts(6, {0: 1, 1: -2, 2: -1}).inv()
    assert got.coeffs == [1, 3, 7, 17, 41, 99, 239]


def test_inv_zero_constant_rejected():
    with pytest.raises(SeriesError):
        ts(4, {1: 1}).inv()


# -- sqrt -------------------------------------------------------------------

def test_sqrt_one():
    assert TSeries.one(6).sqrt() == TSeries.one(6)


def test_sqrt_product_form():
    a = ts(8, {0: 1, 4: -1}) * ts(8, {0: 1, 1: -2, 2: -1})
    r = a.sqrt()
    assert (r * r) == a
    assert r.coeffs[:7] == [1, -1, -1, -1, -2, -2, -4]


def test_sqrt_quotient_form():
    a = ts(8, {0: 1, 4: -1}) * ts(8, {0: 1, 1: -2, 2: -1}).inv()
    r = a.sqrt()
    assert (r * r) == a
    assert r.coeffs[:6] == [1, 1, 2, 4, 8, 18]


def test_sqrt_needs_unit_constant():
    with pytest.raises(SeriesError):
        ts(4, {0: 4}).sqrt()


def _sqrt_by_halving(a):
    """TSeries.sqrt as a single exact recurrence, 2 r_m = a_m - sum r_k r_(m-k),
    halving every numerator in Fraction arithmetic and keeping an integral
    half as an int."""
    out = [1] + [0] * a.order
    for m in range(1, a.order + 1):
        h = Fraction(a.coeffs[m] - sum(out[k] * out[m - k] for k in range(1, m) if out[k])) / 2
        out[m] = h.numerator if h.denominator == 1 else h
    return out


def test_sqrt_scaled_tail_equals_halving_recurrence():
    # an integer series switches to the integer recurrence for 4^m r_m at
    # its first odd numerator; values and types (an int wherever the value
    # is integral) must match the plain recurrence: a perfect square b*b never switches, b*b + t^k switches
    # at k, and a random series usually at once
    rng = random.Random(1)
    for trial in range(240):
        order = rng.randrange(0, 40)
        b = TSeries([1] + [rng.randrange(-9, 10) for _ in range(order)], order)
        if trial % 3 == 0:
            a = b * b
        elif trial % 3 == 1:
            a = b * b + TSeries.from_terms(order, {rng.randrange(1, order + 2): 1})
        else:
            a = b
        r = a.sqrt()
        want = _sqrt_by_halving(a)
        assert [(type(c), c) for c in r.coeffs] == [(type(c), c) for c in want]
        assert r * r == a


def test_tseries_and_cpoly_sqrt_agree_in_value_and_type():
    # TSeries.sqrt takes an integer series' tail through 4^m r_m, CPoly.sqrt
    # halves through half: both give an int wherever a coefficient is integral
    rng = random.Random(8)
    for _ in range(200):
        order = rng.randrange(0, 30)
        a = TSeries([1] + [rng.randrange(-9, 10) for _ in range(order)], order)
        r = a.sqrt()
        want = [{(0,): (type(c), c)} if c else {} for c in r.coeffs]
        got = CPoly.from_tseries(("u",), a).sqrt().slices
        assert [{key: (type(c), c) for key, c in slc.items()} for slc in got] == want


# -- hypothesis properties --------------------------------------------------

coeffs_strategy = st.lists(
    st.one_of(st.integers(-9, 9), st.fractions(max_denominator=7)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(coeffs_strategy)
def test_mul_inv_roundtrip(cs):
    cs[0] = 1 if cs[0] == 0 else cs[0]
    a = TSeries(cs, 7)
    assert (a * a.inv()) == TSeries.one(7)


@settings(max_examples=60, deadline=None)
@given(coeffs_strategy)
def test_sqrt_square_roundtrip(cs):
    cs[0] = 1
    a = TSeries(cs, 7)
    r = a.sqrt()
    assert (r * r) == a
    assert r.coeffs[0] == 1


@settings(max_examples=40, deadline=None)
@given(coeffs_strategy, coeffs_strategy)
def test_mul_commutes_and_truncates(ca, cb):
    a, b = TSeries(ca, 7), TSeries(cb, 5)
    p = a * b
    assert p == b * a
    assert p.order == 5


def _double_loop_mul(a, b):
    """TSeries product coefficients by the double loop over both factors."""
    order = min(a.order, b.order)
    out = [0] * (order + 1)
    for i in range(order + 1):
        ai = a.coeffs[i]
        if ai:
            for j in range(order + 1 - i):
                bj = b.coeffs[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def test_tseries_mul_matches_double_loop():
    # sparse and dense factors, ints and Fractions (zero Fractions too), on
    # either side and at unequal orders: same values and coefficient types
    rng = random.Random(20081)

    def random_series(order, density, fractions):
        cs = []
        for _ in range(order + 1):
            c = rng.randint(-9, 9) if rng.random() < density else 0
            if fractions and rng.random() < 0.5:
                c = Fraction(c, rng.randint(1, 4))
            cs.append(c)
        return TSeries(cs, order)

    for _ in range(400):
        a = random_series(rng.randint(0, 40), rng.choice((0.05, 0.3, 1.0)), rng.random() < 0.5)
        b = random_series(rng.randint(0, 40), rng.choice((0.05, 0.3, 1.0)), rng.random() < 0.5)
        got, want = (a * b).coeffs, _double_loop_mul(a, b)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]


# -- compose ----------------------------------------------------------------

def test_compose_identity():
    w = CPoly.monomial(("w",), 6, (1,))
    assert ts_compose(w, TSeries.t(6)) == TSeries.t(6)


def test_negative_order_is_refused():
    # as for TSeries: no CPoly has an order below 0, however it is built
    for order in (-1, -5):
        with pytest.raises(SeriesError, match="order must be >= 0"):
            CPoly(("u",), order)
        with pytest.raises(SeriesError, match="order must be >= 0"):
            CPoly(("u", "v"), order, [])
    assert CPoly(("u",), 0).slices == [{}]
    # so dividing a zero series by a power of t beyond its order is refused too
    for k in (3, 4):
        with pytest.raises(SeriesError, match="order must be >= 0"):
            CPoly(("u",), 2).shift_down(k)


def test_negative_shift_is_refused():
    # division by t^k is shift_down's: a negative power of t wrote slices at
    # negative list indices, t^-1 * 1 landing at t^3 of an order-3 series
    p = CPoly.constant(("u",), 3)
    for shifted in (lambda: p.mul_mono(tpow=-1), lambda: p.mul_mono((1,), -2), lambda: p.shift(-1)):
        with pytest.raises(SeriesError, match="negative shift"):
            shifted()
    assert p.shift(0) == p and p.mul_mono(tpow=3).slices == [{}, {}, {}, {(0,): 1}]


def test_compose_rejects_unit_without_dominance():
    # sum_j w^j at t^0 violates valuation dominance: w := 1 must be refused
    f = CPoly(("w",), 4)
    for j in range(5):
        f.slices[0][(j,)] = 1
    with pytest.raises(SeriesError):
        ts_compose(f, TSeries.one(4))


def test_compose_zero_keeps_constant_term():
    f = CPoly(("w",), 5)
    f.slices[1][(0,)] = 1
    f.slices[2][(1,)] = 3
    assert ts_compose(f, TSeries.zero(5)) == TSeries.from_terms(5, {1: 1})


# -- substitution -----------------------------------------------------------

def test_substitute_zero():
    f = CPoly(("u",), 4)
    f.slices[0][(1,)] = 5  # u*5
    f.slices[1][(0,)] = 2  # 2t
    assert f.substitute("u", 0) == CPoly.from_tseries(("u",), ts(4, {1: 2}))


def test_substitute_t_times_var():
    # u^2 c(t) -> t^2 v^2 c(t)
    f = CPoly.monomial(("u", "v"), 6, (2, 0), tpow=1) * 3
    got = f.substitute("u", ("t", "v"))
    assert got == CPoly.monomial(("u", "v"), 6, (0, 2), tpow=3) * 3


def test_substitute_unsupported_image_rejected():
    f = CPoly.monomial(("u", "v"), 4, (1, 0))
    for image in (
        ("q", "u"), 2, TSeries.t(4), CPoly.monomial(("u", "v"), 4, (0, 1)), "v", ("t", "v", -1),
    ):
        with pytest.raises(SeriesError):
            f.substitute("u", image)
    with pytest.raises(SeriesError):
        f.divided_difference("u", ("t", "v", -1))


def _random_cpoly(rng, vars, order, nterms=6, max_exp=3):
    p = CPoly(tuple(vars), order)
    for _ in range(nterms):
        n = rng.randrange(order + 1)
        key = tuple(rng.randrange(max_exp + 1) for _ in vars)
        c = p.slices[n].get(key, 0) + rng.randrange(-5, 6)
        if c:
            p.slices[n][key] = c
        else:  # a cancelled sum is dropped, as every CPoly operation drops it
            p.slices[n].pop(key, None)
    return p


def _substitute_reference(p, var, image):
    """p with `image` for `var`, summed monomial by monomial: each c t^n key
    becomes c t^n key[var:=0] * image^e, the power taken by CPoly products."""
    vars, N = p.vars, p.order
    k = vars.index(var)
    if image in (0, 1):
        img = CPoly.constant(vars, N, image)
    else:
        name = image[1] if isinstance(image, tuple) else None
        img = CPoly.monomial(vars, N, tuple(int(v == name) for v in vars), tpow=1)
    out = CPoly(vars, N)
    for n, slc in enumerate(p.slices):
        for key, c in slc.items():
            term = CPoly.monomial(vars, N, key[:k] + (0,) + key[k + 1:], n) * c
            for _ in range(key[k]):
                term = term * img
            out = out + term
    return out


def test_substitute_and_reorder_match_monomial_references():
    rng = random.Random(2008)
    vars = ("u", "v", "z")
    images = (0, 1, "t", ("t", "u"), ("t", "v"), ("t", "z"))
    for _ in range(30):
        order = rng.randint(0, 8)
        # Laurent z: exponents -2..1
        p = _random_cpoly(rng, vars, order, nterms=8).mul_mono((0, 0, -2))
        for var in ("u", "v"):
            for image in images:  # includes ("t", x) applied to x itself
                assert p.substitute(var, image) == _substitute_reference(p, var, image)
        assert p.substitute("z", 1) == _substitute_reference(p, "z", 1)
        moved = p.reorder(("w", "z", "u", "v"))
        assert moved.slices == [
            {(0, z, u, v): c for (u, v, z), c in slc.items()} for slc in p.slices
        ]
        assert moved.reorder(vars) == p
        assert p.substitute("v", 0).reorder(("u", "z")).slices == [
            {(u, z): c for (u, v, z), c in slc.items() if v == 0} for slc in p.slices
        ]
        # a t-image has no power-series value at a negative exponent
        p.slices[0][(1, 0, -1)] = 1
        for image in ("t", ("t", "u"), ("t", "z")):
            with pytest.raises(SeriesError):
                p.substitute("z", image)
        with pytest.raises(SeriesError):
            p.reorder(("u", "v"))


def test_mul_mono_pure_shift_copies_each_slice():
    # with exps None or all zero, mul_mono is a shift by t^tpow: it equals
    # the monomial-by-monomial product, and its slices are fresh dicts
    rng = random.Random(30)
    for _ in range(20):
        order = rng.randint(0, 8)
        p = _random_cpoly(rng, ("u", "v"), order, nterms=10)
        before = [dict(slc) for slc in p.slices]
        for exps, tpow in ((None, 0), (None, 1), ((0, 0), 2), ([0, 0], 0), (None, order + 2)):
            got = p.mul_mono(exps, tpow) if exps is not None else p.mul_mono(tpow=tpow)
            want = CPoly(p.vars, order)
            for n, slc in enumerate(p.slices):
                for key, c in slc.items():
                    want = want + CPoly.monomial(p.vars, order, key, n + tpow) * c
            assert (got.vars, got.order) == (p.vars, p.order)
            assert got.slices == want.slices
            assert all(a is not b for a in got.slices for b in p.slices)
            for slc in got.slices:
                slc[(9, 9)] = 1
            assert p.slices == before
        assert p.shift(1) == p.mul_mono((0, 0), 1)


def test_substitution_composes():
    # u -> tv then v -> 0: only the u^0 v^0 terms survive (u^i v^j maps to
    # t^i v^(i+j)); checked against direct extraction on random inputs
    rng = random.Random(7)
    for _ in range(30):
        f = _random_cpoly(rng, ("u", "v"), 8)
        a = f.substitute("u", ("t", "v")).substitute("v", 0)
        direct = CPoly(("u", "v"), 8)
        for n, slc in enumerate(f.slices):
            c = slc.get((0, 0))
            if c:
                direct.slices[n][(0, 0)] = c
        assert a == direct


# -- divided differences ----------------------------------------------------

def test_dd_simple():
    f = CPoly.monomial(("u", "v"), 6, (2, 0))  # u^2
    got = f.divided_difference("u", ("t", "v"))
    want = CPoly.monomial(("u", "v"), 6, (1, 0)) + CPoly.monomial(
        ("u", "v"), 6, (0, 1), tpow=1
    )
    assert got == want


def test_dd_constant_is_zero():
    f = CPoly.constant(("u",), 5, 7)
    assert f.divided_difference("u", "t").is_zero()


def test_dd_exactness_identity():
    # r (var - repl) == f - f[var:=repl] exactly, on random polynomials
    rng = random.Random(13)
    for _ in range(25):
        f = _random_cpoly(rng, ("u", "v"), 9)
        r = f.divided_difference("u", ("t", "v"))
        u = CPoly.monomial(("u", "v"), 9, (1, 0))
        tv = CPoly.monomial(("u", "v"), 9, (0, 1), tpow=1)
        lhs = r * (u - tv)
        rhs = f - f.substitute("u", ("t", "v"))
        assert lhs == rhs


def test_dd_matches_monomial_sum():
    # dd(u*f, u, t) expands each u^i into sum_k t^k u^(i-k), k = 0..i
    rng = random.Random(99)
    for _ in range(10):
        f = _random_cpoly(rng, ("u",), 8)
        got = f.mul_mono((1,)).divided_difference("u", "t")
        want = CPoly(("u",), 8)
        for n, slc in enumerate(f.slices):
            for (i,), c in slc.items():
                for k in range(i + 1):
                    if n + k <= 8:
                        key = (i - k,)
                        want.slices[n + k][key] = want.slices[n + k].get(key, 0) + c
        assert got == _normalized(want)


def _dd_reference(p, var, replacement):
    """(p - p[var:=r]) / (var - r) summed monomial by monomial: each u^e goes
    to sum_{m<e} u^(e-1-m) r^m with r = t or t*name."""
    k = p.vars.index(var)
    j = None if replacement == "t" else p.vars.index(replacement[1])
    out = CPoly(p.vars, p.order)
    for n, slc in enumerate(p.slices):
        for key, c in slc.items():
            for m in range(key[k]):
                if n + m <= p.order:
                    nk = list(key)
                    nk[k] -= 1 + m
                    if j is not None:
                        nk[j] += m
                    tgt = out.slices[n + m]
                    tgt[tuple(nk)] = tgt.get(tuple(nk), 0) + c
    return _normalized(out)


def _with_cancelling_terms(p, k, j):
    """p plus, for each of its terms c x^e y^f t^n with e >= 1, the term
    -c x^(e-1) y^(f+1) t^(n+1): with r = t y, their divided differences cancel
    past the first summand."""
    out = CPoly(p.vars, p.order, [dict(s) for s in p.slices])
    for n, slc in enumerate(p.slices[:-1]):
        for key, c in slc.items():
            if key[k]:
                nk = list(key)
                nk[k] -= 1
                nk[j] += 1
                tgt = out.slices[n + 1]
                tgt[tuple(nk)] = tgt.get(tuple(nk), 0) - c
    return _normalized(out)


def test_dd_two_variables_matches_monomial_sum():
    rng = random.Random(2005)
    cases = ((("u", "v"), "u", ("t", "v")), (("u", "v"), "v", ("t", "u")),
             (("u", "v"), "v", "t"), (("u", "v", "w"), "u", ("t", "w")))
    for _ in range(20):
        for vars, var, image in cases:
            k = vars.index(var)
            j = vars.index(image[1]) if image != "t" else (k + 1) % len(vars)
            f = _with_cancelling_terms(_random_cpoly(rng, vars, rng.randint(0, 10), nterms=10, max_exp=5), k, j)
            got = f.divided_difference(var, image)
            assert got == _dd_reference(f, var, image)
            assert all(type(c) is int and c for slc in got.slices for c in slc.values())


def test_dd_refuses_negative_exponents_and_a_self_image():
    f = CPoly.monomial(("u", "z"), 6, (2, -1), tpow=1) + CPoly.monomial(("u", "z"), 6, (-1, 0), tpow=2)
    with pytest.raises(SeriesError):
        f.divided_difference("u", ("t", "z"))
    # (f - f(t u)) / (u - t u) is not one of the divided differences the
    # equations use; it is refused rather than expanded
    g = CPoly.monomial(("u", "v"), 6, (3, 1))
    for var in ("u", "v"):
        with pytest.raises(SeriesError):
            g.divided_difference(var, ("t", var))


# -- CPoly plumbing ---------------------------------------------------------

def test_cpoly_mul_matches_tseries():
    rng = random.Random(3)
    for _ in range(10):
        a = TSeries([rng.randrange(-4, 5) for _ in range(7)], 6)
        b = TSeries([rng.randrange(-4, 5) for _ in range(7)], 6)
        pa = CPoly.from_tseries(("u",), a)
        pb = CPoly.from_tseries(("u",), b)
        assert pa * pb == CPoly.from_tseries(("u",), a * b)


def test_cpoly_inv_and_sqrt():
    rng = random.Random(5)
    for _ in range(10):
        p = _random_cpoly(rng, ("z",), 7).mul_mono(tpow=1)
        p = p + CPoly.constant(("z",), 7)  # constant term exactly 1
        assert (p * (CPoly.constant(p.vars, p.order) / p)) == CPoly.constant(("z",), 7)
        assert (p * p).sqrt() == p


def test_geometric_prefactor():
    g = CPoly.geom(("u",), 5, (1,))
    for n in range(6):
        assert g.slices[n] == {(n,): 1}


def test_json_roundtrip():
    # the JSON form lists each monomial's exponents and coefficient strings
    p = CPoly(("u", "z"), 2)
    p.slices[0][(0, 0)] = 1
    p.slices[1][(1, -2)] = -2
    p.slices[2][(1, -2)] = Fraction(3, 7)
    assert p.to_json() == {
        "order": 2,
        "terms": [
            {"u": 0, "v": 0, "w": 0, "z": 0, "coeffs": ["1", "0", "0"]},
            {"u": 1, "v": 0, "w": 0, "z": -2, "coeffs": ["0", "-2", "3/7"]},
        ],
    }
    with pytest.raises(SeriesError):
        CPoly.monomial(("x",), 2, (1,)).to_json()


def test_tseries_json_roundtrip():
    a = TSeries([1, Fraction(1, 2), -3], 4)
    assert a.to_json() == {
        "order": 4,
        "terms": [{"u": 0, "v": 0, "w": 0, "z": 0, "coeffs": ["1", "1/2", "-3", "0", "0"]}],
    }
    assert a.to_json() == CPoly.from_tseries(("u",), a).to_json()


def test_zero_tseries_json_lists_no_terms():
    # a zero series has no nonzero coefficient series, the same as a zero CPoly
    for order in (0, 3):
        assert TSeries.zero(order).to_json() == {"order": order, "terms": []}
        assert TSeries.zero(order).to_json() == CPoly(("u",), order).to_json()


def test_mismatched_orders_truncate():
    a = TSeries.one(8)
    b = TSeries.one(5)
    assert (a + b).order == 5
    assert (a * b).order == 5


# -- CPoly product against a schoolbook reference -----------------------------

def _schoolbook_mul(a, b):
    """Slices of a*b: every pair of terms, exponent tuples added entrywise,
    zero coefficients dropped at the end."""
    order = min(a.order, b.order)
    out = [{} for _ in range(order + 1)]
    for na in range(order + 1):
        for nb in range(order + 1 - na):
            for ka, ca in a.slices[na].items():
                for kb, cb in b.slices[nb].items():
                    key = tuple(x + y for x, y in zip(ka, kb))
                    out[na + nb][key] = out[na + nb].get(key, 0) + ca * cb
    return [{key: c for key, c in slc.items() if c} for slc in out]


def _random_laurent_cpoly(rng, vars, order, nterms):
    """Sparse random CPoly: z may carry negative exponents, coefficients are
    ints or Fractions, and most slices stay empty."""
    p = CPoly(vars, order)
    for _ in range(nterms):
        key = tuple(rng.randint(-3, 2) if v == "z" else rng.randint(0, 3) for v in vars)
        if rng.random() < 0.3:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        else:
            c = rng.randint(-3, 3)
        if c:
            p.slices[rng.randrange(order + 1)][key] = c
    return p


def test_cpoly_mul_matches_schoolbook():
    rng = random.Random(20081)
    for vars in [("u",), ("z",), ("u", "z"), ("z", "w"), ("u", "v", "w"), ("z", "u", "v")]:
        for _ in range(40):
            a = _random_laurent_cpoly(rng, vars, rng.randint(0, 6), rng.randint(0, 10))
            b = _random_laurent_cpoly(rng, vars, rng.randint(0, 6), rng.randint(0, 10))
            got = a * b
            assert got.order == min(a.order, b.order)
            assert got.slices == _schoolbook_mul(a, b)


def test_cpoly_mul_zero_operand_and_cancellation():
    vars = ("u", "z")
    f = CPoly.monomial(vars, 3, (1, -2), tpow=1) * Fraction(1, 2) + 3
    assert (f * CPoly(vars, 3)).is_zero()
    assert (CPoly(vars, 5) * f).slices == [{}] * 4
    # (3 + m)(3 - m) = 9 - m^2 with m = t u z^-2 / 2: the cross terms cancel
    g = (f - 3) * -1 + 3
    got = f * g
    assert got.slices == [{(0, 0): 9}, {}, {(2, -4): Fraction(-1, 4)}, {}]
    # a product cancelling to zero in every slice stores no key at all
    h = CPoly.monomial(vars, 3, (1, 0), tpow=1)
    assert (h * (f - f)).slices == [{}] * 4
    assert ((h + h * -1) * f).is_zero()


# -- CPoly inverse and square root against the schoolbook recursions ----------

def _schoolbook_sum(pairs):
    """Sum of the products of (slice, slice) pairs, term by term."""
    acc = {}
    for sa, sb in pairs:
        for ka, ca in sa.items():
            for kb, cb in sb.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                acc[key] = acc.get(key, 0) + ca * cb
    return acc


def _schoolbook_inv(p):
    """Slices of 1/p: b_m = -(sum_{k=1..m} p_k b_{m-k}) / p_0."""
    zero = (0,) * len(p.vars)
    c0 = p.slices[0][zero]
    out = [{zero: Fraction(1) / c0}]
    for m in range(1, p.order + 1):
        acc = _schoolbook_sum((p.slices[k], out[m - k]) for k in range(1, m + 1))
        out.append({key: -c / c0 for key, c in acc.items() if c})
    return out


def _schoolbook_sqrt(p):
    """Slices of sqrt(p), p_0 = 1: s_m = (p_m - sum_{k=1..m-1} s_k s_{m-k}) / 2."""
    out = [{(0,) * len(p.vars): 1}]
    for m in range(1, p.order + 1):
        acc = dict(p.slices[m])
        for key, c in _schoolbook_sum((out[k], out[m - k]) for k in range(1, m)).items():
            acc[key] = acc.get(key, 0) - c
        out.append({key: Fraction(c) / 2 for key, c in acc.items() if c})
    return out


def test_cpoly_inv_and_sqrt_match_schoolbook():
    rng = random.Random(2009)
    for vars in [(), ("u",), ("z",), ("u", "z"), ("z", "u", "v")]:
        zero = (0,) * len(vars)
        for _ in range(25):
            p = _random_laurent_cpoly(rng, vars, rng.randint(0, 6), rng.randint(0, 10))
            if vars and p.order >= 2:
                # a large exponent-per-degree ratio on a late slice widens the box
                p.slices[p.order][tuple(rng.choice([-9, 7]) for _ in vars)] = 1
            p.slices[0] = {zero: rng.choice([1, -1, 3, Fraction(2, 5)])}
            assert (CPoly.constant(p.vars, p.order) / p).slices == _schoolbook_inv(p)
            p.slices[0] = {zero: 1}
            assert p.sqrt().slices == _schoolbook_sqrt(p)


# -- exact division against invert-and-multiply --------------------------------
#
# A quotient and a product with the inverse have the same value.  With
# Fraction inputs and d_0 = +-1, an integral coefficient can come out as an
# int on one route and as a Fraction on the other, according to which integral
# Fractions met in it; so those cases compare `_normalized` series.  Otherwise a
# nonzero coefficient has the same type on both routes: ints from ints over
# d_0 = +-1, and Fractions wherever 1/d_0 is one.

def _typed(p):
    """Coefficients with the types of the nonzero ones: a TSeries's list, a
    CPoly's slices.  A zero is int 0 or Fraction(0) according to which terms
    met in it, and the two routes meet different terms; a closed form, built
    from ints, has int zeros."""
    if isinstance(p, TSeries):
        return [(c, type(c) if c else 0) for c in p.coeffs]
    return [{key: (c, type(c) if c else 0) for key, c in slc.items()} for slc in p.slices]


def _same_quotient(got, want, fractions, c0):
    assert got.order == want.order
    if fractions and c0 in (1, -1):
        got, want = _normalized(got), _normalized(want)
    assert _typed(got) == _typed(want)


def _random_coeff(rng, fractions):
    if fractions and rng.random() < 0.4:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return rng.randint(-5, 5)


def _random_tseries(rng, order, density, fractions):
    return TSeries(
        [_random_coeff(rng, fractions) if rng.random() < density else 0 for _ in range(order + 1)],
        order,
    )


def test_tseries_division_equals_product_with_inverse():
    rng = random.Random(1919)
    for c0 in (1, -1, 3, Fraction(2, 5)):
        for density in (0.2, 1.0):  # sparse and dense divisors
            for fractions in (False, True):
                for _ in range(15):
                    a = _random_tseries(rng, rng.randint(0, 14), 0.7, fractions)
                    b = _random_tseries(rng, rng.randint(0, 14), density, fractions)
                    b.coeffs[0] = c0
                    got = a / b
                    assert got.order == min(a.order, b.order)
                    _same_quotient(got, a * b.inv(), fractions, c0)


def test_cpoly_division_equals_product_with_inverse():
    rng = random.Random(2008)
    for vars in [(), ("u",), ("z",), ("u", "z"), ("z", "u", "v")]:
        zero = (0,) * len(vars)
        for c0 in (1, -1, 3, Fraction(2, 5)):
            for dense in (False, True):
                for _ in range(6):
                    a = _random_laurent_cpoly(rng, vars, rng.randint(0, 6), rng.randint(0, 10))
                    order = rng.randint(0, 6)
                    b = _random_laurent_cpoly(rng, vars, order, 4 * (order + 1) if dense else 3)
                    b.slices[0] = {zero: c0}
                    got = a / b
                    assert got.order == min(a.order, b.order)
                    _same_quotient(got, a * (CPoly.constant(vars, b.order) / b), True, c0)
                    ints = CPoly(vars, a.order, [
                        {key: c for key, c in slc.items() if type(c) is int} for slc in a.slices
                    ])
                    b.slices = [{key: c for key, c in slc.items() if type(c) is int} for slc in b.slices]
                    b.slices[0] = {zero: c0}
                    _same_quotient(ints / b, ints * (CPoly.constant(vars, b.order) / b), False, c0)
    # a TSeries divisor divides as the constant-coefficient CPoly
    a = _random_laurent_cpoly(rng, ("u", "z"), 6, 10)
    d = _random_tseries(rng, 6, 1.0, True)
    d.coeffs[0] = 3
    assert _typed(a / d) == _typed(a / CPoly.from_tseries(("u", "z"), d))


def test_division_needs_a_nonzero_constant_divisor():
    with pytest.raises(SeriesError):
        ts(4, {0: 1, 1: 2}) / ts(4, {1: 1})
    p = CPoly.monomial(("u",), 3, (1,), tpow=1) + 1
    for slice0 in [{}, {(0,): 0}, {(1,): 1}, {(0,): 1, (1,): 2}]:
        d = CPoly.monomial(("u",), 3, (2,), tpow=1)
        d.slices[0] = slice0
        with pytest.raises(SeriesError):
            p / d


def _loop_tseries_inv(a):
    """1/a by the inverse's own recurrence, b_m = -b_0 sum_{k=1..m} a_k b_(m-k)."""
    c0 = a.coeffs[0]
    b0 = 1 if c0 == 1 else -1 if c0 == -1 else Fraction(1, 1) / c0
    out = [b0] + [0] * a.order
    for m in range(1, a.order + 1):
        s = 0
        for k in range(1, m + 1):
            if a.coeffs[k]:
                s += a.coeffs[k] * out[m - k]
        out[m] = -b0 * s if b0 != 1 else -s
    return TSeries(out, a.order)


def _loop_cpoly_inv(p):
    """1/p by the same recurrence over packed slices in p's power box."""
    c0 = p.slices[0][(0,) * len(p.vars)]
    b0 = 1 if c0 == 1 else -1 if c0 == -1 else Fraction(1, 1) / c0
    pack, unpack = _packing(*p._power_box())
    ps = list(map(pack, p.slices))
    po = [[(0, b0)]]
    for m in range(1, p.order + 1):
        acc = _packed_products((ps[k], po[m - k]) for k in range(1, m + 1))
        po.append([(key, -b0 * c) for key, c in acc.items() if c])
    return list(map(unpack, po))


def test_inv_equals_the_inverse_recurrence():
    rng = random.Random(1808)

    def full(a):  # the zeros' types too
        return [(c, type(c)) for c in a.coeffs]

    for c0 in (1, -1, 3, Fraction(2, 5), Fraction(1), Fraction(-1)):
        for density in (0.2, 1.0):
            for fractions in (False, True):
                for _ in range(10):
                    a = _random_tseries(rng, rng.randint(0, 14), density, fractions)
                    a.coeffs[0] = c0
                    assert full(a.inv()) == full(_loop_tseries_inv(a))
    for vars in [(), ("u",), ("z",), ("u", "z"), ("z", "u", "v")]:
        for c0 in (1, -1, 3, Fraction(2, 5)):
            for _ in range(8):
                p = _random_laurent_cpoly(rng, vars, rng.randint(0, 6), rng.randint(0, 20))
                p.slices[0] = {(0,) * len(vars): c0}
                one = CPoly.constant(vars, p.order)
                assert _typed(one / p) == _typed(CPoly(vars, p.order, _loop_cpoly_inv(p)))
