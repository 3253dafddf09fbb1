import hashlib
import random
from fractions import Fraction

import pytest

from prudentwalks.asymptotics import (
    Constant,
    InvalidIntervalError,
    NotAvailableError,
    POLY_RHO_2SIDED,
    POLY_RHO_TRI,
    POLY_T0_TRI,
    POLY_TC_SQUARE,
    POLY_TC_TRI,
    RatInterval,
    _amplitude_estimate,
    _poly_eval,
    constants,
    find_real_root,
    growth_estimate,
    sqrt_interval,
)
from prudentwalks.walks import WalkClass

TOL = Fraction(1, 10 ** 10)


def test_find_real_root_examples():
    r = find_real_root(POLY_RHO_2SIDED, (Fraction(3, 10), Fraction(1, 2)), TOL)
    assert abs(float(r) - 0.4030317168) < 1e-7
    r = find_real_root(POLY_TC_TRI, (Fraction(1, 5), Fraction(2, 5)), TOL)
    assert abs(float(r) - 0.2955977) < 1e-6
    r = find_real_root(POLY_T0_TRI, (Fraction(1, 4), Fraction(3, 10)), TOL)
    assert abs(float(r) - 0.2883562) < 1e-6


def test_root_interval_contains_sign_change():
    for poly, lo, hi in (
        (POLY_RHO_2SIDED, Fraction(3, 10), Fraction(1, 2)),
        (POLY_TC_SQUARE, Fraction(1, 3), Fraction(1, 2)),
        (POLY_RHO_TRI, Fraction(1, 4), Fraction(3, 10)),
    ):
        r = find_real_root(poly, (lo, hi), TOL)
        assert r.width <= TOL
        a = _poly_eval(poly, r.lo)
        b = _poly_eval(poly, r.hi)
        assert a == 0 or b == 0 or (a < 0) != (b < 0)


def test_find_real_root_rejects_bad_interval():
    with pytest.raises(InvalidIntervalError):
        find_real_root(POLY_RHO_2SIDED, (Fraction(1, 10), Fraction(2, 10)), TOL)


@pytest.mark.parametrize("tol", [0, -TOL])
def test_find_real_root_rejects_nonpositive_tolerance(tol):
    # bisection never narrows an irrational root to width 0: refused at once
    with pytest.raises(ValueError):
        find_real_root(POLY_RHO_2SIDED, (Fraction(3, 10), Fraction(1, 2)), tol)
    with pytest.raises(ValueError):
        sqrt_interval(2, tol)


def _poly_eval_fractions(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def test_poly_eval_matches_fraction_horner():
    rng = random.Random(35)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5 and coeffs:
            coeffs[rng.randrange(len(coeffs))] = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        x = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-99, 99), rng.randint(1, 99))])
        got = _poly_eval(coeffs, x)
        assert type(got) is Fraction and got == _poly_eval_fractions(coeffs, x)


def test_sqrt_interval():
    s2 = sqrt_interval(2, TOL)
    assert s2.lo <= Fraction(14142135623, 10 ** 10) <= s2.hi or abs(float(s2) - 2 ** 0.5) < 1e-9
    sq = s2 * s2
    assert sq.lo <= 2 <= sq.hi


def test_interval_arithmetic():
    a = RatInterval(Fraction(1, 3), Fraction(1, 2))
    b = RatInterval(Fraction(-1, 4), Fraction(1, 4))
    assert (a + b).lo == Fraction(1, 12)
    assert (a * b).lo == Fraction(-1, 8)
    with pytest.raises(ZeroDivisionError):
        b.inv()


def test_two_sided_constants_match_paper_decimals():
    cs = constants(WalkClass.TWO_SIDED)
    assert abs(cs["rho"].value - 0.403) < 5e-4
    assert abs(cs["mu"].value - 2.48) < 5e-3
    assert abs(cs["kappa"].value - 2.51) < 1e-2
    assert abs(cs["ne_dist_mean"].value - 4.15) < 1e-2
    assert abs(cs["drift_sum"].value - 0.63) < 1e-2
    assert abs(cs["var_sum"].value - 0.49) < 1e-2
    assert abs(cs["var_diff"].value - 5.17) < 1e-2
    assert abs(cs["t_c"].value - (2 ** 0.5 - 1)) < 1e-9
    assert all(c.provenance == "paper-closed-form" for c in cs.values())


def test_three_sided_constants():
    cs = constants(WalkClass.THREE_SIDED)
    two = constants(WalkClass.TWO_SIDED)
    assert cs["mu"].value == two["mu"].value  # equal growth constants
    assert abs(cs["drift_width"].value - 0.31756) < 1e-4
    # the displayed formula evaluates to 1.41749...; printed as "1.41"
    assert abs(cs["var_width"].value - 1.4174950241750823) < 1e-8
    assert abs(cs["var_width"].value - 1.41) < 1e-2


def test_triangular_constants():
    cs = constants(WalkClass.TRIANGULAR)
    assert abs(cs["mu"].value - (3 + 17 ** 0.5) / 2) < 1e-9
    assert abs(cs["rho"].value - (17 ** 0.5 - 3) / 4) < 1e-9
    assert abs(cs["drift_box"].value - 0.6212678) < 1e-6
    assert abs(cs["var_box"].value - 12 / (17 * 17 ** 0.5)) < 1e-9
    # pole ordering: rho < t_0 < t_c
    assert cs["rho"].value < cs["t_0"].value < cs["t_c"].value


def test_mu_rho_reciprocal():
    for wc in (WalkClass.TWO_SIDED, WalkClass.THREE_SIDED, WalkClass.TRIANGULAR):
        cs = constants(wc)
        prod = cs["mu"].interval * cs["rho"].interval
        assert prod.lo <= 1 <= prod.hi


# SHA-256 of repr([(name, provenance, lo, hi), ...]) over each class's
# constants, with the empirical kappa read off PIN_COEFFS, recorded before the
# closed forms moved into one table per class.  An interval's endpoints depend
# on the written form of its expression, and the JSON floats can hide a
# changed endpoint, so every exact endpoint is pinned here.
PIN_COEFFS = [1, 3, 9, 26, 75, 214, 612, 1747]
CONSTANT_PINS = {
    WalkClass.ONE_SIDED: "e78250d0b593bbfb536fd8159b2e71c3ec155e1930214bbe81d97d2ea0a9f55d",
    WalkClass.TWO_SIDED: "359a46ac0ad281cc413f7e64e428694660ff45648dca37d5c2a3127e4c6efdfc",
    WalkClass.THREE_SIDED: "4b2a3a66e50458db90b041c2e0d1a5fa3c33cdc2cddb90bdc46aa2b2b26cf025",
    WalkClass.TRIANGULAR: "7171868d2dab5da73655d7482351b69bd090bbf281816b4db74f6fdb88e0fe68",
}


@pytest.mark.parametrize("wc", list(CONSTANT_PINS), ids=lambda wc: wc.value)
def test_constant_endpoints_pinned(wc):
    cs = constants(wc, coeffs=PIN_COEFFS)
    pin = repr([(c.name, c.provenance, c.interval.lo, c.interval.hi) for c in cs.values()])
    assert hashlib.sha256(pin.encode()).hexdigest() == CONSTANT_PINS[wc]


def test_prudent4_not_available():
    with pytest.raises(NotAvailableError):
        constants(WalkClass.PRUDENT4)


def test_empirical_kappa_labelled():
    from prudentwalks.closedforms import triangular_closed

    coeffs = triangular_closed(60)[2].integer_coeffs()
    cs = constants(WalkClass.TRIANGULAR, coeffs=coeffs)
    assert cs["kappa"].provenance == "empirical"
    assert cs["kappa"].value > 0


def test_growth_estimate_geometric():
    mu, diag = growth_estimate([3 ** n for n in range(25)])
    assert mu == 3.0


def test_growth_estimate_needs_coefficients():
    with pytest.raises(ValueError):
        growth_estimate([1, 2, 3])


def test_constant_json():
    c = Constant("rho", RatInterval(Fraction(2, 5), Fraction(2, 5) + TOL), "paper-closed-form")
    obj = c.to_json()
    assert obj["provenance"] == "paper-closed-form"
    assert obj["error_bound"] <= float(TOL)


# -- tail-only Aitken against the full-sequence extrapolation ------------------

def _aitken_full(seq):
    out = []
    for x0, x1, x2 in zip(seq, seq[1:], seq[2:]):
        d2 = x2 - 2 * x1 + x0
        out.append(x2 if d2 == 0 else x0 - (x1 - x0) * (x1 - x0) / d2)
    return out or list(seq)


def _growth_full(coeffs):
    seq = [Fraction(b, a) for a, b in zip(coeffs, coeffs[1:])]
    values = []
    for _ in range(3):
        seq = _aitken_full(seq)
        values.append(float(seq[-1]))
    return seq[-1], values


def _amplitude_full(coeffs, rho):
    seq = [c * Fraction(rho) ** n for n, c in enumerate(coeffs)]
    for _ in range(2):
        seq = _aitken_full(seq)
    return seq[-1]


def _closed_form_counts(order):
    from prudentwalks.verify import ROUTES

    classes = (WalkClass.ONE_SIDED, WalkClass.TWO_SIDED, WalkClass.THREE_SIDED,
               WalkClass.TRIANGULAR)
    return {wc: ROUTES[wc].closed_form(order).integer_coeffs() for wc in classes}


def test_growth_estimate_equals_full_aitken():
    inputs = list(_closed_form_counts(40).values())
    inputs.append([n * n + 3 ** n for n in range(20)])
    fibonacci = [1, 1]
    while len(fibonacci) < 20:  # the fewest coefficients accepted
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    inputs.append(fibonacci)
    for coeffs in inputs:
        mu, diag = growth_estimate(coeffs)
        exact, values = _growth_full(coeffs)
        assert diag["mu_hat_exact"] == exact
        assert diag["stages"] == values
        assert mu == float(exact)
        assert diag["raw_ratio_last"] == float(Fraction(coeffs[-1], coeffs[-2]))


def test_amplitude_estimate_equals_full_aitken():
    counts = _closed_form_counts(40)
    rho = {wc: constants(wc)["rho"].interval.mid for wc in counts}
    for wc, coeffs in counts.items():
        assert _amplitude_estimate(coeffs, rho[wc]) == _amplitude_full(coeffs, rho[wc])
    short = [n * n + 3 ** n for n in range(20)]
    for coeffs in (short, short[:5], short[:3]):
        assert _amplitude_estimate(coeffs, Fraction(1, 3)) == _amplitude_full(
            coeffs, Fraction(1, 3)
        )
