"""Growth constants, drift and variance constants, and ratio extrapolation.

All assertions run on exact rational interval arithmetic: roots are located
by bisection on polynomials with rational coefficients, closed-form constants
are evaluated on intervals, and the ratio extrapolation works on exact
Fractions.  Floats appear only in returned display values.
"""

from __future__ import annotations

from fractions import Fraction

from prudentwalks.walks import WalkClass


class InvalidIntervalError(ValueError):
    """No sign change on the bracketing interval."""


class NotAvailableError(ValueError):
    """Requested constants that the source results do not provide."""


class RatInterval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = Fraction(hi) if hi is not None else lo
        if hi < lo:
            lo, hi = hi, lo
        self.lo, self.hi = lo, hi

    def __repr__(self):
        return "RatInterval(%s, %s)" % (self.lo, self.hi)

    @property
    def mid(self):
        return (self.lo + self.hi) / 2

    @property
    def width(self):
        return self.hi - self.lo

    def __float__(self):
        return float(self.mid)

    def __add__(self, other):
        other = _iv(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_iv(other))

    def __rsub__(self, other):
        return _iv(other) + (-self)

    def __mul__(self, other):
        other = _iv(other)
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def inv(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _iv(other).inv()

    def __rtruediv__(self, other):
        return _iv(other) * self.inv()


def _iv(x):
    return x if isinstance(x, RatInterval) else RatInterval(x)


def _poly_eval(coeffs, x):
    """Horner evaluation at a rational x = p/q; coeffs[k] multiplies t^k.
    Runs on the integer sum of c_k p^k q^(d-k) (exact over Fraction
    coefficients too) and divides it by q^d in one Fraction at the end."""
    p, q = x.numerator, x.denominator
    acc, den = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * den
        den *= q
    return Fraction(acc * q, den)


def find_real_root(poly_coeffs, interval, tol):
    """Bisection root of a rational polynomial bracketing a sign change.

    Returns a RatInterval of width <= tol containing the root; deterministic.
    A tol <= 0 is refused: bisection never narrows an irrational root to it.
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("root tolerance must be > 0, got %s" % tol)
    flo = _poly_eval(poly_coeffs, lo)
    fhi = _poly_eval(poly_coeffs, hi)
    if flo == 0:
        return RatInterval(lo, lo)
    if fhi == 0:
        return RatInterval(hi, hi)
    if (flo < 0) == (fhi < 0):
        raise InvalidIntervalError("no sign change on [%s, %s]" % (lo, hi))
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = _poly_eval(poly_coeffs, mid)
        if fmid == 0:
            return RatInterval(mid, mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return RatInterval(lo, hi)


def sqrt_interval(n, tol):
    """sqrt(n) for a positive rational n = p/q, as a RatInterval of width
    <= tol: the positive root of q t^2 - p, whose signs are those of t^2 - n."""
    n = Fraction(n)
    hi = max(Fraction(1), n)
    return find_real_root([-n.numerator, 0, n.denominator], (Fraction(0), hi), tol)


# defining polynomials (constant term first)
POLY_RHO_2SIDED = (1, -2, -2, 2)          # 1 - 2t - 2t^2 + 2t^3
POLY_TC_SQUARE = (1, -2, -1)              # 1 - 2t - t^2, root sqrt(2)-1
POLY_RHO_TRI = (1, -3, -2)                # 1 - 3t - 2t^2, root (sqrt(17)-3)/4
POLY_T0_TRI = (1, -2, -6, 2, 4)           # 4t^4 + 2t^3 - 6t^2 - 2t + 1
POLY_TC_TRI = (1, -3, -1, -1)             # 1 - 3t - t^2 - t^3


class Constant:
    """A named numerical constant with provenance and exact error bound."""

    __slots__ = ("name", "interval", "provenance")

    def __init__(self, name, interval, provenance):
        self.name = name
        self.interval = interval
        self.provenance = provenance

    @property
    def value(self):
        return float(self.interval)

    def __repr__(self):
        return "Constant(%s=%.10f, %s)" % (self.name, self.value, self.provenance)

    def to_json(self):
        return {
            "name": self.name,
            "value": self.value,
            "error_bound": float(self.interval.width) / 2,
            "provenance": self.provenance,
        }


_TOL = Fraction(1, 10**12)

# Each class's closed-form constants, in report order: (name, rule), where
# rule takes the values before it by name and returns a RatInterval.  A name
# with a leading underscore is a step, not reported; a rule of None marks an
# amplitude known only empirically, read off the counting coefficients when
# they are given.  Each root and square root is bracketed to width _TOL.
# 2- and 3-sided walks share rho, mu and t_c: their growth constants are equal.
_ROWS_2_3_SIDED = (
    ("rho", lambda **_: find_real_root(POLY_RHO_2SIDED, (Fraction(3, 10), Fraction(1, 2)), _TOL)),
    ("mu", lambda rho, **_: 1 / rho),
    ("t_c", lambda **_: find_real_root(POLY_TC_SQUARE, (Fraction(1, 3), Fraction(1, 2)), _TOL)),
)
CONSTANTS = {
    WalkClass.ONE_SIDED: (  # partially directed: mu = 1 + sqrt(2), rho = sqrt(2) - 1
        ("_s2", lambda **_: sqrt_interval(2, _TOL)),
        ("rho", lambda _s2, **_: _s2 - 1),
        ("mu", lambda _s2, **_: 1 + _s2),
    ),
    WalkClass.TWO_SIDED: _ROWS_2_3_SIDED + (
        ("kappa", lambda rho, **_: rho * (3 * rho - 1) / ((3 * rho + 1) * (5 * rho - 2))),
        ("ne_dist_mean", lambda rho, **_: 2 * rho / (1 - 2 * rho)),
        ("drift_sum", lambda rho, **_: (rho + 1) / (3 * rho + 1)),
        ("var_sum", lambda rho, **_: 4 * (rho + 1) * (rho + 1) * rho
                                     / ((3 * rho + 1) * (3 * rho + 1) * (3 * rho + 1) * (1 - rho))),
        ("var_diff", lambda rho, **_: rho * (rho * rho - 2) * (1 + rho)
                                      / ((rho * rho + rho - 1) * (3 * rho - 1) * (1 + 3 * rho))),
    ),
    WalkClass.THREE_SIDED: _ROWS_2_3_SIDED + (
        ("drift_width", lambda rho, **_: (1 + rho) / (2 * (1 + 3 * rho))),
        ("_r2", lambda rho, **_: rho * rho),
        ("_c3", lambda rho, **_: (3 * rho - 1) * (3 * rho - 1) * (3 * rho - 1)),
        ("_d3", lambda rho, **_: (1 + 3 * rho) * (1 + 3 * rho) * (1 + 3 * rho)),
        ("var_width", lambda rho, _r2, _c3, _d3, **_: 3 * rho * (1 + rho) * (385 - 1148 * _r2 - 494 * rho)
                                                      / ((_r2 + rho - 1) * _c3 * _d3 * 16)),
        ("kappa", None),
    ),
    WalkClass.TRIANGULAR: (
        ("rho", lambda **_: find_real_root(POLY_RHO_TRI, (Fraction(1, 4), Fraction(3, 10)), _TOL)),
        ("_s17", lambda **_: sqrt_interval(17, _TOL)),
        ("mu", lambda _s17, **_: (3 + _s17) / 2),
        ("drift_box", lambda _s17, **_: (1 + 1 / _s17) / 2),
        ("var_box", lambda _s17, **_: 12 / (17 * _s17)),
        ("t_0", lambda **_: find_real_root(POLY_T0_TRI, (Fraction(1, 4), Fraction(3, 10)), _TOL)),
        ("t_c", lambda **_: find_real_root(POLY_TC_TRI, (Fraction(1, 5), Fraction(2, 5)), _TOL)),
        ("kappa", None),
    ),
}


def constants(walk_class, coeffs=None):
    """The class's asymptotic constants, keyed by name, evaluated on exact
    intervals in the order of its CONSTANTS rows.  An empirical amplitude
    is the Aitken limit of c_n rho^n at the midpoint of rho, and only given
    with the counting coefficients."""
    if walk_class not in CONSTANTS:
        raise NotAvailableError("no asymptotic constants for %s: open problem" % walk_class.value)
    values, out = {}, {}
    for name, rule in CONSTANTS[walk_class]:
        if rule is None:
            if coeffs is not None:
                amplitude = RatInterval(_amplitude_estimate(coeffs, values["rho"].mid))
                out[name] = Constant(name, amplitude, "empirical")
            continue
        values[name] = rule(**values)
        if not name.startswith("_"):
            out[name] = Constant(name, values[name], "paper-closed-form")
    return out


def _amplitude_estimate(coeffs, rho):
    """Aitken-extrapolated limit of c_n rho^n (the simple-pole amplitude).

    Two Aitken stages read only the last five terms, so only those are formed.
    """
    coeffs = list(coeffs)
    start = max(len(coeffs) - 5, 0)
    seq = []
    p = Fraction(rho) ** start
    for c in coeffs[start:]:
        seq.append(c * p)
        p *= rho
    for _ in range(2):
        seq = _aitken(seq)
    return seq[-1]


def _aitken(seq):
    out = []
    for i in range(len(seq) - 2):
        d1 = seq[i + 1] - seq[i]
        d2 = seq[i + 2] - 2 * seq[i + 1] + seq[i]
        if d2 == 0:
            out.append(seq[i + 2])
        else:
            out.append(seq[i] - d1 * d1 / d2)
    return out if out else list(seq)


GROWTH_MIN_COEFFS = 20  # the fewest coefficients growth_estimate reads: the series to order 19


def growth_estimate(coeffs):
    """Estimate lim c_(n+1)/c_n by successive ratios with three stages of
    Aitken extrapolation.  Needs at least GROWTH_MIN_COEFFS coefficients.

    Returns (mu_hat, diagnostics); diagnostics holds the raw-ratio tail and
    the last value of each extrapolation stage, all computed exactly.  Stage s
    reads three terms of stage s-1, so the last value of stage 3 depends only
    on the last 7 ratios, and only those are formed.
    """
    coeffs = list(coeffs)
    if len(coeffs) < GROWTH_MIN_COEFFS:
        raise ValueError("growth_estimate needs at least %d coefficients" % GROWTH_MIN_COEFFS)
    tail = coeffs[-8:]
    ratios = [Fraction(tail[i + 1], tail[i]) for i in range(len(tail) - 1)]
    diag = {"n_coeffs": len(coeffs), "raw_ratio_last": float(ratios[-1])}
    seq = ratios
    stage_values = []
    for _ in range(3):
        seq = _aitken(seq)
        stage_values.append(float(seq[-1]))
    diag["stages"] = stage_values
    mu_hat = seq[-1]
    diag["mu_hat_exact"] = mu_hat
    return float(mu_hat), diag
