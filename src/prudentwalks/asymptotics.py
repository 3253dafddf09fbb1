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
    """Horner evaluation at a rational x; coeffs[k] multiplies t^k."""
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + Fraction(c)
    return acc


def find_real_root(poly_coeffs, interval, tol):
    """Bisection root of a rational polynomial bracketing a sign change.

    Returns a RatInterval of width <= tol containing the root; deterministic.
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    tol = Fraction(tol)
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
    """sqrt(n) for a positive rational n, as a RatInterval of width <= tol."""
    n = Fraction(n)
    hi = max(Fraction(1), n)
    return find_real_root([-n, 0, 1], (Fraction(0), hi), tol)


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


def _paper(name, interval):
    return Constant(name, interval, "paper-closed-form")


_TOL = Fraction(1, 10**12)


def constants(walk_class, coeffs=None):
    """The class's asymptotic constants, keyed by name.

    Closed-form constants are evaluated on exact intervals at the bisected
    root location, each root and square root bracketed to width _TOL.  An
    amplitude for the 3-sided and triangular classes is only available
    empirically (pass the counting coefficients to get it).
    """
    out = {}
    if walk_class in (WalkClass.TWO_SIDED, WalkClass.THREE_SIDED, WalkClass.ONE_SIDED):
        if walk_class is WalkClass.ONE_SIDED:
            # partially directed: mu = 1 + sqrt(2), rho = sqrt(2) - 1
            s2 = sqrt_interval(2, _TOL)
            rho = s2 - 1
            out["rho"] = _paper("rho", rho)
            out["mu"] = _paper("mu", 1 + s2)
            return out
        rho = find_real_root(POLY_RHO_2SIDED, (Fraction(3, 10), Fraction(1, 2)), _TOL)
        out["rho"] = _paper("rho", rho)
        out["mu"] = _paper("mu", 1 / rho)
        tc = find_real_root(POLY_TC_SQUARE, (Fraction(1, 3), Fraction(1, 2)), _TOL)
        out["t_c"] = _paper("t_c", tc)
        if walk_class is WalkClass.TWO_SIDED:
            out["kappa"] = _paper(
                "kappa", rho * (3 * rho - 1) / ((3 * rho + 1) * (5 * rho - 2))
            )
            out["ne_dist_mean"] = _paper("ne_dist_mean", 2 * rho / (1 - 2 * rho))
            out["drift_sum"] = _paper("drift_sum", (rho + 1) / (3 * rho + 1))
            out["var_sum"] = _paper(
                "var_sum",
                4 * (rho + 1) * (rho + 1) * rho
                / ((3 * rho + 1) * (3 * rho + 1) * (3 * rho + 1) * (1 - rho)),
            )
            out["var_diff"] = _paper(
                "var_diff",
                rho * (rho * rho - 2) * (1 + rho)
                / ((rho * rho + rho - 1) * (3 * rho - 1) * (1 + 3 * rho)),
            )
        else:
            out["drift_width"] = _paper("drift_width", (1 + rho) / (2 * (1 + 3 * rho)))
            r2 = rho * rho
            num = 3 * rho * (1 + rho) * (385 - 1148 * r2 - 494 * rho)
            c3 = (3 * rho - 1) * (3 * rho - 1) * (3 * rho - 1)
            d3 = (1 + 3 * rho) * (1 + 3 * rho) * (1 + 3 * rho)
            out["var_width"] = _paper(
                "var_width", num / ((r2 + rho - 1) * c3 * d3 * 16)
            )
    elif walk_class is WalkClass.TRIANGULAR:
        rho = find_real_root(POLY_RHO_TRI, (Fraction(1, 4), Fraction(3, 10)), _TOL)
        s17 = sqrt_interval(17, _TOL)
        out["rho"] = _paper("rho", rho)
        out["mu"] = _paper("mu", (3 + s17) / 2)
        out["drift_box"] = _paper("drift_box", (1 + 1 / s17) / 2)
        out["var_box"] = _paper("var_box", 12 / (17 * s17))
        out["t_0"] = _paper(
            "t_0", find_real_root(POLY_T0_TRI, (Fraction(1, 4), Fraction(3, 10)), _TOL)
        )
        out["t_c"] = _paper(
            "t_c", find_real_root(POLY_TC_TRI, (Fraction(1, 5), Fraction(2, 5)), _TOL)
        )
    else:
        raise NotAvailableError(
            "no asymptotic constants for %s: open problem" % walk_class.value
        )
    if coeffs is not None and walk_class in (WalkClass.THREE_SIDED, WalkClass.TRIANGULAR):
        out["kappa"] = Constant(
            "kappa", RatInterval(_amplitude_estimate(coeffs, out["rho"].interval.mid)),
            "empirical",
        )
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
