"""Exact truncated power series in t and polynomials in catalytic variables.

All coefficients are exact: Python ints, or fractions.Fraction where a
denominator is forced.  That happens only for a Fraction input, a square root
past its first odd numerator, or a divisor whose constant term is not +-1:
`half` returns an int whenever the half is integral and `_unit_inverse`
gives the int +-1, so integer data stay in ints without a later pass.
Every series carries an explicit truncation order N and is exact modulo
t^(N+1); binary operations on mismatched orders truncate to the smaller one.

A CPoly variable can be substituted by four images: 0, 1, t, or t times a
variable (possibly itself).  Every nonzero image and variable reordering maps
each monomial to one monomial and a power of t, so they share one loop,
`CPoly._remap`.  A series in t is substituted for the variable of a
one-variable CPoly by `ts_compose`.

Divided differences expand (x^i - r^i)/(x - r) = sum_k x^(i-1-k) r^k as a
running sum over slices: slice n of the result is the input's slice n over x
plus r/x times the result's slice n - 1, so every output monomial is built
once.  No rational-function arithmetic appears anywhere in this module.  A
CPoly product, quotient and square root pack each exponent tuple into one
mixed-radix int, so their inner loops add ints, and unpack the keys once per
output slice.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from operator import add, mul


class SeriesError(ValueError):
    """Invalid input to a series operation."""


def half(c):
    """Exact c/2, an int whenever it is integral."""
    if isinstance(c, int):
        return c // 2 if c % 2 == 0 else Fraction(c, 2)
    h = c / 2
    return h.numerator if h.denominator == 1 else h


def _unit_inverse(c0):
    """1/c0 for a divisor's constant term c0; c0 = +-1 gives the int +-1."""
    if not c0:
        raise SeriesError("division needs a divisor with a nonzero constant term")
    return int(c0) if c0 in (1, -1) else Fraction(1, 1) / c0


def coeff_to_str(c):
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


class TSeries:
    """Power series in t with exact coefficients, truncated at t^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order):
        coeffs = list(coeffs)
        if order < 0:
            raise SeriesError("order must be >= 0")
        if len(coeffs) <= order:
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        else:
            del coeffs[order + 1:]
        self.order = order
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls([0], order)

    @classmethod
    def one(cls, order):
        return cls([1], order)

    @classmethod
    def t(cls, order):
        return cls([0, 1], order)

    @classmethod
    def from_terms(cls, order, terms):
        """terms: mapping exponent -> coefficient."""
        coeffs = [0] * (order + 1)
        for e, c in terms.items():
            if 0 <= e <= order:
                coeffs[e] = c
        return cls(coeffs, order)

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, TSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, int) or type(other) is Fraction:
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[: min(8, self.order + 1)])
        tail = ", ..." if self.order >= 8 else ""
        return "TSeries([%s%s], order=%d)" % (shown, tail, self.order)

    def is_zero(self):
        return not any(self.coeffs)

    def valuation(self):
        """Index of the first nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot extend truncation order %d to %d" % (self.order, order))
        return TSeries(self.coeffs[: order + 1], order)

    def shift(self, k):
        """Multiplication by t^k (k >= 0), same truncation order."""
        if k < 0:
            raise SeriesError("negative shift")
        return TSeries([0] * k + self.coeffs[: self.order + 1 - k], self.order)

    def shift_down(self, k):
        """Exact division by t^k; requires valuation >= k.  Order drops by k."""
        if any(self.coeffs[:k]):
            raise SeriesError("series is not divisible by t^%d" % k)
        if self.order - k < 0:
            raise SeriesError("order too small for shift_down")
        return TSeries(self.coeffs[k:], self.order - k)

    def integer_coeffs(self):
        """Coefficients as ints; raises if any coefficient is non-integral."""
        out = []
        for n, c in enumerate(self.coeffs):
            f = Fraction(c)
            if f.denominator != 1:
                raise SeriesError("coefficient of t^%d is not an integer: %s" % (n, c))
            out.append(f.numerator)
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int) or type(other) is Fraction:
            coeffs = self.coeffs[:]
            coeffs[0] = coeffs[0] + other
            return TSeries(coeffs, self.order)
        order = min(self.order, other.order)
        return TSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order
        )

    __radd__ = __add__

    def __neg__(self):
        return TSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int) or type(other) is Fraction:
            if other == 0:
                return TSeries.zero(self.order)
            return TSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        # the inner loop runs over the nonzero terms of the sparser factor
        outer = [(i, c) for i, c in enumerate(self.coeffs[: order + 1]) if c]
        inner = [(j, c) for j, c in enumerate(other.coeffs[: order + 1]) if c]
        if len(outer) < len(inner):
            outer, inner = inner, outer
        out = [0] * (order + 1)
        for i, ai in outer:
            for j, bj in inner:
                if i + j > order:
                    break
                out[i + j] += ai * bj
        return TSeries(out, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact quotient q = self/other, other with constant term d_0 != 0: one
        pass of q_m = (a_m - sum_{k>=1} d_k q_(m-k)) / d_0 over nonzero d_k."""
        b0 = _unit_inverse(other.coeffs[0])
        order = min(self.order, other.order)
        terms = [(k, dk) for k, dk in enumerate(other.coeffs[1: order + 1], 1) if dk]
        out = self.coeffs[: order + 1]
        for m in range(order + 1):
            s = out[m]
            for k, dk in terms:
                if k > m:
                    break
                s -= dk * out[m - k]
            out[m] = s if b0 == 1 else b0 * s
        return TSeries(out, order)

    def inv(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        return TSeries.one(self.order) / self

    def sqrt(self):
        """Square root with constant term 1; r*r == self mod t^(order+1).

        As with `half`, each coefficient is an int when it is integral and a
        Fraction otherwise.  An integer series gets the tail from its first
        odd numerator 2 r_m on from ints: a(4t) = 1 + 4x(t) with x integral,
        so each s_m = 4^m r_m is an int."""
        if self.coeffs[0] != 1:
            raise SeriesError("TSeries.sqrt requires constant term 1")
        n = self.order
        out = [0] * (n + 1)
        out[0] = 1
        a = self.coeffs
        integral = all(type(c) is int for c in a)
        for m in range(1, n + 1):
            s = a[m]
            for k in range(1, m):
                rk = out[k]
                if rk:
                    s -= rk * out[m - k]
            if integral and s & 1:
                break
            out[m] = half(s)
        else:
            return TSeries(out, n)
        scaled = [r << 2 * k for k, r in enumerate(out[:m])]
        for j in range(m, n + 1):
            s = a[j] << 2 * j
            for k in range(1, j):
                sk = scaled[k]
                if sk:
                    s -= sk * scaled[j - k]
            scaled.append(s >> 1)
            r = Fraction(s >> 1, 1 << 2 * j)
            out[j] = r.numerator if r.denominator == 1 else r
        return TSeries(out, n)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return CPoly.from_tseries((), self).to_json()


def ts_compose(outer, inner):
    """Substitute the TSeries `inner` for the auxiliary variable of `outer`.

    `outer` is a single-variable CPoly: a series in t whose coefficients are
    polynomials in one catalytic variable.  The substitution is exact modulo
    t^(order+1) when inner has valuation >= 1.  An inner series with nonzero
    constant term is accepted only when every stored term of `outer` has
    coefficient valuation >= its variable exponent (then the slice at t^n of
    the composition still only involves finitely many terms); otherwise it is
    rejected as invalid input.
    """
    if len(outer.vars) != 1:
        raise SeriesError("ts_compose expects a single-variable outer series")
    order = min(outer.order, inner.order)
    if inner.coeffs[0] != 0:
        for exps, coeff in outer.terms().items():
            e = exps[0]
            val = coeff.valuation()
            if e > 0 and (val is None or val < e):
                raise SeriesError(
                    "inner has nonzero constant term and outer violates the "
                    "valuation-dominance condition at exponent %d" % e
                )
    # group coefficients by variable exponent, then Horner-free direct sum
    by_exp = {}
    for n in range(order + 1):
        for exps, c in outer.slices[n].items():
            by_exp.setdefault(exps[0], {})[n] = c
    result = TSeries.zero(order)
    power = TSeries.one(order)
    for e in range(0, max(by_exp) + 1 if by_exp else 0):
        if e > 0:
            power = power * inner
            if power.is_zero():
                break
        if e in by_exp:
            result = result + TSeries.from_terms(order, by_exp[e]) * power
    return result


# --------------------------------------------------------------------------
# CPoly: polynomials in catalytic variables with TSeries coefficients.
# Stored slice-wise: slices[n] maps exponent tuples to the t^n coefficient.
# --------------------------------------------------------------------------

def _dict_add_into(dst, src):
    for key, c in src.items():
        acc = dst.get(key, 0) + c
        if acc:
            dst[key] = acc
        elif key in dst:
            del dst[key]


def _packing(los, his):
    """(pack, unpack) for exponent tuples with lo_i <= e_i <= hi_i.

    pack maps a slice to (int key, coefficient) pairs, the key being
    sum(e_i * stride_i) with mixed-radix strides of widths hi_i - lo_i + 1.
    The map is linear, so the packed key of a product monomial is the sum of
    its factors' packed keys; unpack(pairs) is the slice dict of the nonzero
    pairs under their exponent tuples, exact inside the box.
    """
    widths = [hi - lo + 1 for lo, hi in zip(los, his)]
    strides = [1, *accumulate(widths[:-1], mul)]
    base = sum(map(mul, los, strides))

    def pack(slc):
        return [(sum(map(mul, key, strides)), c) for key, c in slc.items()]

    def unpack(pairs):
        slc = {}
        for k, c in pairs:
            if c:
                k -= base
                exps = []
                for lo, w in zip(los, widths):
                    k, d = divmod(k, w)
                    exps.append(lo + d)
                slc[tuple(exps)] = c
        return slc

    return pack, unpack


def _packed_products(pairs):
    """Sum of the products of packed slice pairs, as a packed-key dict
    (cancelled terms stay, with coefficient 0)."""
    acc = {}
    get = acc.get
    for sa, sb in pairs:
        if sa and sb:
            for ka, ca in sa:
                for kb, cb in sb:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
    return acc


class CPoly:
    """Truncated series in t whose coefficients are (Laurent) monomial sums
    in named catalytic variables.

    Exponents may be negative only for the refinement variable z.  A stored
    term is dropped as soon as its coefficient vanishes modulo t^(N+1).
    """

    __slots__ = ("vars", "order", "slices")

    def __init__(self, vars, order, slices=None):
        if order < 0:
            raise SeriesError("order must be >= 0")
        self.vars = tuple(vars)
        self.order = order
        if slices is None:
            slices = [dict() for _ in range(order + 1)]
        self.slices = slices

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, vars, order, c=1):
        p = cls(vars, order)
        if c:
            p.slices[0][(0,) * len(p.vars)] = c
        return p

    @classmethod
    def monomial(cls, vars, order, exps, tpow=0):
        p = cls(vars, order)
        if tpow <= order:
            p.slices[tpow][tuple(exps)] = 1
        return p

    @classmethod
    def from_tseries(cls, vars, ts, exps=None):
        vars = tuple(vars)
        if exps is None:
            exps = (0,) * len(vars)
        p = cls(vars, ts.order)
        for n, c in enumerate(ts.coeffs):
            if c:
                p.slices[n][tuple(exps)] = c
        return p

    @classmethod
    def geom(cls, vars, order, exps):
        """1/(1 - t mono(exps))."""
        p = cls(vars, order)
        for m in range(order + 1):
            p.slices[m][tuple(e * m for e in exps)] = 1
        return p

    # -- views -------------------------------------------------------------

    def _vi(self, var):
        try:
            return self.vars.index(var)
        except ValueError:
            raise SeriesError("unknown catalytic variable %r" % var) from None

    def terms(self):
        """Mapping exponent tuple -> TSeries coefficient (no zero series)."""
        acc = {}
        for n, slc in enumerate(self.slices):
            for key, c in slc.items():
                acc.setdefault(key, [0] * (self.order + 1))[n] = c
        return {key: TSeries(cs, self.order) for key, cs in acc.items() if any(cs)}

    def is_zero(self):
        return all(not slc for slc in self.slices)

    def valuation(self):
        """Index of the first nonzero slice, or None for the zero series."""
        return next((n for n, slc in enumerate(self.slices) if slc), None)

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.vars == other.vars and self.order == other.order and self.slices == other.slices

    def __repr__(self):
        nterms = sum(len(s) for s in self.slices)
        return "CPoly(vars=%r, order=%d, %d stored monomials)" % (
            self.vars,
            self.order,
            nterms,
        )

    # -- arithmetic --------------------------------------------------------

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise SeriesError("variable sets differ: %r vs %r" % (self.vars, other.vars))

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot extend truncation order")
        return CPoly(self.vars, order, [dict(s) for s in self.slices[: order + 1]])

    def __add__(self, other):
        if isinstance(other, int) or type(other) is Fraction:
            other = CPoly.constant(self.vars, self.order, other)
        self._check_vars(other)
        order = min(self.order, other.order)
        out = CPoly(self.vars, order, [dict(s) for s in self.slices[: order + 1]])
        for n in range(order + 1):
            _dict_add_into(out.slices[n], other.slices[n])
        return out

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, int) or type(other) is Fraction:
            other = CPoly.constant(self.vars, self.order, other)
        return self + (other * -1)

    def __rsub__(self, other):
        return (self * -1) + other

    def __mul__(self, other):
        if isinstance(other, int) or type(other) is Fraction:
            if other == 0:
                return CPoly(self.vars, self.order)
            out = CPoly(self.vars, self.order)
            for n, slc in enumerate(self.slices):
                out.slices[n] = {k: c * other for k, c in slc.items()}
            return out
        if isinstance(other, TSeries):
            other = CPoly.from_tseries(self.vars, other)
        self._check_vars(other)
        order = min(self.order, other.order)
        out = CPoly(self.vars, order)
        a, b = self.slices[: order + 1], other.slices[: order + 1]
        if not any(a) or not any(b):
            return out
        # Packed keys: the box of the product's exponents is the sum of the
        # operands' boxes (lo may be negative for the Laurent variable z)
        cols_a = list(zip(*[key for slc in a for key in slc]))
        cols_b = list(zip(*[key for slc in b for key in slc]))
        los = [min(ca) + min(cb) for ca, cb in zip(cols_a, cols_b)]
        his = [max(ca) + max(cb) for ca, cb in zip(cols_a, cols_b)]
        pack, unpack = _packing(los, his)
        pa, pb = list(map(pack, a)), list(map(pack, b))
        for n in range(order + 1):
            acc = _packed_products((pa[na], pb[n - na]) for na in range(n + 1))
            out.slices[n] = unpack(acc.items())
        return out

    __rmul__ = __mul__

    def mul_mono(self, exps=None, tpow=0):
        """Multiply by t^tpow * mono(exps) (fast path); with exps None or all
        zero, a shift by t^tpow that copies each slice as it is."""
        if tpow < 0:
            raise SeriesError("negative shift")
        out = CPoly(self.vars, self.order)
        exps = tuple(exps or ())
        for m, slc in zip(range(tpow, self.order + 1), self.slices):
            if any(exps):
                out.slices[m] = {tuple(map(add, key, exps)): coeff for key, coeff in slc.items()}
            else:
                out.slices[m] = dict(slc)
        return out

    def shift(self, k):
        return self.mul_mono(tpow=k)

    def shift_down(self, k):
        """Exact division by t^k; the k lowest slices must vanish."""
        if any(self.slices[:k]):
            raise SeriesError("CPoly not divisible by t^%d" % k)
        out = CPoly(self.vars, self.order - k)
        out.slices = [dict(s) for s in self.slices[k:]]
        return out

    def __truediv__(self, other):
        """Exact quotient q = self/other, other's t^0 slice a nonzero constant
        d_0: one pass of q_m = (a_m - sum_{k>=1} d_k q_(m-k)) / d_0 over packed
        keys, in the numerator's box widened by the divisor's power box."""
        if isinstance(other, TSeries):
            other = CPoly.from_tseries(self.vars, other)
        self._check_vars(other)
        zero_key = (0,) * len(self.vars)
        s0 = other.slices[0]
        if list(s0.keys()) not in ([zero_key], []):
            raise SeriesError("CPoly division needs a divisor with a pure constant term")
        b0 = _unit_inverse(s0.get(zero_key, 0))
        order = min(self.order, other.order)
        a = self.slices[: order + 1]
        if not any(a):
            return CPoly(self.vars, order)
        cols, (los, his) = list(zip(*[key for slc in a for key in slc])), other._power_box()
        pack, unpack = _packing(list(map(add, map(min, cols), los)), list(map(add, map(max, cols), his)))
        pd = list(map(pack, other.slices[: order + 1]))
        po = []  # packed slices of the quotient
        for m in range(order + 1):
            acc = dict(pack(a[m]))
            get = acc.get
            for key, c in _packed_products((pd[k], po[m - k]) for k in range(1, m + 1)).items():
                acc[key] = get(key, 0) - c
            po.append([(key, c if b0 == 1 else b0 * c) for key, c in acc.items() if c])
        return CPoly(self.vars, order, list(map(unpack, po)))

    def sqrt(self):
        """Square root when the t^0 slice is exactly 1."""
        zero_key = (0,) * len(self.vars)
        if self.slices[0] != {zero_key: 1}:
            raise SeriesError("CPoly.sqrt needs constant term exactly 1")
        pack, unpack = _packing(*self._power_box())
        ps = list(map(pack, self.slices))
        po = [[(0, 1)]]
        for m in range(1, self.order + 1):
            acc = dict(ps[m])
            get = acc.get
            for key, c in _packed_products((po[k], po[m - k]) for k in range(1, m)).items():
                acc[key] = get(key, 0) - c
            po.append([(key, half(c)) for key, c in acc.items() if c])
        return CPoly(self.vars, self.order, list(map(unpack, po)))

    def _power_box(self):
        """(los, his): per-variable exponent bounds for a power series in
        self - self_0 (the inverse, the square root) and the slice products
        that build it.  A t^m monomial there is a product of terms from slices
        k_j >= 1 with sum k_j = m <= N, so each exponent lies within N times
        the least and greatest exponent-per-degree ratio over the slices."""
        N = self.order
        los = his = [0] * len(self.vars)
        for k, slc in enumerate(self.slices[1:], 1):
            if slc:
                cols = list(zip(*slc))
                los = [min(lo, N * min(col) // k) for lo, col in zip(los, cols)]
                his = [max(hi, N * max(col) // k) for hi, col in zip(his, cols)]
        return los, his

    # -- substitution and divided differences ------------------------------

    def substitute(self, var, image):
        """Substitute `image` for `var`.

        Supported images:
          0, 1        -- specialization
          "t"         -- var := t
          ("t", name) -- var := t * name (name may be var itself)
        Monomials whose t-order exceeds the truncation order are dropped.
        """
        k = self._vi(var)
        if image == 0:
            return CPoly(self.vars, self.order, [
                {key: c for key, c in slc.items() if key[k] == 0} for slc in self.slices
            ])
        if image == 1:
            return self._remap(self.vars, lambda key: (0, key[:k] + (0,) + key[k + 1:]))
        j = self._t_image(image)

        def t_image(key):
            nk = list(key)
            nk[k] = 0
            if j is not None:
                nk[j] += key[k]
            return key[k], tuple(nk)

        return self._remap(self.vars, t_image)

    def _t_image(self, image):
        """Index of name for the image ("t", name), None for "t"; any other
        image raises."""
        if image == "t":
            return None
        if isinstance(image, tuple) and len(image) == 2 and image[0] == "t":
            return self._vi(image[1])
        raise SeriesError("unsupported substitution image %r" % (image,))

    def _remap(self, vars, keymap):
        """The CPoly over `vars` that sends each monomial c t^n key to
        c t^(n+s) key2, (s, key2) = keymap(key), summing the images that meet
        and dropping those past the truncation order.  s < 0 means t stood
        for a negative exponent, which has no power-series image."""
        out = CPoly._accumulator(vars, self.order)
        for n, slc in enumerate(self.slices):
            for key, c in slc.items():
                s, nk = keymap(key)
                if s < 0:
                    raise SeriesError("cannot substitute a t-image for a negative exponent")
                if n + s <= self.order:
                    out.slices[n + s][nk] += c
        return out._drop_zeros()

    def divided_difference(self, var, replacement):
        """(f - f[var:=r]) / (var - r) as a running sum over slices.

        replacement is "t" (r = t) or ("t", name) (r = t*name), as in
        `substitute`, name another variable.  x^e goes to
        sum_{m<e} x^(e-1-m) r^m, so slice g_n of the result is
        f_n/x + (r/t) g_(n-1)/x over the terms with a positive x-exponent.
        Exact: the returned g satisfies g*(var - r) = f - f[var:=r].
        """
        k = self._vi(var)
        j = self._t_image(replacement)
        if j == k:
            raise SeriesError("divided difference by %s - t*%s is not supported" % (var, var))
        down = [-(i == k) for i in range(len(self.vars))]
        carry = [d + (i == j) for i, d in enumerate(down)]
        out = CPoly._accumulator(self.vars, self.order)
        g = {}
        for slc, acc in zip(self.slices, out.slices):
            for key, c in g.items():
                if key[k]:
                    acc[tuple(map(add, key, carry))] += c
            for key, c in slc.items():
                if key[k] < 0:
                    raise SeriesError("divided difference needs non-negative exponents")
                if key[k]:
                    acc[tuple(map(add, key, down))] += c
            g = acc
        return out._drop_zeros()

    def rename(self, mapping):
        """Rename variables; mapping old->new must be a bijection on names."""
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise SeriesError("rename would collide variables")
        return CPoly(new_vars, self.order, [dict(s) for s in self.slices])

    def reorder(self, vars):
        """Return an equal CPoly over the given variable tuple (a permutation,
        superset, or subset-with-zero-exponents of the current one)."""
        vars = tuple(vars)
        pos = [vars.index(v) if v in vars else None for v in self.vars]

        def move(key):
            nk = [0] * len(vars)
            for p, e in zip(pos, key):
                if p is not None:
                    nk[p] = e
                elif e:
                    raise SeriesError("cannot drop variable with nonzero exponent")
            return 0, tuple(nk)

        return self._remap(vars, move)

    @classmethod
    def _accumulator(cls, vars, order):
        """Zero CPoly whose slices add into missing keys; _drop_zeros ends it."""
        return cls(vars, order, [defaultdict(int) for _ in range(order + 1)])

    def _drop_zeros(self):
        """Plain-dict slices without the keys whose sum cancelled to zero."""
        self.slices = [{key: c for key, c in slc.items() if c} for slc in self.slices]
        return self

    def specialize_ones(self):
        """TSeries obtained by setting every catalytic variable to 1."""
        cs = [0] * (self.order + 1)
        for n, slc in enumerate(self.slices):
            cs[n] = sum(slc.values())
        return TSeries(cs, self.order)

    # -- serialization -----------------------------------------------------

    _JSON_FIELDS = ("u", "v", "w", "z")

    def to_json(self):
        terms = []
        for key, coeff in sorted(self.terms().items()):
            entry = {f: 0 for f in self._JSON_FIELDS}
            for v, e in zip(self.vars, key):
                if v not in self._JSON_FIELDS:
                    raise SeriesError("JSON schema only covers variables u, v, w, z")
                entry[v] = e
            entry["coeffs"] = [coeff_to_str(c) for c in coeff.coeffs]
            terms.append(entry)
        return {"order": self.order, "terms": terms}
