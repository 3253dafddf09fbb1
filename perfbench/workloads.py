"""The benchmark's workloads: jobs, the independent routes that check them,
and the exact counters each job reports.

A job's ``run(tr, ctx)`` is the timed part.  It wraps every call into a
library module in ``tr.span("<module>.<what>")``; the span names are the
per-layer metric names without their ``_s`` suffix.  A job's
``check(result, ctx)`` runs after the pass, outside the timed region.  It
compares the result with a route that does not share the code under test
(another counting route, a formula from the paper, or a plain-list
reimplementation in this file), never with a value recorded from an earlier
run, and returns the job's exact counters.  It raises ``CheckError`` on a
wrong result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

from prudentwalks import asymptotics, cli, closedforms, funceq, render, verify, walks
from prudentwalks.labels import RULES
from prudentwalks.sampler import ExtTable, UniformSampler, exact_distribution, kinetic_sample
from prudentwalks.series import ts_compose
from prudentwalks.walks import WalkClass

W1, W2, W3, W4, WT = (
    WalkClass.ONE_SIDED,
    WalkClass.TWO_SIDED,
    WalkClass.THREE_SIDED,
    WalkClass.PRUDENT4,
    WalkClass.TRIANGULAR,
)
KEY = {W1: "1sided", W2: "2sided", W3: "3sided", W4: "4sided", WT: "triangular"}

# Growth constants stated in the paper: mu = 1 + sqrt(2) for partially
# directed walks, mu = 1/rho with rho the root of 1 - 2t - 2t^2 + 2t^3 for
# 2- and 3-sided walks, and mu = (3 + sqrt(17))/2 for triangular walks.
PAPER_MU = {
    W1: 1 + math.sqrt(2),
    W2: 2.4811943045802467,
    W3: 2.4811943045802467,
    WT: (3 + math.sqrt(17)) / 2,
}

Job = namedtuple("Job", "name params run check")
Workload = namedtuple("Workload", "name params setup setup_check jobs")


class CheckError(Exception):
    """A job's output disagrees with an independent route."""


class Context:
    """What one pass's jobs share: the seed, the set-up state, the results
    so far in this pass, and the run-wide reference values."""

    def __init__(self, seed, state, refs):
        self.seed = seed
        self.state = state
        self.refs = refs
        self.results = {}

    def rng(self, tag):
        # str seeds hash deterministically, so each job draws the same
        # stream in every pass and run with this seed
        return random.Random("%d:%s" % (self.seed, tag))


class Refs:
    """Reference values from independent routes, computed once per run,
    untimed and untraced."""

    def __init__(self):
        self._memo = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def oracle(self, wc, n):
        return self._get(("oracle", wc, n), lambda: walks.enumerate_counts(wc, n))

    def funceq(self, wc, order):
        return self._get(("funceq", wc, order), lambda: funceq_counts(wc, order))

    def ext_counts(self, wc, n):
        return self._get(("ext", wc, n), lambda: ExtTable(wc, n).counts())

    def marginal_2sided(self, kind, n):
        """Length-n 2-sided walks by X+Y ("sum") or X-Y ("diff"), read off
        the refined functional-equation series."""

        def make():
            solve = funceq.solve_2sided_refined_sum if kind == "sum" else funceq.solve_2sided_diagonal
            out = Counter()
            for (_, f), c in solve(n)[1].slices[n].items():
                out[f] += c
            return {k: c for k, c in out.items() if c}

        return self._get(("marginal", kind, n), make)

    def first(self, key, value):
        """The value stored under ``key`` by the first pass to get here."""
        return self._get(("first", key), lambda: value)


# --------------------------------------------------------------------------
# helpers shared by the checks
# --------------------------------------------------------------------------

def funceq_counts(wc, order):
    if wc is W1:
        return funceq.iterate_1sided(order).integer_coeffs()
    solved = {
        W2: lambda: funceq.solve_2sided(order)[1],
        W3: lambda: funceq.solve_3sided(order)[2],
        W4: lambda: funceq.solve_4sided(order)[1],
        WT: lambda: funceq.solve_triangular(order)[1],
    }[wc]()
    return solved.specialize_ones().integer_coeffs()


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def expect_prefix(what, got, want):
    """got and want agree on their overlap, which is not empty."""
    got, want = list(got), list(want)
    n = min(len(got), len(want))
    expect(n > 0, "%s: nothing to compare" % what)
    for i in range(n):
        expect(got[i] == want[i], "%s: differs at n=%d (%s != %s)" % (what, i, got[i], want[i]))


def coeff_bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c).bit_length()


def cpoly_counters(prefix, *polys):
    return {
        prefix + ".monomials": sum(len(s) for p in polys for s in p.slices),
        prefix + ".max_coeff_bits": max(
            (coeff_bits(c) for p in polys for s in p.slices for c in s.values()), default=0
        ),
    }


def series_bits(*series):
    return max((coeff_bits(c) for s in series for c in s.coeffs), default=0)


def conv(a, b, n):
    """Plain-list product of two coefficient lists, truncated after t^n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def nonzero(slices):
    return [{k: c for k, c in s.items() if c} for s in slices]


def svg_points(svg):
    """Number of vertices in the document's polyline."""
    start = svg.index('points="', svg.index("<polyline")) + len('points="')
    return len(svg[start : svg.index('"', start)].split())


def _by_name(sizes):
    return {KEY[wc]: n for wc, n in sizes.items()}


def merge_counters(into, new):
    for k, v in new.items():
        if k.endswith("max_coeff_bits"):
            into[k] = max(into.get(k, 0), v)
        else:
            into[k] = into.get(k, 0) + v
    return into


# --------------------------------------------------------------------------
# series: exact series from the solvers, the closed forms and the ring
# --------------------------------------------------------------------------

SERIES = {
    "solve_4sided": 32,
    "solve_3sided": 48,
    "solve_triangular": 48,
    "solve_2sided": 120,
    "solve_refined": 40,
    "rhs_check": 24,
    "two_sided": 120,
    "three_sided": 60,
    "three_sided_full": 16,
    "triangular": 120,
    "residuals": 24,
    "ring_order": 120,
    "compose_order": 60,
    "cpoly_order": 20,
    "oracle_prefix": 9,
    "oracle_prefix_triangular": 7,
    "ext_table_4sided": 24,
}


def _prefix(ctx, wc):
    n = SERIES["oracle_prefix_triangular" if wc is WT else "oracle_prefix"]
    return ctx.refs.oracle(wc, n)


def _solve_job(name, wc, solver, pick):
    order = SERIES[name]

    def run(tr, ctx):
        with tr.span("funceq." + name):
            return solver(order)

    def check(res, ctx):
        got = res[pick].specialize_ones().integer_coeffs()
        expect_prefix("funceq %s vs oracle" % KEY[wc], got, _prefix(ctx, wc))
        if wc is W4:
            expect_prefix(
                "funceq 4sided vs ExtTable", got,
                ctx.refs.ext_counts(W4, SERIES["ext_table_4sided"]),
            )
        return cpoly_counters("funceq", *res[:pick])

    return Job("funceq." + name, {"order": order}, run, check)


def _solved_counts(ctx, job, pick):
    return ctx.results[job][pick].specialize_ones().integer_coeffs()


def _refined_run(tr, ctx):
    n = SERIES["solve_refined"]
    with tr.span("funceq.solve_refined"):
        by_sum = funceq.solve_2sided_refined_sum(n)
        by_diff = funceq.solve_2sided_diagonal(n)
    return by_sum, by_diff


def _refined_check(res, ctx):
    plain = _solved_counts(ctx, "funceq.solve_2sided", 1)
    for what, (_, P) in zip(("sum", "diagonal"), res):
        expect_prefix("refined %s marginal vs 2sided" % what, P.specialize_ones().integer_coeffs(), plain)
    return cpoly_counters("funceq", res[0][0], res[1][0])


def _rhs_run(tr, ctx):
    n = SERIES["rhs_check"]
    T, R, _ = ctx.results["funceq.solve_3sided"]
    T, R = T.truncate(n), R.truncate(n)
    with tr.span("funceq.rhs_check"):
        Tp, Rp = funceq.rhs_3sided(T, R)
    return T, R, Tp, Rp


def _rhs_check(res, ctx):
    T, R, Tp, Rp = res
    expect(Tp == T and Rp == R, "3sided solution is not a fixed point of its equation")
    return {}


def _closed_job(name, fn, pick, versus):
    order = SERIES[name]

    def run(tr, ctx):
        with tr.span("closedforms." + name):
            return fn(order)

    def check(res, ctx):
        got = res[pick].integer_coeffs()
        for what, want in versus(ctx):
            expect_prefix("closedforms.%s vs %s" % (name, what), got, want)
        return {}

    return Job("closedforms." + name, {"order": order}, run, check)


def _residuals_run(tr, ctx):
    n = SERIES["residuals"]
    out = []
    with tr.span("closedforms.residuals"):
        for fn in (
            closedforms.two_sided_kernel_residual,
            closedforms.three_sided_q_homogeneity_residual,
            closedforms.triangular_kernel_parametrization_residual,
            closedforms.x_kernel_residual,
        ):
            out.append((fn.__name__, fn(n)))
    return out


def _residuals_check(res, ctx):
    for name, r in res:
        expect(r.is_zero(), "%s does not vanish" % name)
    return {}


_GROWTH_FROM = {
    W2: ("closedforms.two_sided", 2),
    W3: ("closedforms.three_sided", 1),
    WT: ("closedforms.triangular", 2),
}


def _growth_run(tr, ctx):
    out = {}
    for wc, (job, pick) in _GROWTH_FROM.items():
        coeffs = ctx.results[job][pick].integer_coeffs()
        with tr.span("asymptotics.growth_estimate"):
            out[wc] = asymptotics.growth_estimate(coeffs)[0]
    return out


def _growth_check(res, ctx):
    for wc, mu in res.items():
        rel = abs(mu - PAPER_MU[wc]) / PAPER_MU[wc]
        expect(rel < 0.01, "growth estimate %s = %r is %.2e off mu" % (KEY[wc], mu, rel))
    return {}


def _constants_run(tr, ctx):
    out = {}
    for wc in WalkClass:
        with tr.span("asymptotics.constants"):
            try:
                out[wc] = asymptotics.constants(wc)
            except asymptotics.NotAvailableError:
                out[wc] = None  # general prudent walks: open problem
    return out


def _constants_check(res, ctx):
    expect(res[W4] is None, "4sided constants should be unavailable")
    for wc, mu in PAPER_MU.items():
        got = res[wc]["mu"]
        expect(abs(got.value - mu) < 1e-9, "constants %s mu = %r" % (KEY[wc], got.value))
    return {}


def _ring_run(tr, ctx):
    U, P2, a = ctx.results["closedforms.two_sided"]
    b = ctx.results["closedforms.triangular"][2]
    m = SERIES["compose_order"]
    T, R, _ = ctx.results["funceq.solve_3sided"]
    n = SERIES["cpoly_order"]
    T, R = T.truncate(n), R.truncate(n)
    P2m, Um = P2.truncate(m), U.truncate(m)
    uR = R.mul_mono((1, 0))
    out = {"a": a, "b": b, "P2": P2m, "U": Um, "T": T, "R": R, "uR": uR}
    with tr.span("series.tseries_mul"):
        out["mul"] = a * b
    with tr.span("series.tseries_inv"):
        out["inv"] = a.inv()
    with tr.span("series.tseries_sqrt"):
        out["sqrt"] = a.sqrt()
    with tr.span("series.ts_compose"):
        out["compose"] = ts_compose(P2m, Um)
    with tr.span("series.cpoly_mul"):
        out["cmul"] = R * R
    with tr.span("series.cpoly_divided_difference"):
        out["dd"] = uR.divided_difference("u", "t")
    with tr.span("series.cpoly_substitute"):
        out["sub"] = T.substitute("u", ("t", "v"))
    return out


def _ring_check(res, ctx):
    a, b = list(res["a"].coeffs), list(res["b"].coeffs)
    n = len(a) - 1
    expect(list(res["mul"].coeffs) == conv(a, b, n), "TSeries mul")
    expect(conv(a, list(res["inv"].coeffs), n) == [1] + [0] * n, "TSeries inv")
    expect(conv(list(res["sqrt"].coeffs), list(res["sqrt"].coeffs), n) == a, "TSeries sqrt")
    # P(t; U) = sum_e P_e(t) U^e, by plain lists
    P2, U, m = res["P2"], list(res["U"].coeffs), res["P2"].order
    by_exp = {}
    for k, s in enumerate(P2.slices):
        for (e,), c in s.items():
            by_exp.setdefault(e, [0] * (m + 1))[k] += c
    want, power = [0] * (m + 1), [1] + [0] * m
    for e in range(max(by_exp) + 1):
        if e:
            power = conv(power, U, m)
        if e in by_exp:
            want = [x + y for x, y in zip(want, conv(by_exp[e], power, m))]
    expect(list(res["compose"].coeffs) == want, "ts_compose")
    R1 = [sum(s.values()) for s in res["R"].slices]
    expect([sum(s.values()) for s in res["cmul"].slices] == conv(R1, R1, len(R1) - 1), "CPoly mul")
    # (u^e - t^e)/(u - t) = sum_k u^(e-1-k) t^k, monomial by monomial
    uR, N = res["uR"], res["uR"].order
    dd = [Counter() for _ in range(N + 1)]
    for k, s in enumerate(uR.slices):
        for (e, j), c in s.items():
            for i in range(min(e, N + 1 - k)):
                dd[k + i][(e - 1 - i, j)] += c
    expect(nonzero(res["dd"].slices) == nonzero(dd), "CPoly divided difference")
    # T(tv, v): t^k u^i v^j -> t^(k+i) v^(i+j)
    T, N = res["T"], res["T"].order
    sub = [Counter() for _ in range(N + 1)]
    for k, s in enumerate(T.slices):
        for (i, j), c in s.items():
            if k + i <= N:
                sub[k + i][(0, i + j)] += c
    expect(nonzero(res["sub"].slices) == nonzero(sub), "CPoly substitute")
    outputs = [res["mul"], res["inv"], res["sqrt"], res["compose"]]
    bits = max(
        series_bits(*outputs),
        cpoly_counters("series", res["cmul"], res["dd"], res["sub"])["series.max_coeff_bits"],
    )
    return {"series.max_coeff_bits": bits}


SERIES_JOBS = [
    _solve_job("solve_4sided", W4, funceq.solve_4sided, 1),
    _solve_job("solve_3sided", W3, funceq.solve_3sided, 2),
    _solve_job("solve_triangular", WT, funceq.solve_triangular, 1),
    _solve_job("solve_2sided", W2, funceq.solve_2sided, 1),
    Job("funceq.solve_refined", {"order": SERIES["solve_refined"]}, _refined_run, _refined_check),
    Job("funceq.rhs_check", {"order": SERIES["rhs_check"], "class": "3sided"}, _rhs_run, _rhs_check),
    _closed_job(
        "two_sided", closedforms.two_sided_closed, 2,
        lambda ctx: [("funceq", _solved_counts(ctx, "funceq.solve_2sided", 1)),
                     ("oracle", _prefix(ctx, W2))],
    ),
    _closed_job(
        "three_sided", closedforms.three_sided_length_series, 1,
        lambda ctx: [("funceq", _solved_counts(ctx, "funceq.solve_3sided", 2)),
                     ("oracle", _prefix(ctx, W3))],
    ),
    _closed_job(
        "three_sided_full", closedforms.three_sided_closed, 2,
        lambda ctx: [("three_sided", ctx.results["closedforms.three_sided"][1].integer_coeffs()),
                     ("oracle", _prefix(ctx, W3))],
    ),
    _closed_job(
        "triangular", closedforms.triangular_closed, 2,
        lambda ctx: [("funceq", _solved_counts(ctx, "funceq.solve_triangular", 1)),
                     ("oracle", _prefix(ctx, WT))],
    ),
    Job("closedforms.residuals", {"order": SERIES["residuals"]}, _residuals_run, _residuals_check),
    Job(
        "asymptotics.growth_estimate",
        {"coeffs": {KEY[wc]: SERIES[job.split(".")[1]] + 1 for wc, (job, _) in _GROWTH_FROM.items()}},
        _growth_run, _growth_check,
    ),
    Job("asymptotics.constants", {"classes": [KEY[wc] for wc in WalkClass]}, _constants_run, _constants_check),
    Job(
        "series.ring",
        {k: SERIES[k] for k in ("ring_order", "compose_order", "cpoly_order")},
        _ring_run, _ring_check,
    ),
]


# --------------------------------------------------------------------------
# enumerate: the exhaustive oracle
# --------------------------------------------------------------------------

ENUMERATE = {
    "oracle_n": {W1: 11, W2: 11, W3: 10, W4: 10, WT: 7},
    "tri_box_k": 4,
    "endpoint_n": 10,
    "verify": {"max_n_oracle": 7, "series_order": 24, "tri_box_k": 2},
}


def _oracle_job(wc):
    n = ENUMERATE["oracle_n"][wc]

    def run(tr, ctx):
        with tr.span("walks.oracle_" + KEY[wc]):
            return walks.enumerate_counts(wc, n)

    def check(res, ctx):
        expect(len(res) == n + 1, "oracle %s returned %d counts" % (KEY[wc], len(res)))
        expect_prefix("oracle %s vs funceq" % KEY[wc], res, ctx.refs.funceq(wc, n))
        return {"walks.oracle_walks": sum(res)}

    return Job("walks.oracle_" + KEY[wc], {"class": KEY[wc], "n_max": n}, run, check)


def _tri_box_run(tr, ctx):
    with tr.span("walks.tri_box"):
        return walks.enumerate_tri_by_box(ENUMERATE["tri_box_k"])


def _tri_box_check(res, ctx):
    k = ENUMERATE["tri_box_k"]
    expect(res == closedforms.triangular_box_formula(k), "box-spanning counts vs formula at k=%d" % k)
    return {}


def _endpoint_run(tr, ctx):
    with tr.span("walks.endpoint_stats"):
        return walks.endpoint_stats(W2, ENUMERATE["endpoint_n"])


def _endpoint_check(res, ctx):
    n = ENUMERATE["endpoint_n"]
    expect(sum(res["width"].values()) == ctx.refs.funceq(W2, n)[n], "endpoint_stats total")
    for kind in ("sum", "diff"):
        got = {k: c for k, c in res[kind].items() if c}
        expect(got == ctx.refs.marginal_2sided(kind, n), "endpoint %s distribution" % kind)
    return {}


def _verify_run(tr, ctx):
    with tr.span("verify.run_verify"):
        return verify.run_verify(**ENUMERATE["verify"])


def _verify_check(res, ctx):
    expect(res["agree"] is True, "run_verify reports a divergence")
    return {}


ENUMERATE_JOBS = [_oracle_job(wc) for wc in WalkClass] + [
    Job("walks.tri_box", {"k": ENUMERATE["tri_box_k"]}, _tri_box_run, _tri_box_check),
    Job("walks.endpoint_stats", {"class": "2sided", "n": ENUMERATE["endpoint_n"]}, _endpoint_run, _endpoint_check),
    Job("verify.run_verify", ENUMERATE["verify"], _verify_run, _verify_check),
]


# --------------------------------------------------------------------------
# sample: the recursive method over prebuilt tables, and the kinetic walk
# --------------------------------------------------------------------------

SAMPLE = {
    "table_n": {W2: 200, W3: 60, W4: 32, WT: 60},
    "draws": 100,
    "short_n": 5,
    "short_draws": 3_000,
    "exact_n": 6,
    "kinetic_walks": 50,  # many short walks: the cost of is_prudent depends on the walk's shape
    "kinetic_steps": 1_000,
    "table_prefix": 30,
    "oracle_prefix": 9,
    "cli": [
        ["sample", "--class", "2-sided", "--length", "400", "--format", "svg"],
        ["sample", "--class", "triangular", "--length", "80", "--count", "4", "--format", "json"],
    ],
}


def _sample_setup(tr, seed):
    tables = {}
    for wc, n in SAMPLE["table_n"].items():
        with tr.span("sampler.ext_table_" + KEY[wc]):
            tables[wc] = ExtTable(wc, n)
    return tables


def _sample_setup_check(tables, refs):
    """Table counts against the functional equations and, for 4-sided
    walks, the oracle; returns the table-size counter."""
    k = SAMPLE["table_prefix"]
    for wc, tab in tables.items():
        got = tab.counts()
        expect(len(got) == tab.n + 1, "ExtTable %s counts length" % KEY[wc])
        expect_prefix("ExtTable %s vs funceq" % KEY[wc], got, refs.funceq(wc, k))
    expect_prefix("ExtTable 4sided vs oracle", tables[W4].counts(), refs.oracle(W4, SAMPLE["oracle_prefix"]))
    return {"sampler.ext_table_entries": sum(len(s) for t in tables.values() for s in t.slabs[1:])}


def _draw_run(tr, ctx):
    out = {}
    for wc, tab in ctx.state.items():
        rng = ctx.rng("draw:" + KEY[wc])
        with tr.span("sampler.draw"):
            s = UniformSampler(wc, tab.n, table=tab)
            out[wc] = [s.sample(rng) for _ in range(SAMPLE["draws"])]
    return out


def _draw_check(res, ctx):
    steps = 0
    for wc, ws in res.items():
        expect(len(ws) == SAMPLE["draws"], "draw count")
        for w in ws:
            expect(len(w) == ctx.state[wc].n, "a %s draw has length %d" % (KEY[wc], len(w)))
            steps += len(w)
    return {"sampler.draw_steps": steps, "sampler.draws": sum(len(ws) for ws in res.values())}


def _membership_run(tr, ctx):
    drawn = ctx.results["sampler.draw"]
    out = {}
    for wc, ws in drawn.items():
        with tr.span("walks.membership"):
            out[wc] = [walks.in_class(w, wc) for w in ws]
    return out


def _membership_check(res, ctx):
    drawn = ctx.results["sampler.draw"]
    for wc, ok in res.items():
        expect(len(ok) == len(drawn[wc]) and all(ok), "a %s draw fails in_class" % KEY[wc])
    return {"walks.membership_steps": sum(len(w) for ws in drawn.values() for w in ws)}


def _labels_run(tr, ctx):
    calls = 0
    for wc, tab in ctx.state.items():
        l_children = RULES[wc].l_children
        with tr.span("labels.l_children"):
            for slab in tab.slabs[1:]:
                for label in slab:
                    l_children(label)
                calls += len(slab)
    return calls


def _labels_check(res, ctx):
    entries = sum(len(s) for t in ctx.state.values() for s in t.slabs[1:])
    expect(res == entries, "l_children calls %d != table entries %d" % (res, entries))
    return {"labels.l_children_calls": res}


def _short_run(tr, ctx):
    out = {}
    for wc in WalkClass:
        rng = ctx.rng("short:" + KEY[wc])
        with tr.span("sampler.short_draw"):
            s = UniformSampler(wc, SAMPLE["short_n"])
            out[wc] = [s.sample(rng) for _ in range(SAMPLE["short_draws"])]
    return out


def _short_check(res, ctx):
    n = SAMPLE["short_n"]
    for wc, ws in res.items():
        expect(len(ws) == SAMPLE["short_draws"], "short draw count")
        expect(all(len(w) == n and walks.in_class(w, wc) for w in ws), "a short %s draw is wrong" % KEY[wc])
    return {}


def _exact_run(tr, ctx):
    out = {}
    for wc in WalkClass:
        with tr.span("sampler.exact_distribution"):
            out[wc] = exact_distribution(wc, SAMPLE["exact_n"])
    return out


def _exact_check(res, ctx):
    n = SAMPLE["exact_n"]
    for wc, law in res.items():
        p = ctx.refs.oracle(wc, n)[n]
        expect(len(law) == p, "%s law has %d walks, oracle counts %d" % (KEY[wc], len(law), p))
        expect(all(q == Fraction(1, p) for q in law.values()), "%s law is not uniform" % KEY[wc])
    return {}


def _kinetic_run(tr, ctx):
    out = []
    for i in range(SAMPLE["kinetic_walks"]):
        rng = ctx.rng("kinetic:%d" % i)
        with tr.span("sampler.kinetic"):
            w = kinetic_sample(SAMPLE["kinetic_steps"], rng)
        with tr.span("walks.membership"):
            ok = walks.is_prudent(w)
        with tr.span("render.svg"):
            svg = render.render_svg(w)
        out.append((w, ok, svg))
    return out


def _kinetic_check(res, ctx):
    n = SAMPLE["kinetic_steps"]
    for w, ok, svg in res:
        expect(len(w) == n and ok, "a kinetic walk is not a prudent %d-step walk" % n)
        expect(svg_points(svg) == n + 1, "kinetic svg polyline")
    steps = sum(len(w) for w, _, _ in res)
    return {"sampler.kinetic_steps": steps, "walks.membership_steps": steps}


def _cli_run(tr, ctx):
    out = []
    for argv in SAMPLE["cli"]:
        buf = io.StringIO()
        with tr.span("cli.sample"), contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--seed", str(ctx.seed)])
        out.append((rc, buf.getvalue()))
    return out


def _cli_check(res, ctx):
    (rc_svg, svg), (rc_json, text) = res
    expect(rc_svg == 0 and rc_json == 0, "cli exit codes %d, %d" % (rc_svg, rc_json))
    expect(svg_points(svg) == 401, "cli svg polyline")
    doc = json.loads(text)
    ws = [walks.walk_from_json(w) for w in doc["walks"]]
    expect(len(ws) == 4 and all(len(w) == 80 and walks.in_class(w, WT) for w in ws), "cli json walks")
    expect(ctx.refs.first("cli", res) == res, "cli output differs between passes")
    return {}


SAMPLE_JOBS = [
    Job("sampler.draw", {"tables": _by_name(SAMPLE["table_n"]), "draws_per_table": SAMPLE["draws"]}, _draw_run, _draw_check),
    Job("walks.membership", {"of": "sampler.draw"}, _membership_run, _membership_check),
    Job("labels.l_children", {"of": "every table label"}, _labels_run, _labels_check),
    Job("sampler.short_draw", {"n": SAMPLE["short_n"], "draws_per_class": SAMPLE["short_draws"]}, _short_run, _short_check),
    Job("sampler.exact_distribution", {"n": SAMPLE["exact_n"]}, _exact_run, _exact_check),
    Job("sampler.kinetic", {"walks": SAMPLE["kinetic_walks"], "steps": SAMPLE["kinetic_steps"]}, _kinetic_run, _kinetic_check),
    Job("cli.sample", {"argv": SAMPLE["cli"]}, _cli_run, _cli_check),
]


def _no_setup(tr, seed):
    return None


def _no_setup_check(state, refs):
    return {}


WORKLOADS = {
    "series": Workload("series", SERIES, _no_setup, _no_setup_check, SERIES_JOBS),
    "enumerate": Workload(
        "enumerate", {**ENUMERATE, "oracle_n": _by_name(ENUMERATE["oracle_n"])},
        _no_setup, _no_setup_check, ENUMERATE_JOBS,
    ),
    "sample": Workload(
        "sample", {**SAMPLE, "table_n": _by_name(SAMPLE["table_n"])},
        _sample_setup, _sample_setup_check, SAMPLE_JOBS,
    ),
}
