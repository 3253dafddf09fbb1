"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The suite recomputes every
route from scratch; expect a few minutes of wall-clock time, dominated by the
exhaustive triangular enumeration and the chi-square sampling.
"""

import random
from fractions import Fraction

import pytest

from prudentwalks import closedforms, verify
from prudentwalks.asymptotics import (
    POLY_RHO_2SIDED,
    POLY_RHO_TRI,
    POLY_T0_TRI,
    POLY_TC_SQUARE,
    POLY_TC_TRI,
    _poly_eval,
    find_real_root,
    growth_estimate,
    sqrt_interval,
)
from prudentwalks.sampler import ExtTable, UniformSampler, exact_distribution, kinetic_sample
from prudentwalks.walks import (
    WalkClass,
    enumerate_counts,
    enumerate_tri_by_box,
    in_class,
    is_prudent,
    square_bounds,
    tri_bounds,
)

ITER_ORDER = 40
ORACLE_N = {
    WalkClass.ONE_SIDED: 14,
    WalkClass.TWO_SIDED: 14,
    WalkClass.THREE_SIDED: 14,
    WalkClass.PRUDENT4: 12,
    WalkClass.TRIANGULAR: 12,
}


def report(criterion, ok, detail=""):
    line = "ACCEPTANCE %s: %s" % (criterion, "PASS" if ok else "FAIL")
    if detail:
        line += " -- " + detail
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def oracle_counts():
    return {wc: enumerate_counts(wc, ORACLE_N[wc]) for wc in WalkClass}


@pytest.fixture(scope="session")
def iteration_counts():
    return {wc: verify.run_iteration(wc, ITER_ORDER)[0] for wc in verify.ROUTES}


@pytest.fixture(scope="session")
def closed_counts():
    return {
        wc: row.closed_form(ITER_ORDER).integer_coeffs()
        for wc, row in verify.ROUTES.items()
        if wc is not WalkClass.PRUDENT4  # general prudent walks have no closed form
    }


@pytest.fixture(scope="session")
def table_counts():
    return {wc: ExtTable(wc, ITER_ORDER).counts() for wc in WalkClass}


def test_c1_four_route_agreement(oracle_counts, iteration_counts, closed_counts, table_counts):
    mismatches = []
    for wc in WalkClass:
        routes = {
            "oracle": oracle_counts[wc],
            "iteration": iteration_counts[wc],
            "ext_table": table_counts[wc],
        }
        if wc in closed_counts:
            routes["closed"] = closed_counts[wc]
        names = sorted(routes)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                xa, xb = routes[names[a]], routes[names[b]]
                overlap = min(len(xa), len(xb))
                if xa[:overlap] != xb[:overlap]:
                    mismatches.append((wc.value, names[a], names[b]))
    report(
        "C1 four-route agreement (5 classes, exact)",
        not mismatches,
        "oracle<=12/14, iteration & closed forms & DP tables to order %d" % ITER_ORDER
        if not mismatches
        else repr(mismatches),
    )


def test_c2_specific_sequences(oracle_counts):
    ok = (
        oracle_counts[WalkClass.ONE_SIDED][:5] == [1, 3, 7, 17, 41]
        and oracle_counts[WalkClass.TWO_SIDED][:6] == [1, 4, 10, 26, 66, 168]
        and oracle_counts[WalkClass.PRUDENT4][2] == 12
    )
    report("C2 specific sequences", ok, "1-sided, 2-sided prefixes; p_2(prudent) = 12")


def test_c3_triangular_box_spanning():
    expected_totals = [1, 12, 144, 1920, 28800]
    ok = True
    for k in range(5):
        total_o, r_o = enumerate_tri_by_box(k)
        total_f, r_f = closedforms.triangular_box_formula(k)
        ok = ok and total_o == total_f == expected_totals[k] and r_o == r_f
    report("C3 box-spanning counts k<=4", ok, "totals %s; r-matrices entrywise" % expected_totals)


def test_c4_kernel_identities():
    order = 101
    ok_2s = closedforms.two_sided_kernel_residual(order).is_zero()
    ok_q = closedforms.three_sided_q_homogeneity_residual(order).is_zero()
    ok_tri = closedforms.triangular_kernel_parametrization_residual(order).is_zero()
    Y = closedforms.y_series(order)
    ok_y = closedforms.y_alg_residual_of(Y).is_zero()
    report(
        "C4 kernel identities mod t^101",
        ok_2s and ok_q and ok_tri and ok_y,
        "2-sided at U; q-homogeneity; triangular parametrization; Y equation",
    )


@pytest.fixture(scope="session")
def series_200():
    return {
        WalkClass.TWO_SIDED: closedforms.two_sided_closed(200)[2].integer_coeffs(),
        WalkClass.THREE_SIDED: closedforms.three_sided_length_series(200)[1]
        .integer_coeffs(),
        WalkClass.TRIANGULAR: closedforms.triangular_closed(200)[2].integer_coeffs(),
    }


def test_c5_growth_constants(series_200):
    targets = {
        WalkClass.TWO_SIDED: 2.4811943045802467,
        WalkClass.THREE_SIDED: 2.4811943045802467,
        WalkClass.TRIANGULAR: (3 + 17 ** 0.5) / 2,
    }
    details = []
    ok = True
    for wc, target in targets.items():
        mu_hat, _ = growth_estimate(series_200[wc])
        rel = abs(mu_hat - target) / target
        ok = ok and rel < 0.01
        details.append("%s: %.6f (rel %.2e)" % (wc.value, mu_hat, rel))
    report("C5 growth constants from 200 coefficients (1%)", ok, "; ".join(details))


def test_c6_root_recovery():
    tol = Fraction(1, 10 ** 8)
    ok = True
    details = []

    rho2 = find_real_root(POLY_RHO_2SIDED, (Fraction(3, 10), Fraction(1, 2)), tol)
    ok &= rho2.width <= tol and abs(float(rho2) - 0.4030317168) < 1e-7
    details.append("rho=%.8f" % float(rho2))

    tc = find_real_root(POLY_TC_SQUARE, (Fraction(1, 3), Fraction(1, 2)), tol)
    s2 = sqrt_interval(2, Fraction(1, 10 ** 12))
    ok &= abs(float(tc) - (float(s2) - 1)) < 1e-8
    details.append("t_c=%.8f" % float(tc))

    rho_t = find_real_root(POLY_RHO_TRI, (Fraction(1, 4), Fraction(3, 10)), tol)
    s17 = sqrt_interval(17, Fraction(1, 10 ** 12))
    ok &= abs(float(rho_t) - (float(s17) - 3) / 4) < 1e-8
    details.append("rho_tri=%.8f" % float(rho_t))

    t0 = find_real_root(POLY_T0_TRI, (Fraction(1, 4), Fraction(3, 10)), tol)
    ok &= abs(float(t0) - 0.288356259) < 1e-7 and _poly_eval(POLY_T0_TRI, t0.lo) * _poly_eval(POLY_T0_TRI, t0.hi) <= 0
    details.append("t_0=%.8f" % float(t0))

    tct = find_real_root(POLY_TC_TRI, (Fraction(1, 5), Fraction(2, 5)), tol)
    ok &= abs(float(tct) - 0.295597742) < 1e-7
    details.append("t_c_tri=%.8f" % float(tct))

    report("C6 singularity locations to 1e-8", bool(ok), ", ".join(details))


def _mc_walks(walk_class, n, count, seed):
    sampler = UniformSampler(walk_class, n)
    rng = random.Random(seed)
    return [sampler.sample(rng) for _ in range(count)]


def test_c7_monte_carlo_constants():
    count = 10_000
    details = []
    ok = True

    walks = _mc_walks(WalkClass.TWO_SIDED, 400, count, seed=20080902)
    sums, nes, diffs = [], [], []
    for w in walks:
        vs = w.vertices()
        (x, y), (_, x_max, _, y_max) = vs[-1], square_bounds(vs)
        sums.append(x + y)
        nes.append((x_max - x) + (y_max - y))
        diffs.append(x - y)
    drift = sum(sums) / count / 400
    ok &= abs(drift - 0.63) <= 0.03
    details.append("E(X+Y)/n=%.4f" % drift)
    ne_mean = sum(nes) / count
    ok &= abs(ne_mean - 4.15) <= 0.4
    details.append("NE-dist=%.3f" % ne_mean)
    mean_diff = sum(diffs) / count
    var_diff = sum((d - mean_diff) ** 2 for d in diffs) / (count - 1) / 400
    ok &= abs(var_diff - 5.17) <= 0.8
    details.append("Var(X-Y)/n=%.3f" % var_diff)

    walks = _mc_walks(WalkClass.THREE_SIDED, 200, count, seed=20080903)
    bounds = [square_bounds(w.vertices()) for w in walks]
    width = sum(x_max - x_min for x_min, x_max, _, _ in bounds) / count / 200
    ok &= abs(width - 0.31) <= 0.03
    details.append("3-sided width/n=%.4f" % width)

    walks = _mc_walks(WalkClass.TRIANGULAR, 200, count, seed=20080904)
    bounds = [tri_bounds(w.vertices()) for w in walks]
    size = sum(s_max - x_min - y_min for x_min, y_min, s_max in bounds) / count / 200
    ok &= abs(size - 0.6213) <= 0.03
    details.append("tri box/n=%.4f" % size)

    report("C7 Monte Carlo constants (10^4 uniform samples)", bool(ok), "; ".join(details))


def test_c8_sampler_exactness(oracle_counts):
    # symbolic path probabilities at n <= 6
    ok = True
    for wc in WalkClass:
        for n in range(7):
            dist = exact_distribution(wc, n)
            pn = oracle_counts[wc][n]
            if len(dist) != pn or set(dist.values()) != {Fraction(1, pn)}:
                ok = False
    report("C8a exact uniformity n<=6 (symbolic)", ok, "path products equal 1/p_n")

    # chi-square over all length-5 walks, 1e6 samples, significance 0.001
    from scipy.stats import chi2 as chi2_dist

    details = []
    ok2 = True
    for wc in WalkClass:
        pn = oracle_counts[wc][5]
        sampler = UniformSampler(wc, 5)
        rng = random.Random(424242)
        counts = {}
        trials = 1_000_000
        for _ in range(trials):
            w = sampler.sample(rng)
            counts[w.steps] = counts.get(w.steps, 0) + 1
        expected = trials / pn
        stat = sum((c - expected) ** 2 for c in counts.values()) / expected
        stat += (pn - len(counts)) * expected  # unseen walks contribute E each
        threshold = chi2_dist.ppf(0.999, pn - 1)
        ok2 = ok2 and stat < threshold
        details.append("%s: chi2=%.1f < %.1f (df=%d)" % (wc.value, stat, threshold, pn - 1))
    report("C8b chi-square n=5, 1e6 samples, alpha=0.001", ok2, "; ".join(details))


def test_c9_membership_soundness():
    ok = True
    for wc in WalkClass:
        walks = _mc_walks(wc, 60, 1000, seed=606060)
        ok = ok and all(in_class(w, wc) for w in walks)
    kin = kinetic_sample(10_000, seed=99)
    ok = ok and is_prudent(kin) and len(kin) == 10_000
    report(
        "C9 membership soundness",
        ok,
        "10^3 samples/class at n=60; kinetic walk at n=10^4 is prudent",
    )


def test_c10_analytic_results_excluded():
    # The non-D-finiteness, pole-accumulation and natural-boundary statements
    # are theorems, not computations; their computable shadows are covered by
    # C4 (kernel identities) and C6 (singularity locations), and nothing else
    # in the package claims to reproduce them.
    report(
        "C10 analytic statements excluded by design",
        True,
        "covered indirectly by C4 and C6",
    )
