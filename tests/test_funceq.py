import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from prudentwalks import funceq, verify
from prudentwalks.funceq import (
    iterate_1sided,
    rhs_2sided,
    rhs_3sided,
    rhs_4sided,
    rhs_triangular,
    solve_2sided,
    solve_2sided_diagonal,
    solve_2sided_refined_sum,
    solve_3sided,
    solve_4sided,
    solve_triangular,
)
from prudentwalks.series import CPoly, SeriesError
from prudentwalks.walks import (
    WalkClass,
    endpoint_stats,
    enumerate_counts,
    enumerate_walks,
    square_bounds,
)

N = 14


def counts(p):
    return p.specialize_ones().integer_coeffs()


def exact_mean(counter):
    """Exact mean of an endpoint statistic given as value -> count."""
    return Fraction(sum(v * c for v, c in counter.items()), sum(counter.values()))


def exact_variance(counter):
    mean = exact_mean(counter)
    second = Fraction(sum(v * v * c for v, c in counter.items()), sum(counter.values()))
    return second - mean * mean


def test_1sided_series():
    assert iterate_1sided(8).integer_coeffs() == [1, 3, 7, 17, 41, 99, 239, 577, 1393]


def test_2sided_series_vs_oracle():
    T, P = solve_2sided(N)
    got = counts(P)
    assert got[:6] == [1, 4, 10, 26, 66, 168]
    assert got[: 11] == enumerate_counts(WalkClass.TWO_SIDED, 10)


def test_2sided_corner_enders():
    # T(t;0) counts walks ending at the NE box corner; at n=1 both N and E
    # end there (E's degenerate box has its NE corner at the endpoint)
    T, _ = solve_2sided(6)
    t0 = T.substitute("u", 0).specialize_ones().integer_coeffs()
    corner = []
    for n in range(5):
        walks = enumerate_walks(WalkClass.TWO_SIDED, n)
        hits = 0
        for w in walks:
            vs = w.vertices()
            _, x_max, _, y_max = square_bounds(vs)
            # diagonal symmetry: count top-enders at the NE corner
            if vs[-1] == (x_max, y_max):
                hits += 1
        corner.append(hits)
    assert t0[:5] == corner
    assert t0[1] == 2


def test_3sided_series_vs_oracle():
    T, R, P = solve_3sided(N)
    got = counts(P)
    assert got[:3] == [1, 4, 12]
    assert got[:11] == enumerate_counts(WalkClass.THREE_SIDED, 10)


def test_3sided_first_divergence_from_2sided():
    # 3-sided walks first outnumber 2-sided ones at n = 2 (12 vs 10): the
    # walks SW and WS reach the left edge legally
    two = enumerate_counts(WalkClass.TWO_SIDED, 12)
    three = enumerate_counts(WalkClass.THREE_SIDED, 12)
    first = next(n for n in range(13) if three[n] != two[n])
    assert first == 2
    assert (two[2], three[2]) == (10, 12)


def test_4sided_series_vs_oracle():
    T, P = solve_4sided(N)
    got = counts(P)
    assert got[:3] == [1, 4, 12]
    assert got[:11] == enumerate_counts(WalkClass.PRUDENT4, 10)


def test_4sided_halfperimeter_constant_term():
    T, P = solve_4sided(6)
    assert P.slices[0] == {(0,): 1}  # empty walk, no u dependence


def test_triangular_series_vs_oracle():
    R, P = solve_triangular(N)
    got = counts(P)
    assert got[:2] == [1, 6]
    assert got[:10] == enumerate_counts(WalkClass.TRIANGULAR, 9)


def test_triangular_homogeneous_components_match_box_formula():
    # summing R's coefficients over n at fixed (i, j) counts the right-edge
    # enders spanning a box of size i+j; walks of size-k boxes have length at
    # most (k+1)(k+2)/2 - 1, so order 14 covers k <= 3
    from prudentwalks.closedforms import triangular_box_r

    R, _ = solve_triangular(14)
    totals = {}
    for slc in R.slices:
        for key, c in slc.items():
            totals[key] = totals.get(key, 0) + c
    for k in range(4):
        for i in range(k + 1):
            assert totals.get((i, k - i), 0) == triangular_box_r(i, k - i)


# -- residual and contraction properties ------------------------------------

def test_residuals_are_fixed_points():
    T2, _ = solve_2sided(12)
    assert rhs_2sided(T2) == T2
    T3, R3, _ = solve_3sided(12)
    Tp, Rp = rhs_3sided(T3, R3)
    assert Tp == T3 and Rp == R3
    T4, _ = solve_4sided(9)
    assert rhs_4sided(T4) == T4
    Rt, _ = solve_triangular(12)
    assert rhs_triangular(Rt) == Rt


def _truncate_above(p, m):
    q = p.truncate(p.order)  # a copy
    for n in range(m, p.order + 1):
        q.slices[n] = {}
    return q


def test_contraction_property():
    # two iterates agreeing mod t^m map to iterates agreeing mod t^(m+1)
    T2, _ = solve_2sided(10)
    for m in (3, 6):
        a = _truncate_above(T2, m)
        b = _truncate_above(T2, m + 2)
        ra, rb = rhs_2sided(a), rhs_2sided(b)
        for n in range(m + 1):
            assert ra.slices[n] == rb.slices[n]
    Rt, _ = solve_triangular(10)
    for m in (3, 6):
        a = _truncate_above(Rt, m)
        b = Rt
        ra, rb = rhs_triangular(a), rhs_triangular(b)
        for n in range(m + 1):
            assert ra.slices[n] == rb.slices[n]


def test_inclusion_chain_on_coefficients():
    c1 = iterate_1sided(N).integer_coeffs()
    c2 = counts(solve_2sided(N)[1])
    c3 = counts(solve_3sided(N)[2])
    c4 = counts(solve_4sided(N)[1])
    for n in range(N + 1):
        assert c1[n] <= c2[n] <= c3[n] <= c4[n]


def test_nonnegative_integer_coefficients():
    for p in (
        solve_2sided(10)[1],
        solve_3sided(10)[2],
        solve_4sided(10)[1],
        solve_triangular(10)[1],
    ):
        assert all(c >= 0 for c in counts(p))


def test_pruning_soundness():
    # the structural bound i+j+h <= n holds on every stored monomial of the
    # walk systems, so monomials beyond it may be skipped without changing
    # any specialization at u=v=w=1
    T3, R3, _ = solve_3sided(12)
    for n in range(13):
        for (i, j) in T3.slices[n]:
            assert i + j <= n
        for (a, b) in R3.slices[n]:
            assert a + b <= n
    T4, _ = solve_4sided(10)
    for n in range(11):
        for (i, j, h) in T4.slices[n]:
            assert i + j + h <= n


# -- refined systems ---------------------------------------------------------

def test_refined_sum_marginal_and_moments():
    T, P = solve_2sided_refined_sum(8)
    ref = counts(solve_2sided(8)[1])
    assert counts(P) == ref  # z = 1 marginal
    # the whole u-refined structure survives the z = 1 specialization
    assert P.substitute("z", 1).reorder(("u",)) == solve_2sided(8)[1]
    assert P.slices[1] == {(1, -1): 2, (0, 1): 2}  # n=1: two z, two 1/z
    # exact mean of X+Y at n = 6 equals the exhaustive value
    sl = P.slices[6]
    tot = sum(sl.values())
    mean = Fraction(sum(f * c for (_, f), c in sl.items()), tot)
    assert mean == exact_mean(endpoint_stats(WalkClass.TWO_SIDED, 6)["sum"])


def test_diagonal_symmetry_and_variance():
    T, P = solve_2sided_diagonal(8)
    assert all(slc == {(i, -f): c for (i, f), c in slc.items()} for slc in P.slices)  # z <-> 1/z
    assert counts(P) == counts(solve_2sided(8)[1])
    sl = P.slices[8]
    tot = sum(sl.values())
    var = Fraction(sum(f * f * c for (_, f), c in sl.items()), tot)
    stats = endpoint_stats(WalkClass.TWO_SIDED, 8)["diff"]
    assert exact_mean(stats) == 0
    assert var == exact_variance(stats)


# -- running sums at larger orders --------------------------------------------
# The solvers carry divided differences and geometric runs as running sums
# from slice to slice; truncation at slice N is where such a sum would go
# wrong, so these checks run well past the orders used above.

def test_residuals_are_fixed_points_at_larger_orders():
    T2, _ = solve_2sided(40)
    assert rhs_2sided(T2) == T2
    T3, R3, _ = solve_3sided(24)
    assert rhs_3sided(T3, R3) == (T3, R3)
    T4, _ = solve_4sided(18)
    assert rhs_4sided(T4) == T4
    Rt, _ = solve_triangular(24)
    assert rhs_triangular(Rt) == Rt


def test_refinements_specialize_to_2sided_at_order_40():
    P2 = solve_2sided(40)[1]
    _, P = solve_2sided_refined_sum(40)
    assert P.substitute("z", 1).reorder(("u",)) == P2
    _, Pd = solve_2sided_diagonal(40)
    assert counts(Pd) == counts(P2)


def test_lower_order_solutions_are_prefixes():
    # a solution to order n is the first n+1 slices of one to a higher order,
    # including the orders 0 and 1 where the running sums are still empty
    for solve, top in (
        (solve_2sided, 30),
        (solve_3sided, 16),
        (solve_4sided, 12),
        (solve_triangular, 16),
        (solve_2sided_refined_sum, 16),
        (solve_2sided_diagonal, 16),
    ):
        full = solve(top)
        for n in (0, 1, 2, top // 2):
            for a, b in zip(solve(n), full):
                assert a.slices == b.slices[: n + 1]


# -- the line solvers against forward-scatter references ----------------------
# The solvers read every single jump off the boundary of a running sum and
# build each u <-> v-symmetric line whole, as DU + reversed(DU).  The
# references below solve the same systems on dict slices with both mirrored
# running sums, scattering each single jump forward into the slice it lands
# on; the solvers must return the same slices, keys and coefficient types.

def _merge(dst, src):
    for key, c in src.items():
        dst[key] = dst.get(key, 0) + c


def _solve_3sided_two_sums(order):
    N = order
    Ts, Rs = [], []
    accT = [dict() for _ in range(N + 1)]
    accR = [{(n, 0): 1} for n in range(N + 1)]
    accT[0][(0, 0)] = 1
    DU, DV, DR, GR, prevR = {}, {}, {}, {}, {}
    for n in range(N + 1):
        curT = accT[n]
        _merge(curT, DU)
        _merge(curT, DV)
        curR = accR[n]
        _merge(curR, DR)
        _merge(curR, GR)
        curT = {k: c for k, c in curT.items() if c}
        curR = {k: c for k, c in curR.items() if c}
        Ts.append(curT)
        Rs.append(curR)
        if n == N:
            break
        nxtT = accT[n + 1]
        DU = {(i - 1, j + 1): c for (i, j), c in DU.items() if i}
        DV = {(i + 1, j - 1): c for (i, j), c in DV.items() if j}
        for key, c in curT.items():
            DU[key] = DU.get(key, 0) + c
            DV[key] = DV.get(key, 0) + c
            nxtT[key] = nxtT.get(key, 0) - c
            i, j = key
            m = n + 1 + i
            if m <= N:
                tgt = accR[m]
                tgt[(0, i + j)] = tgt.get((0, i + j), 0) + c
        for (a, b), c in prevR.items():
            GR[(a, b + 1)] = GR.get((a, b + 1), 0) + c
        GR = {(a + 1, b): c for (a, b), c in GR.items()}
        DR = {(a - 1, b): c for (a, b), c in DR.items() if a}
        for (a, b), c in curR.items():
            DR[(a, b + 1)] = DR.get((a, b + 1), 0) + c
            m = n + 1 + a
            if m <= N:
                tgt = accT[m]
                tgt[(b + 1, 0)] = tgt.get((b + 1, 0), 0) + c
                tgt[(0, b + 1)] = tgt.get((0, b + 1), 0) + c
        prevR = curR
    Ps = []
    for n in range(N + 1):
        acc = Counter({(0,): -1} if n else ())
        for (i, j), c in Ts[n].items():
            acc[(i + j,)] += c
            if j == 0:
                acc[(i,)] -= 2 * c
        for (a, b), c in Rs[n].items():
            acc[(b,)] += 2 * c
        Ps.append({key: c for key, c in acc.items() if c})
    return CPoly(("u", "v"), N, Ts), CPoly(("u", "w"), N, Rs), CPoly(("u",), N, Ps)


def _solve_4sided_two_sums(order):
    N = order
    slices = []
    acc = [dict() for _ in range(N + 1)]
    acc[0][(0, 0, 0)] = 1
    DU, DV = {}, {}
    for n in range(N + 1):
        cur = acc[n]
        _merge(cur, DU)
        _merge(cur, DV)
        cur = {k: c for k, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        nxt = acc[n + 1]
        DU = {(i - 1, j + 1, h): c for (i, j, h), c in DU.items() if i}
        DV = {(i + 1, j - 1, h): c for (i, j, h), c in DV.items() if j}
        for (i, j, h), c in cur.items():
            key = (i, j, h + 1)
            DU[key] = DU.get(key, 0) + c
            DV[key] = DV.get(key, 0) + c
            nxt[key] = nxt.get(key, 0) - c
            m = n + 1 + j
            if m <= N:
                tgt = acc[m]
                ku = (h + 1, 0, i + j)
                kv = (0, h + 1, i + j)
                tgt[ku] = tgt.get(ku, 0) + c
                tgt[kv] = tgt.get(kv, 0) + c
    T = CPoly(("u", "v", "w"), N, slices)
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


def _solve_triangular_two_sums(order):
    N = order
    slices = []
    acc = [dict() for _ in range(N + 1)]
    E, F, prevY = {}, {}, {}
    for n in range(N + 1):
        Y = acc[n]
        _merge(Y, E)
        _merge(Y, F)
        cur = {(0, 0): 1} if n == 0 else dict(prevY)
        _merge(cur, Y)
        cur = {k: c for k, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        prevY = Y
        E = {(i - 1, j + 1): c for (i, j), c in E.items() if i}
        F = {(i + 1, j - 1): c for (i, j), c in F.items() if j}
        for (i, j), c in cur.items():
            ke = (i, j + 1)
            kf = (i + 1, j)
            E[ke] = E.get(ke, 0) + c
            F[kf] = F.get(kf, 0) + c
            m = n + 1 + j
            if m <= N:
                tgt = acc[m]
                tgt[(i + j + 1, 0)] = tgt.get((i + j + 1, 0), 0) + c
            m = n + 1 + i
            if m <= N:
                tgt = acc[m]
                tgt[(0, i + j + 1)] = tgt.get((0, i + j + 1), 0) + c
    R = CPoly(("u", "v"), N, slices)
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


_REDUCED = [
    (solve_3sided, _solve_3sided_two_sums, (0, 1, 2, 5, 12, 24, 48)),
    (solve_4sided, _solve_4sided_two_sums, (0, 1, 2, 5, 12, 24, 32)),
    (solve_triangular, _solve_triangular_two_sums, (0, 1, 2, 5, 12, 24, 48)),
]


@pytest.mark.parametrize(
    "solve,reference,order",
    [(s, r, n) for s, r, orders in _REDUCED for n in orders],
    ids=[f"{s.__name__}-{n}" for s, _, orders in _REDUCED for n in orders],
)
def test_canonical_half_solvers_equal_two_sum_references(solve, reference, order):
    got, want = solve(order), reference(order)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.vars, a.order, len(a.slices)) == (b.vars, b.order, len(b.slices))
        for sa, sb in zip(a.slices, b.slices):
            assert {k: (type(c), c) for k, c in sa.items()} == {
                k: (type(c), c) for k, c in sb.items()
            }


def _solve_2sided_scatter(order):
    N = order
    slices = []
    acc = [{n: 1} for n in range(N + 1)]
    D, G, prev = {}, {}, {}
    for n in range(N + 1):
        cur = acc[n]
        _merge(cur, D)
        _merge(cur, G)
        cur = {i: c for i, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        _merge(G, prev)
        G = {i + 1: c for i, c in G.items()}
        D = {i - 1: c for i, c in D.items() if i}
        for i, c in cur.items():
            D[i] = D.get(i, 0) + c
            m = n + 1 + i
            if m <= N:
                acc[m][0] = acc[m].get(0, 0) + c
        prev = cur
    T = CPoly(("u",), N, [{(i,): c for i, c in slc.items()} for slc in slices])
    P = CPoly(("u",), N, [{(i,): 2 * c if i else c for i, c in slc.items()} for slc in slices])
    return T, P


def _solve_2sided_z_scatter(N, s):
    slices = []
    acc = [{(n, -n): 1} for n in range(N + 1)]
    D, G, prev = {}, {}, {}
    for n in range(N + 1):
        cur = acc[n]
        _merge(cur, D)
        _merge(cur, G)
        cur = {k: c for k, c in cur.items() if c}
        slices.append(cur)
        if n == N:
            break
        for (i, f), c in prev.items():
            G[(i, f + s)] = G.get((i, f + s), 0) + c
        G = {(i + 1, f - 1): c for (i, f), c in G.items()}
        D = {(i - 1, f + 1): c for (i, f), c in D.items() if i}
        for (i, f), c in cur.items():
            D[(i, f + s)] = D.get((i, f + s), 0) + c
            m = n + 1 + i
            if m <= N:
                key = (0, s * (f + i) + 1)
                acc[m][key] = acc[m].get(key, 0) + c
        prev = cur
    return slices


def _assert_same_slices(got, want):
    assert len(got) == len(want)
    for sa, sb in zip(got, want):
        assert {k: (type(c), c) for k, c in sa.items()} == {k: (type(c), c) for k, c in sb.items()}


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12, 40, 120])
def test_2sided_solver_equals_forward_scatter_reference(order):
    got, want = solve_2sided(order), _solve_2sided_scatter(order)
    for a, b in zip(got, want):
        assert (a.vars, a.order) == (b.vars, b.order)
        _assert_same_slices(a.slices, b.slices)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12, 40])
@pytest.mark.parametrize("solve,sign", [(solve_2sided_refined_sum, 1), (solve_2sided_diagonal, -1)])
def test_refinements_equal_forward_scatter_reference(solve, sign, order):
    T = solve(order)[0]
    assert (T.vars, T.order) == (("u", "z"), order)
    _assert_same_slices(T.slices, _solve_2sided_z_scatter(order, sign))


@pytest.mark.parametrize("solve", [
    solve_2sided, solve_3sided, solve_4sided, solve_triangular,
    solve_2sided_refined_sum, solve_2sided_diagonal,
])
def test_solvers_refuse_a_negative_order(solve):
    with pytest.raises(SeriesError, match="order must be >= 0"):
        solve(-1)


# -- the streamed length series ------------------------------------------------
# Each iteration route of verify.ROUTES is a stream of P slices, one per order:
# the last item of each order that lines_3sided, lines_4sided,
# lines_triangular and slices_2sided yield, or the 1-sided coefficients.
# solve_* keep every slice as a CPoly.  Both must give the same P, and no
# slice may change after it is yielded, or a consumer that holds the slices
# would see other ones.

_STREAMED = [
    (WalkClass.ONE_SIDED, None, lambda n: (CPoly.from_tseries((), iterate_1sided(n)),), 0, None,
     (0, 1, 2, 17, 40)),
    (WalkClass.TWO_SIDED, None, solve_2sided, 1, "slices_2sided", (0, 1, 2, 17, 40)),
    (WalkClass.TWO_SIDED, "sum", solve_2sided_refined_sum, 1, "slices_2sided", (0, 1, 2, 17, 40)),
    (WalkClass.TWO_SIDED, "diagonal", solve_2sided_diagonal, 1, "slices_2sided", (0, 1, 2, 17, 40)),
    (WalkClass.THREE_SIDED, None, solve_3sided, 2, "lines_3sided", (0, 1, 2, 17, 40)),
    (WalkClass.TRIANGULAR, None, solve_triangular, 1, "lines_triangular", (0, 1, 2, 17, 40)),
    (WalkClass.PRUDENT4, None, solve_4sided, 1, "lines_4sided", (0, 1, 2, 17, 24)),
]
_STREAMED_CASES = [(wc, r, s, pick, g, n) for wc, r, s, pick, g, orders in _STREAMED for n in orders]
_STREAMED_IDS = ["-".join(filter(None, [wc.value, r, str(n)])) for wc, r, _, _, _, n in _STREAMED_CASES]


def _streamed_p(walk_class, refined, order):
    """The route's P slices, collected into a CPoly."""
    vars, stream = verify.ROUTES[walk_class].iteration[refined]
    return CPoly(vars, order, list(stream(order)))


@pytest.mark.parametrize("walk_class,refined,solve,pick,lines,order", _STREAMED_CASES, ids=_STREAMED_IDS)
def test_length_series_equals_solver_p(walk_class, refined, solve, pick, lines, order):
    got, want = _streamed_p(walk_class, refined, order), solve(order)[pick]
    assert got == want
    vars = () if walk_class is WalkClass.ONE_SIDED else ("u", "z") if refined else ("u",)
    assert (got.vars, got.order) == (want.vars, want.order) == (vars, order)
    _assert_same_slices(got.slices, want.slices)
    counts, series = verify.run_iteration(walk_class, order, refined, full=True)
    assert counts == want.specialize_ones().integer_coeffs()
    assert (series is None) == (walk_class is WalkClass.ONE_SIDED)
    assert series is None or series == want
    assert verify.run_iteration(walk_class, order, refined) == (counts, None)


@pytest.mark.parametrize("walk_class,refined,solve,pick,lines,order", _STREAMED_CASES, ids=_STREAMED_IDS)
def test_solvers_equal_their_buffered_lines(monkeypatch, walk_class, refined, solve, pick, lines, order):
    # every slice collected before any is read gives the same P as reading
    # each as it is yielded, and, for the solvers, the same CPolys
    vars, stream = verify.ROUTES[walk_class].iteration[refined]
    assert list(stream(order)) == [dict(slc) for slc in stream(order)]
    if lines is None:
        return
    streamed = solve(order)
    generate = getattr(funceq, lines)
    monkeypatch.setattr(funceq, lines, lambda *args: list(generate(*args)))
    buffered = solve(order)
    assert len(buffered) == len(streamed)
    for a, b in zip(buffered, streamed):
        assert a == b
        assert (a.vars, a.order) == (b.vars, b.order)
        _assert_same_slices(a.slices, b.slices)
    assert _streamed_p(walk_class, refined, order) == streamed[pick]


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("walk_class,solve,order", [
    (WalkClass.PRUDENT4, solve_4sided, 32),
    (WalkClass.TRIANGULAR, solve_triangular, 80),
])
def test_length_series_keeps_a_fraction_of_the_solver_memory(walk_class, solve, order):
    assert _traced_peak(_streamed_p, walk_class, None, order) * 3 < _traced_peak(solve, order)
