"""Cross-check driver: runs each walk class's counting routes, its ROUTES row,
against each other and reports the first divergence, if any."""

from __future__ import annotations

from collections import namedtuple

from prudentwalks import closedforms, funceq
from prudentwalks.sampler import ExtTable, kinetic_sample
from prudentwalks.series import CPoly
from prudentwalks.walks import WalkClass, enumerate_counts, enumerate_tri_by_box

# count_n_max, oracle_n_max: the longest walks `count` and `verify` search
# (triangular search time grows about 4-fold per step); order_max: the highest
# series order (the 4-sided solver stores about order^4 terms); iteration: per
# refinement (None: unrefined), P's variables and the stream of its slices to
# an order; closed_form: P(t;1); kinetic: kinetic_sample(n, rng), for the
# class whose walks it grows
Route = namedtuple("Route", "count_n_max oracle_n_max order_max iteration closed_form kinetic",
                   defaults=(None, None))


def _p_stream(generate, *args):
    """The stream of P slices, the last item of each order, of a funceq generator."""
    return lambda n: (items[-1] for items in generate(n, *args))


ROUTES = {
    WalkClass.ONE_SIDED: Route(
        20, 20, 400, {None: ((), lambda n: ({(): c} for c in funceq.iterate_1sided(n).coeffs))},
        closedforms.one_sided_closed),
    WalkClass.TWO_SIDED: Route(20, 20, 400, {
        None: (("u",), _p_stream(funceq.slices_2sided)),
        "sum": (("u", "z"), _p_stream(funceq.slices_2sided, "sum")),
        "diagonal": (("u", "z"), _p_stream(funceq.slices_2sided, "diagonal")),
    }, lambda n: closedforms.two_sided_closed(n)[2]),
    WalkClass.THREE_SIDED: Route(20, 20, 400, {None: (("u",), _p_stream(funceq.lines_3sided))},
                                 lambda n: closedforms.three_sided_length_series(n)[1]),
    WalkClass.PRUDENT4: Route(20, 12, 80, {None: (("u",), _p_stream(funceq.lines_4sided))},
                              kinetic=kinetic_sample),
    WalkClass.TRIANGULAR: Route(12, 12, 400, {None: (("u",), _p_stream(funceq.lines_triangular))},
                                lambda n: closedforms.triangular_closed(n)[2]),
}


def run_iteration(wc, order, refined=None, full=False):
    """The counts of wc's iteration route, refined by `refined`, each the sum
    of a P slice, and with full P as a CPoly, or None (also when P has no
    catalytic variable, as its counts are then the whole series).  Without
    full each slice is summed as the stream yields it and then dropped."""
    vars, stream = ROUTES[wc].iteration[refined]
    if not (full and vars):
        return [sum(slc.values()) for slc in stream(order)], None
    series = CPoly(vars, order, list(stream(order)))
    return [sum(slc.values()) for slc in series.slices], series


def first_divergence(routes):
    """routes: mapping name -> coefficient list.  Returns None, or a dict
    describing the smallest n at which two routes that reach it differ, for
    the first such pair in sorted-name order."""
    names = sorted(routes)
    for n in range(max(map(len, routes.values()), default=0)):
        reached = [(name, routes[name][n]) for name in names if n < len(routes[name])]
        for i, (a, xa) in enumerate(reached):
            for b, xb in reached[i + 1:]:
                if xa != xb:
                    return {"n": n, "route_a": a, "route_b": b, "value_a": str(xa), "value_b": str(xb)}
    return None


TRI_BOX_K_MAX = 6  # the largest triangular box whose spanning walks `verify` searches


def verify_tri_box(k_max):
    """Box-spanning totals and the r-matrix: formula vs exhaustive search."""
    results = []
    ok = True
    for k in range(k_max + 1):
        total_o, r_o = enumerate_tri_by_box(k)
        total_f, r_f = closedforms.triangular_box_formula(k)
        agree = total_o == total_f and r_o == r_f
        ok = ok and agree
        results.append(
            {
                "k": k,
                "total_oracle": total_o,
                "total_formula": total_f,
                "r_agree": r_o == r_f,
                "agree": agree,
            }
        )
    return {"agree": ok, "by_size": results}


def run_verify(max_n_oracle, series_order, tri_box_k, classes=None):
    """The full cross-check matrix over the classes' ROUTES rows, all by
    default; each oracle searches to max_n_oracle or its row's cap, whichever
    is lower.  Returns a JSON-able report; the overall 'agree' flag is False
    iff any route pair diverges anywhere."""
    if classes is None:
        classes = list(ROUTES)
    report = {"classes": [], "agree": True}
    for wc in classes:
        row = ROUTES[wc]
        n_max = min(max_n_oracle, row.oracle_n_max)
        routes = {
            "oracle": enumerate_counts(wc, n_max),
            "iteration": run_iteration(wc, series_order)[0],
            "ext_table": ExtTable(wc, series_order).counts(),
        }
        if row.closed_form is not None:
            routes["closed_form"] = row.closed_form(series_order).integer_coeffs()
        divergence = first_divergence(routes)
        report["classes"].append({
            "class": wc.value,
            "routes": {k: [str(c) for c in v] for k, v in routes.items()},
            "max_n_oracle": n_max,
            "series_order": series_order,
            "agree": divergence is None,
            "first_divergence": divergence,
        })
        report["agree"] = report["agree"] and divergence is None
    if WalkClass.TRIANGULAR in classes:
        box = verify_tri_box(tri_box_k)
        report["tri_box"] = box
        report["agree"] = report["agree"] and box["agree"]
    return report
