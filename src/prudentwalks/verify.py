"""Cross-check driver: runs the independent counting routes against each
other and reports the first divergence, if any."""

from __future__ import annotations

from prudentwalks import closedforms, funceq
from prudentwalks.sampler import ExtTable
from prudentwalks.walks import WalkClass, enumerate_counts, enumerate_tri_by_box

# the longest walks searched exhaustively: 4-sided and triangular ones in
# run_verify, triangular ones (search time about 4-fold per step) in `count`
SLOW_ORACLE_N_MAX = 12


def first_divergence(routes):
    """routes: mapping name -> coefficient list.  Compares all pairs on the
    overlap; returns None or a dict describing the smallest divergent n."""
    names = sorted(routes)
    worst = None
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            xa, xb = routes[names[a]], routes[names[b]]
            for n in range(min(len(xa), len(xb))):
                if xa[n] != xb[n]:
                    if worst is None or n < worst["n"]:
                        worst = {
                            "n": n,
                            "route_a": names[a],
                            "route_b": names[b],
                            "value_a": str(xa[n]),
                            "value_b": str(xb[n]),
                        }
                    break
    return worst


def verify_class(walk_class, max_n_oracle, series_order):
    """Compute the four counting routes for one class and compare them."""
    closed = closedforms.length_series(walk_class, series_order)
    routes = {
        "oracle": enumerate_counts(walk_class, max_n_oracle),
        "iteration": funceq.length_series(walk_class, series_order).specialize_ones().integer_coeffs(),
        "ext_table": ExtTable(walk_class, series_order).counts(),
        "closed_form": None if closed is None else closed.integer_coeffs(),
    }
    routes = {name: counts for name, counts in routes.items() if counts is not None}
    divergence = first_divergence(routes)
    return {
        "class": walk_class.value,
        "routes": {k: [str(c) for c in v] for k, v in routes.items()},
        "max_n_oracle": max_n_oracle,
        "series_order": series_order,
        "agree": divergence is None,
        "first_divergence": divergence,
    }


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
    """The full cross-check matrix.  Returns a JSON-able report; the overall
    'agree' flag is False iff any route pair diverges anywhere."""
    if classes is None:
        classes = list(WalkClass)
    report = {"classes": [], "agree": True}
    for wc in classes:
        cap = max_n_oracle
        if wc in (WalkClass.PRUDENT4, WalkClass.TRIANGULAR):
            cap = min(cap, SLOW_ORACLE_N_MAX)
        entry = verify_class(wc, cap, series_order)
        report["classes"].append(entry)
        report["agree"] = report["agree"] and entry["agree"]
    if WalkClass.TRIANGULAR in classes:
        box = verify_tri_box(tri_box_k)
        report["tri_box"] = box
        report["agree"] = report["agree"] and box["agree"]
    return report
