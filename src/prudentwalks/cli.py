"""Command-line interface.

Subcommands: count, series, closedform, asym, sample, render, verify.
All machine output is JSON; walks render to SVG or ASCII.  Runs with the
same arguments and seed are byte-identical.

Exit codes: 0 success, 1 verification mismatch, 2 invalid arguments,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from prudentwalks import asymptotics, render, verify
from prudentwalks.sampler import DEFAULT_MAX_ENTRIES, ResourceBudgetError, UniformSampler
from prudentwalks.series import SeriesError
from prudentwalks.walks import (
    SquareWalk,
    TriWalk,
    WalkClass,
    enumerate_counts,
    walk_from_json,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_ARGS = 2
EXIT_BUDGET = 3

CLASS_NAMES = {wc.value: wc for wc in WalkClass}
CLASS_NAMES["prudent"] = WalkClass.PRUDENT4


class CliError(Exception):
    def __init__(self, message, code=EXIT_BAD_ARGS):
        super().__init__(message)
        self.code = code


def _walk_class(name):
    try:
        return CLASS_NAMES[name]
    except KeyError:
        raise CliError("unknown walk class %r" % name) from None


def _check_order(flag, order, classes):
    """Refuse a series order outside 0..the lowest order cap of the classes."""
    wc = min(classes, key=lambda c: verify.ROUTES[c].order_max)
    cap = verify.ROUTES[wc].order_max
    if not 0 <= order <= cap:
        raise CliError("%s must be in 0..%d for %s walks" % (flag, cap, wc.value))


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_count(args):
    wc = _walk_class(args.walk_class)
    cap = verify.ROUTES[wc].count_n_max
    if not 0 <= args.n_max <= cap:
        raise CliError("--n-max must be in 0..%d for %s walks (exhaustive search)" % (cap, wc.value))
    counts = enumerate_counts(wc, args.n_max)
    _emit_json(args, {"class": wc.value, "route": "oracle", "counts": counts})


def cmd_series(args):
    wc = _walk_class(args.walk_class)
    _check_order("--order", args.order, [wc])
    if args.refined not in verify.ROUTES[wc].iteration:
        raise CliError("--refined %s does not apply to %s walks" % (args.refined, wc.value))
    counts, series = verify.run_iteration(wc, args.order, args.refined, args.full)
    out = {"class": wc.value, "route": "iteration", "counts": counts}
    if args.refined:
        out["refined"] = args.refined
    if series is not None:
        out["series"] = series.to_json()
    _emit_json(args, out)


def cmd_closedform(args):
    wc = _walk_class(args.walk_class)
    _check_order("--order", args.order, [wc])
    closed_form = verify.ROUTES[wc].closed_form
    if closed_form is None:
        raise CliError("no closed form exists for general prudent walks (open problem)")
    series = closed_form(args.order)
    out = {
        "class": wc.value,
        "route": "closed-form",
        "counts": series.integer_coeffs(),
    }
    if args.full:
        out["series"] = series.to_json()
    _emit_json(args, out)


def cmd_asym(args):
    wc = _walk_class(args.walk_class)
    _check_order("--growth-order", args.growth_order, [wc])
    row, least = verify.ROUTES[wc], asymptotics.GROWTH_MIN_COEFFS - 1
    if 0 < args.growth_order < least:
        raise CliError("--growth-order must be 0 or in %d..%d" % (least, row.order_max))
    coeffs = None
    if args.growth_order:
        if row.closed_form is None:
            raise CliError("no growth series target for general prudent walks")
        coeffs = row.closed_form(args.growth_order).integer_coeffs()
    consts = asymptotics.constants(wc, coeffs=coeffs)
    out = {
        "class": wc.value,
        "constants": [c.to_json() for _, c in sorted(consts.items())],
    }
    if coeffs is not None:
        mu_hat, diag = asymptotics.growth_estimate(coeffs)
        out["growth_estimate"] = {
            "mu_hat": mu_hat,
            "n_coeffs": diag["n_coeffs"],
            "raw_ratio_last": diag["raw_ratio_last"],
            "stages": diag["stages"],
        }
    _emit_json(args, out)


def cmd_sample(args):
    wc = _walk_class(args.walk_class)
    if args.length < 0:
        raise CliError("--length must be >= 0")
    if args.count < 1:
        raise CliError("--count must be >= 1")
    if args.max_entries < 0:
        raise CliError("--max-entries must be >= 0")
    if args.format == "svg" and args.count > 1 and not args.out:
        raise CliError("--format svg with --count > 1 needs --out PREFIX")
    rng = random.Random(args.seed)
    if args.kinetic:
        kinetic = verify.ROUTES[wc].kinetic
        if kinetic is None:
            raise CliError("the kinetic sampler generates 4-sided prudent walks")
        walks = [kinetic(args.length, rng) for _ in range(args.count)]
    else:
        sampler = UniformSampler(wc, args.length, max_entries=args.max_entries)
        walks = [sampler.sample(rng) for _ in range(args.count)]
    if args.format == "steps":
        _emit(args, "".join(w.to_text() + "\n" for w in walks))
    elif args.format == "json":
        _emit_json(
            args,
            {
                "class": wc.value,
                "length": args.length,
                "seed": args.seed,
                "kinetic": bool(args.kinetic),
                "walks": [w.to_json() for w in walks],
            },
        )
    elif args.count == 1:  # svg
        _emit(args, render.render_svg(walks[0], box=args.box))
    else:
        for idx, w in enumerate(walks):
            path = "%s-%04d.svg" % (args.out, idx)
            with open(path, "w") as fh:
                fh.write(render.render_svg(w, box=args.box))


def _load_walk(args):
    if args.steps is not None:
        text = args.steps
    elif args.walk_file is not None:
        with open(args.walk_file) as fh:
            text = fh.read().strip()
    else:
        text = sys.stdin.read().strip()
    if text.startswith("{"):
        return walk_from_json(json.loads(text))
    if args.lattice == "tri":
        return TriWalk.from_text(text)
    return SquareWalk.from_text(text)


def cmd_render(args):
    try:
        walk = _load_walk(args)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
        raise CliError("cannot parse walk: %s" % exc) from exc
    if args.format == "ascii":
        if isinstance(walk, TriWalk):
            raise CliError("ASCII rendering covers the square lattice only")
        _emit(args, render.render_ascii(walk))
    else:
        _emit(args, render.render_svg(walk, box=args.box))


def cmd_verify(args):
    classes = list(verify.ROUTES)
    if args.classes:
        classes = list(dict.fromkeys(_walk_class(name) for name in args.classes.split(",")))
    cap = max(verify.ROUTES[wc].oracle_n_max for wc in classes)
    if not 0 <= args.max_n <= cap:
        raise CliError("--max-n must be in 0..%d (exhaustive search)" % cap)
    if not 0 <= args.box_k <= verify.TRI_BOX_K_MAX:
        raise CliError("--box-k must be in 0..%d (exhaustive box-spanning search)" % verify.TRI_BOX_K_MAX)
    _check_order("--order", args.order, classes)
    report = verify.run_verify(
        max_n_oracle=args.max_n,
        series_order=args.order,
        classes=classes,
        tri_box_k=args.box_k,
    )
    _emit_json(args, report)
    if not report["agree"]:
        raise CliError("cross-check mismatch", code=EXIT_MISMATCH)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prudent",
        description="Exact enumeration, series and uniform sampling of prudent walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classes = sorted(CLASS_NAMES)

    p = sub.add_parser("count", help="brute-force exhaustive counts")
    p.add_argument("--class", dest="walk_class", choices=classes, required=True)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("series", help="functional-equation iteration")
    p.add_argument("--class", dest="walk_class", choices=classes, required=True)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--refined", choices=("sum", "diagonal"))
    p.add_argument("--full", action="store_true", help="include the full catalytic series as JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("closedform", help="closed-form expansion")
    p.add_argument("--class", dest="walk_class", choices=classes, required=True)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--full", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_closedform)

    p = sub.add_parser("asym", help="asymptotic constants report")
    p.add_argument("--class", dest="walk_class", choices=classes, required=True)
    p.add_argument(
        "--growth-order",
        type=int,
        default=0,
        help="also estimate mu from the closed-form series to this order (0: no estimate; else %d..%d)"
        % (asymptotics.GROWTH_MIN_COEFFS - 1, max(row.order_max for row in verify.ROUTES.values())),
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("sample", help="uniform (or kinetic) random walks")
    p.add_argument("--class", dest="walk_class", choices=classes, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("steps", "json", "svg"), default="steps")
    p.add_argument("--kinetic", action="store_true")
    p.add_argument("--box", action="store_true", help="draw the box outline (svg)")
    p.add_argument(
        "--max-entries",
        type=int,
        default=DEFAULT_MAX_ENTRIES,
        help="cap on extension-table entries, checked by an O(1) estimate "
        "before the table is built; above it, exit 3 (default %(default)d)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("render", help="render a walk to SVG or ASCII")
    p.add_argument("--steps", help="walk text, e.g. NESW or 012345")
    p.add_argument("--walk-file", help="file holding walk text or JSON")
    p.add_argument("--lattice", choices=("square", "tri"), default="square")
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--box", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="cross-check all counting routes")
    p.add_argument("--max-n", type=int, default=12, help="exhaustive-search length cap")
    p.add_argument("--order", type=int, default=60, help="series truncation order")
    p.add_argument("--classes", help="comma-separated subset of classes")
    p.add_argument("--box-k", type=int, default=4, help="box-spanning size cap, 0..%d" % verify.TRI_BOX_K_MAX)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # --out (a file, or the prefix of sample's svg files) is opened only
        # after the work, so a missing directory, or a file name that is a
        # directory, is refused before it
        folder = os.path.dirname(args.out or "") or "."
        if not os.path.isdir(folder):
            raise CliError("--out: no such directory: %s" % folder)
        prefix = args.command == "sample" and args.format == "svg" and args.count > 1
        if args.out and not prefix and os.path.isdir(args.out):
            raise CliError("--out: is a directory: %s" % args.out)
        args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except ResourceBudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except (SeriesError, asymptotics.NotAvailableError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_ARGS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
