import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import prudentwalks
import prudentwalks.verify as verify_mod
from prudentwalks.cli import main
from prudentwalks.verify import first_divergence, run_verify
from prudentwalks.walks import SquareWalk, WalkClass


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--class", "2-sided", "--n-max", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == [1, 4, 10, 26, 66, 168]


def test_series_refined(capsys):
    code, out, _ = run(
        capsys, "series", "--class", "2-sided", "--order", "8", "--refined", "sum"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"][:4] == [1, 4, 10, 26]


def test_series_full_export(capsys):
    code, out, _ = run(
        capsys, "series", "--class", "2-sided", "--order", "5", "--full"
    )
    obj = json.loads(out)
    assert "series" in obj and obj["series"]["order"] == 5


_SERIES_RSS_CHILD = """
import json, sys
from prudentwalks.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
sys.stderr.write(json.dumps([code, peak_kb]))
"""


def test_series_keeps_only_p_in_memory():
    # the functional-equation route of `series` holds P(t;u), not every
    # slice of R: a fresh interpreter peaks under 60 MB at triangular order
    # 200, where keeping every slice of R took about 160 MB; the diagonal
    # refinement sums each P slice as it comes and drops it, where keeping
    # every slice of T and P took about 336 MB.  The child reads its own
    # peak (VmHWM); its ru_maxrss would also carry the peak of the forked
    # test process from before the exec
    if not sys.platform.startswith("linux"):
        pytest.skip("reads the peak resident set size from /proc/self/status")
    src = str(Path(prudentwalks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in ("series --class triangular --order 200", "series --class 2-sided --order 200 --refined diagonal"):
        proc = subprocess.run([sys.executable, "-c", _SERIES_RSS_CHILD, *argv.split()], env=env,
                              capture_output=True, text=True, timeout=120)
        code, peak_kb = json.loads(proc.stderr)
        assert code == 0
        assert len(json.loads(proc.stdout)["counts"]) == 201
        assert peak_kb < 60 * 1024, argv


def test_closedform_counts(capsys):
    code, out, _ = run(capsys, "closedform", "--class", "triangular", "--order", "6")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 6, 30, 132, 552, 2244, 8928]


def test_closedform_prudent4_refused(capsys):
    code, _, err = run(capsys, "closedform", "--class", "4-sided", "--order", "6")
    assert code == 2
    assert "open problem" in err


def test_asym_report(capsys):
    code, out, _ = run(capsys, "asym", "--class", "2-sided")
    assert code == 0
    obj = json.loads(out)
    names = {c["name"] for c in obj["constants"]}
    assert {"rho", "mu", "kappa"} <= names
    assert all(c["provenance"] in ("paper-closed-form", "empirical") for c in obj["constants"])


def test_asym_prudent4_exits_2_without_traceback(capsys):
    # no closed-form constants exist for 4-sided walks: an error line, exit 2
    code, out, err = run(capsys, "asym", "--class", "4-sided")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "open problem" in err
    assert "Traceback" not in err


def test_sample_deterministic(capsys):
    args = ("sample", "--class", "triangular", "--length", "15", "--count", "2", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 2


def test_sample_json_and_svg(capsys, tmp_path):
    code, out, _ = run(
        capsys, "sample", "--class", "2-sided", "--length", "8", "--seed", "3",
        "--format", "json",
    )
    obj = json.loads(out)
    assert obj["walks"][0]["lattice"] == "square"
    target = tmp_path / "walk.svg"
    code, _, _ = run(
        capsys, "sample", "--class", "2-sided", "--length", "8", "--seed", "3",
        "--format", "svg", "--out", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_sample_budget_exceeded(capsys):
    code, _, err = run(
        capsys, "sample", "--class", "4-sided", "--length", "150", "--seed", "1",
        "--max-entries", "100000",
    )
    assert code == 3
    assert "entries" in err


def test_sample_negative_budget_exits_2_without_traceback(capsys):
    # a negative budget is a bad argument, not a budget a table exceeds
    for extra in ((), ("--kinetic",)):
        code, out, err = run(
            capsys, "sample", "--class", "3-sided", "--length", "2", "--max-entries", "-1", *extra
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--max-entries" in err
        assert "Traceback" not in err
    code, _, err = run(capsys, "sample", "--class", "3-sided", "--length", "2", "--max-entries", "0")
    assert code == 3 and "budget is 0" in err


def test_count_triangular_above_oracle_cap_exits_2_without_traceback(capsys):
    # each triangular length beyond the cap multiplies the search time by about 4
    cap = verify_mod.ROUTES[WalkClass.TRIANGULAR].count_n_max
    code, out, err = run(capsys, "count", "--class", "triangular", "--n-max", str(cap + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--n-max" in err and "0..%d" % cap in err
    assert "Traceback" not in err


def test_count_oracle_cap_applies_to_triangular_only(capsys, monkeypatch):
    # the cap itself and the other classes up to 20 reach the search (stubbed:
    # these sizes take seconds to days)
    import prudentwalks.cli as cli

    seen = []
    monkeypatch.setattr(cli, "enumerate_counts", lambda wc, n: seen.append((wc.value, n)) or [1])
    cap = verify_mod.ROUTES[WalkClass.TRIANGULAR].count_n_max
    for name, n in (("triangular", cap), ("4-sided", 20), ("1-sided", cap + 1)):
        code, _, _ = run(capsys, "count", "--class", name, "--n-max", str(n))
        assert code == 0
    assert seen == [("triangular", cap), ("4-sided", 20), ("1-sided", cap + 1)]


def test_render_roundtrip(capsys):
    code, out, _ = run(capsys, "render", "--steps", "NES", "--format", "ascii")
    assert code == 0
    assert "O X" in out
    # a JSON string of steps is read as the text form
    as_json = '{"lattice": "square", "steps": "nes"}'
    assert run(capsys, "render", "--steps", as_json, "--format", "ascii") == (0, out, "")
    code, out, _ = run(
        capsys, "render", "--steps", "210", "--lattice", "tri", "--format", "svg"
    )
    assert code == 0
    assert out.startswith("<svg")


def test_render_rejects_bad_walk(capsys):
    code, _, err = run(capsys, "render", "--steps", "NEQ", "--format", "ascii")
    assert code == 2


def test_render_tri_json_list_accepts_step_names(capsys):
    # the step names are refused in the text form only
    by_name = run(capsys, "render", "--steps", '{"lattice": "tri", "steps": ["E", "w", "NE"]}')
    by_code = run(capsys, "render", "--steps", "251", "--lattice", "tri")
    assert by_name[0] == 0
    assert by_name == by_code


TRI_STEPS = "triangular steps are the digits 0-5 in text, and in JSON also the names NW, NE, E, SE, SW, W"
LATTICES = 'the lattices are "square" and "tri"'


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--steps", "XYZ"), "bad step 'X': square steps are N, E, S, W (codes 0-3)"),
        (("--lattice", "tri", "--steps", "N"), "bad step 'N': " + TRI_STEPS),
        (("--lattice", "tri", "--steps", "NW"), "bad step 'N': " + TRI_STEPS),
        (("--lattice", "tri", "--steps", "EW"), "bad step 'E': " + TRI_STEPS),
        (("--lattice", "tri", "--steps", "01w"), "bad step 'w': " + TRI_STEPS),
        (("--steps", '{"lattice": "tri", "steps": "EW"}'), "bad step 'E': " + TRI_STEPS),
        (("--steps", '{"lattice": "square", "steps": [[1]]}'), "bad step [1]: square steps"),
        (("--steps", '{"lattice": "tri", "steps": [6]}'), "bad step 6: triangular steps"),
        (("--steps", '{"lattice": "square", "steps": [true]}'), "bad step True: square steps"),
        (("--steps", '{"lattice": "square", "steps": [1.0]}'), "bad step 1.0: square steps"),
        (("--steps", '{"lattice": "tri", "steps": [false]}'), "bad step False: triangular steps"),
        (("--steps", '{"lattice": "tri", "steps": [2.0]}'), "bad step 2.0: triangular steps"),
        (("--steps", '{"lattice": "square", "steps": 5}'), '"steps" must be a list of steps, not 5'),
        (("--steps", '{"lattice": "hex", "steps": ["N", "E"]}'), "unknown lattice 'hex': " + LATTICES),
        (("--steps", '{"steps": ["N"]}'), 'missing "lattice": ' + LATTICES),
        (("--steps", '{"lattice": "square"}'), 'missing "steps"'),
        (("--steps", '{"a":' + "[" * 10000), "maximum recursion depth exceeded"),
    ],
    ids=["square-letter", "tri-letter", "tri-name", "tri-text-name", "tri-text-lowercase-name",
         "tri-json-text-name",
         "unhashable", "tri-code", "square-bool", "square-float", "tri-bool", "tri-float",
         "steps-not-a-list",
         "unknown-lattice", "no-lattice", "no-steps", "nested-too-deep"],
)
def test_render_names_the_bad_step(capsys, argv, message):
    code, out, err = run(capsys, "render", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse walk: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--class", "1-sided", "--n-max", "3", "--out", "{missing}/counts.json"),
        ("sample", "--class", "2-sided", "--length", "5", "--count", "2",
         "--format", "svg", "--out", "{missing}/walk"),
        ("render", "--walk-file", "{missing}/walk.txt"),
    ],
    ids=["count", "sample", "render"],
)
def test_file_errors_exit_2_without_traceback(capsys, tmp_path, argv):
    # an unwritable --out or a missing --walk-file is a bad argument, not a mismatch
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--class", "4-sided", "--length", "120", "--format", "svg",
         "--out", "{missing}/w.svg"),
        ("sample", "--class", "4-sided", "--length", "120", "--count", "2",
         "--format", "svg", "--out", "{missing}/w"),
        ("verify", "--out", "{missing}/r.json"),
    ],
    ids=["sample", "sample-prefix", "verify"],
)
def test_out_in_missing_directory_refused_before_the_work(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("verify", "--max-n", "10"),
        ("sample", "--class", "4-sided", "--length", "120", "--format", "svg"),
    ],
    ids=["verify", "verify-10", "sample"],
)
def test_out_that_is_a_directory_refused_before_the_work(capsys, tmp_path, argv):
    # the default verify takes seconds, so only a refusal up front ends in 1 s
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: --out: is a directory: %s\n" % tmp_path
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_prefix_may_name_a_directory(capsys, tmp_path):
    # sample's svg files are <prefix>-NNNN.svg, beside a directory so named
    (tmp_path / "w").mkdir()
    code, out, err = run(
        capsys, "sample", "--class", "2-sided", "--length", "5", "--count", "2",
        "--format", "svg", "--out", str(tmp_path / "w"),
    )
    assert (code, out, err) == (0, "", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w", "w-0000.svg", "w-0001.svg"]


def test_verify_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "6", "--order", "10", "--box-k", "2",
        "--classes", "1-sided,2-sided,triangular",
    )
    assert code == 0
    report = json.loads(out)
    assert report["agree"]
    for entry in report["classes"]:
        assert entry["first_divergence"] is None


def test_verify_detects_corruption(capsys, monkeypatch):
    # fault injection: corrupt the 1-sided iteration route that verify runs
    # and expect the report to pin the smallest affected order and a nonzero exit
    row = verify_mod.ROUTES[WalkClass.ONE_SIDED]
    vars, stream = row.iteration[None]

    def corrupted(order):
        for n, slc in enumerate(stream(order)):
            yield {key: c + (n == 4) for key, c in slc.items()}

    monkeypatch.setitem(verify_mod.ROUTES, WalkClass.ONE_SIDED, row._replace(iteration={None: (vars, corrupted)}))
    code, out, err = run(
        capsys, "verify", "--max-n", "6", "--order", "10",
        "--classes", "1-sided", "--box-k", "0",
    )
    assert code == 1
    report = json.loads(out)
    entry = report["classes"][0]
    assert not entry["agree"]
    assert entry["first_divergence"]["n"] == 4


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-n", "-1"),
        ("--max-n", "21"),
        ("--max-n", "20"),
        ("--box-k", "-1"),
        ("--box-k", "7"),
        ("--order", "-1"),
        ("--order", "401"),
        ("--order", "81"),
    ],
)
def test_verify_out_of_range_exits_2_without_traceback(capsys, flag, value):
    # order 81 is out of range for 4-sided walks only, and --max-n 20 for
    # classes whose oracle searches stop at 12
    classes = {"81": "1-sided,4-sided", "20": "4-sided,triangular"}.get(value, "1-sided")
    code, out, err = run(capsys, "verify", "--classes", classes, "--order", "4", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_order_cap_applies_to_4_sided_only(capsys, monkeypatch):
    # 1-sided walks take orders above 80 (stubbed: the run itself is not
    # the point)
    seen = []

    def stub(**kwargs):
        seen.append(kwargs["series_order"])
        return {"agree": True}

    monkeypatch.setattr(verify_mod, "run_verify", stub)
    code, _, _ = run(capsys, "verify", "--classes", "1-sided", "--order", "81")
    assert code == 0
    assert seen == [81]


def test_asym_growth_order_out_of_range_exits_2_without_traceback(capsys):
    code, out, err = run(capsys, "asym", "--class", "3-sided", "--growth-order", "401")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--growth-order" in err
    assert "Traceback" not in err


def test_asym_growth_order_below_20_coefficients_exits_2_without_traceback(capsys):
    # the growth estimate reads 20 coefficients, the series to order 19
    for order in ("1", "18"):
        code, out, err = run(capsys, "asym", "--class", "2-sided", "--growth-order", order)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--growth-order" in err
        assert "Traceback" not in err
    for order in ("0", "19"):
        code, out, _ = run(capsys, "asym", "--class", "2-sided", "--growth-order", order)
        assert code == 0
        assert ("growth_estimate" in json.loads(out)) == (order == "19")


def test_verify_box_k_range_ends(capsys, monkeypatch):
    # both ends of 0..6 reach the box-spanning check (stubbed: k = 6 alone
    # takes seconds)
    seen = []

    def stub(k_max):
        seen.append(k_max)
        return {"agree": True, "by_size": []}

    monkeypatch.setattr(verify_mod, "verify_tri_box", stub)
    for box_k in ("0", "6"):
        code, _, _ = run(
            capsys, "verify", "--classes", "triangular", "--max-n", "0", "--order", "2",
            "--box-k", box_k,
        )
        assert code == 0
    assert seen == [0, 6]


@pytest.mark.parametrize(
    "argv",
    [
        ("asym", "--class", "4-sided", "--growth-order", "19"),
        *(("series", "--class", name, "--order", "4", "--refined", kind)
          for name in ("1-sided", "3-sided", "4-sided", "triangular") for kind in ("sum", "diagonal")),
        *(("sample", "--class", name, "--length", "4", "--kinetic")
          for name in ("1-sided", "2-sided", "3-sided", "triangular")),
    ],
    ids=" ".join,
)
def test_class_dependent_refusals_exit_2_without_traceback(capsys, argv):
    # a route the class lacks: no closed form for 4-sided walks, refinements
    # for 2-sided walks only, the kinetic sampler for 4-sided walks only
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_reads_the_route_table(capsys, monkeypatch):
    # one row per walk class; only general prudent walks lack a closed form
    assert list(verify_mod.ROUTES) == list(WalkClass)
    assert [wc for wc, row in verify_mod.ROUTES.items() if row.closed_form is None] == [WalkClass.PRUDENT4]
    assert [wc for wc, row in verify_mod.ROUTES.items() if row.kinetic is not None] == [WalkClass.PRUDENT4]
    # count, series, closedform and verify take a lowered row's caps and
    # refuse one past them; verify's --max-n takes the chosen rows' largest
    # search cap, and each oracle stops at its own row's cap; sample
    # --kinetic runs the row's kinetic sampler
    row = verify_mod.ROUTES[WalkClass.ONE_SIDED]
    monkeypatch.setitem(
        verify_mod.ROUTES, WalkClass.ONE_SIDED, row._replace(
            count_n_max=3, oracle_n_max=2, order_max=5, kinetic=lambda n, rng: SquareWalk("N" * n))
    )
    assert run(capsys, "sample", "--class", "1-sided", "--length", "3", "--kinetic") == (0, "NNN\n", "")
    for argv, flag, cap in (
        (("count", "--class", "1-sided", "--n-max"), "--n-max", 3),
        (("series", "--class", "1-sided", "--order"), "--order", 5),
        (("closedform", "--class", "1-sided", "--order"), "--order", 5),
        (("verify", "--classes", "1-sided", "--box-k", "0", "--max-n", "2", "--order"), "--order", 5),
        (("verify", "--classes", "1-sided", "--box-k", "0", "--order", "5", "--max-n"), "--max-n", 2),
    ):
        code, out, err = run(capsys, *argv, str(cap + 1))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err and "0..%d" % cap in err
        code, out, _ = run(capsys, *argv, str(cap))
        assert code == 0
        report = json.loads(out)
        if argv[0] == "verify":
            (entry,) = report["classes"]
            assert report["agree"] and entry["max_n_oracle"] == 2 and len(entry["routes"]["oracle"]) == 3
            assert sorted(entry["routes"]) == ["closed_form", "ext_table", "iteration", "oracle"]
        else:
            assert len(report["counts"]) == cap + 1
    code, out, _ = run(capsys, "verify", "--classes", "1-sided,2-sided", "--box-k", "0", "--order", "5",
                       "--max-n", "3")
    assert code == 0
    assert [entry["max_n_oracle"] for entry in json.loads(out)["classes"]] == [2, 3]


def test_first_divergence_reports_smallest():
    routes = {"a": [1, 2, 3, 4], "b": [1, 2, 3, 5], "c": [1, 9, 3, 4]}
    d = first_divergence(routes)
    assert d["n"] == 1
    assert {d["route_a"], d["route_b"]} == {"a", "c"} or {d["route_a"], d["route_b"]} == {"b", "c"}


def test_first_divergence_takes_the_smallest_n_then_the_first_pair():
    # a and b differ at n = 3; a and c, and b and c, at n = 2
    routes = {"c": [1, 2, 9, 4], "b": [1, 2, 3, 5], "a": [1, 2, 3, 4]}
    assert first_divergence(routes) == {"n": 2, "route_a": "a", "route_b": "c", "value_a": "3", "value_b": "9"}
    assert first_divergence({"a": [1, 2], "b": [1, 2, 3], "c": []}) is None


@pytest.mark.parametrize(
    "classes, listed",
    [("2-sided,2-sided", ["2-sided"]), ("2-sided,1-sided,2-sided", ["2-sided", "1-sided"])],
)
def test_verify_lists_each_class_once(capsys, classes, listed):
    code, out, _ = run(capsys, "verify", "--classes", classes, "--max-n", "3", "--order", "4")
    assert code == 0
    assert [entry["class"] for entry in json.loads(out)["classes"]] == listed


def test_run_verify_report_shape():
    report = run_verify(max_n_oracle=5, series_order=8, tri_box_k=1)
    assert report["agree"]
    assert len(report["classes"]) == 5
    assert report["tri_box"]["agree"]


# SHA-256 of stdout for the fast README examples, `--full` exports of every
# class and both refinements, recorded at commit 8c118d8 (before the per-class
# dispatch moved into funceq.length_series / closedforms.length_series).  Any
# byte that changes in these outputs fails here.
GOLDEN_STDOUT = [
    ("count --class 2-sided --n-max 10", 0,
     "4b5fa7b2f370e802e62f745e207e1c41e417d2d45e072cc7e2a266b88b0c5db8"),
    ("series --class triangular --order 40", 0,
     "4493b8c1ac019b43cd0b01bf51caaad33c8fc850f40f31f3c153f952f082b380"),
    ("series --class 2-sided --order 30 --refined diagonal", 0,
     "35794b2837ff792a052f39763f2eca8ce5efad62ee489a8eb37897887598f811"),
    ("closedform --class 3-sided --order 60", 0,
     "75afb8b2f609a463161c17887f32cf97ebabd8658fb85521a6e08e8d3abc0dec"),
    ("asym --class triangular --growth-order 200", 0,
     "99d3d9b844693f38251efae75e063309deb50c076e6a9fcf1b302f8c1b4f3ec1"),
    ("render --steps NEENNWS --format ascii", 0,
     "6ca5c160db2f26bcb729e0312a316a18cb755ca21f8501f7085870911302d274"),
    ("series --class 2-sided --order 12 --refined sum --full", 0,
     "515999aeafc7f3e7d880bc4c82efab7cd9499e60d7060ced26e890f428fb7d5f"),
    ("series --class 1-sided --order 12 --full", 0,
     "7dae38f3be59cff5a72a036d8e8c0d1a0e982805f326ea79d57971b30033f8f5"),
    ("series --class 2-sided --order 12 --full", 0,
     "58e8d9edfccbbe3753f013e8a01b6e8dd45fb98a7ff0ada53ce6c8b1df6da803"),
    ("series --class 3-sided --order 12 --full", 0,
     "1ccdc11365c71a76dbd5688703e9f7a9e6baac2d19bb8cc2a2a67dd1290381fe"),
    ("series --class 4-sided --order 12 --full", 0,
     "9c149173ff29123f9d07c63f8de2aea35c589ddf1d9697860e62767f5c101680"),
    ("series --class triangular --order 12 --full", 0,
     "822f7e499b5d38fc599c549faa994b82847b285bc9a61d973e1a2f569a574b3b"),
    ("closedform --class 1-sided --order 12 --full", 0,
     "42eece5b823aef391c96d5481c6e0ef0e20b3281bed265773af9b96aa23e0158"),
    ("closedform --class 2-sided --order 12 --full", 0,
     "2542a38da52d4b524b4ddf74f9f2275e6f9e78cfd89f7731eb82d9c914519a4a"),
    ("closedform --class 3-sided --order 12 --full", 0,
     "943285b490bd1c3524f9ef0343b73bd7d576b78c4a916419f87f73837711e3b1"),
    ("closedform --class 4-sided --order 12 --full", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("closedform --class triangular --order 12 --full", 0,
     "c922445d4bd3fdf7d13c4f9b7f05a0169a432e35076ddb3e1818d674f7c9aecd"),
    # `sample` outputs of every class, format and the kinetic sampler,
    # recorded at commit 7618ddf (before the index-column extension tables
    # and the cached child records of the sampler)
    ("sample --class 2-sided --length 500 --format svg", 0,
     "d420de468597832ceb2592ab1505d3abe268ac7b3d0240060d54029abf1f88e2"),
    ("sample --class 4-sided --length 40 --count 4 --seed 7", 0,
     "cc8f142ffb9c4aa972d3b3fa8d96a5303d4e1ab6cce062770e677d0be1dcf59f"),
    ("sample --class triangular --length 80 --count 4 --seed 1 --format json", 0,
     "806a7a2b49ebe0f6080dd253f36a4d67b0e9189605401d2308e9e9c74f6fba5f"),
    ("sample --class 3-sided --length 60 --count 5 --seed 3", 0,
     "9310c51f05da260cf578b30287ad2893041bb7e52267845c3e00aa15ef811516"),
    ("sample --class 1-sided --length 40 --count 5 --seed 4", 0,
     "1aa11126a6e3389585ca37bcfd82afc34f9efa10be91ce811c7b0d44ac15578b"),
    ("sample --class 4-sided --length 2000 --kinetic --format svg", 0,
     "60c69336a278abeb57654bcf0d87ada848a86e4f5421249ffb8b1f734ab566a1"),
    ("sample --class 2-sided --length 0 --seed 2", 0,
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("sample --class triangular --length 1 --count 6 --seed 5", 0,
     "d2dd4f4d35a1a7e122d86f84c35c4d86e0b45ce4f9f01b1c75e0e9cfafc7378b"),
    # recorded at commit 3a641c7, before the packed-key CPoly product, the
    # tail-only Aitken extrapolation and the running-product 2-sided form
    ("asym --class 2-sided --growth-order 120", 0,
     "ae4edbb59fbc7a1cc2fe5af6f782f5aaae375ac4b20fb754beae2b1144e3ca94"),
    ("asym --class 3-sided --growth-order 60", 0,
     "ccb12d466fa8557047ab2a392f0f4c84ffde5c1105fd2afa2f34092b189f86b5"),
    # recorded at commit a94964a, before the closed-form constants moved
    # into one table per class
    ("asym --class 1-sided --growth-order 20", 0,
     "74bb47c166c80721aa3d0ae6d0584111f05c62cdd208ca9720cd049a6da20b57"),
    ("closedform --class 2-sided --order 120 --full", 0,
     "d55250ac880231c8947ea3dfede089ae2be32dbfd42ba17e9e7c4bd33e02a08d"),
    # recorded at commit e1a2668, before the kinetic sampler moved onto the
    # row/column extremes of walks.SquareState
    ("sample --class 4-sided --kinetic --length 20000 --count 3 --seed 5 --format steps", 0,
     "292435fdfd33d2e94beb378f80b965b8c52aba12eefc61d1b193d3302e4cf082"),
    ("sample --class 4-sided --kinetic --length 300 --count 6 --seed 12 --format json", 0,
     "be102d8e2f25056cd4e07000ac49f0646149b6aae66232dd7b315929f7d4ae60"),
    ("sample --class 4-sided --kinetic --length 0 --seed 1", 0,
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    # the README `sample` example at its documented size, recorded at commit
    # 07fb736, before the extension tables became index-addressed value lists
    ("sample --class 4-sided --length 120 --count 4 --seed 7", 0,
     "e20f1c97355a1ed54d09d2a2e93525603af348adc186dbed528fd146c6fbfacd"),
    # the box outlines, recorded at commit 8a17643, before the triangular
    # corners were read off the walk's bounds instead of a box object
    ("sample --class triangular --length 300 --format svg --box --seed 3", 0,
     "a59ae8e5114fcc065f4c6138f66e10e87bb7d53f907036638e2f1df8d2fb9d64"),
    ("render --lattice tri --steps 2101343 --box", 0,
     "6ef7632a68a285e9cd68d1503ad233acd6a8db6877b77926eeffd981b62f31ce"),
    ("render --steps NEENNWS --box", 0,
     "51db0d8dca7af320063de970276002477b06f692fb961828eb7bf4d1037ecda4"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_STDOUT, ids=[g[0] for g in GOLDEN_STDOUT])
def test_stdout_byte_identical(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
