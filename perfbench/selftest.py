"""Self-test of the benchmark's bookkeeping: a corrupted count, a corrupted
walk and a drifting counter are each counted as a failure, and
BENCHMARK.json names exactly the metrics run.py prints.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if run.import_library() is None:
    sys.exit("error: no prudentwalks package under %s" % run.SRC)

import spans  # noqa: E402
import workloads as wlm  # noqa: E402
from prudentwalks.walks import SquareWalk  # noqa: E402


def one_pass(jobs, state=None):
    wl = wlm.Workload("selftest", {}, wlm._no_setup, wlm._no_setup_check, jobs)
    bench = run.Run(wlm, wl, 7, None, spans.NullTracer())
    bench.one_pass(state, traced=False)
    return bench


def corrupted(job, corrupt):
    return job._replace(run=lambda tr, ctx: corrupt(job.run(tr, ctx)))


def job_named(jobs, name):
    return next(j for j in jobs if j.name == name)


class Failures(unittest.TestCase):
    def test_corrupted_count_is_a_failure(self):
        oracle = job_named(wlm.ENUMERATE_JOBS, "walks.oracle_4sided")

        def bump(counts):
            return counts[:-1] + [counts[-1] + 1]

        bench = one_pass([oracle, corrupted(oracle, bump)._replace(name="corrupt")])
        self.assertEqual(bench.attempted, 2)
        self.assertEqual([f["where"] for f in bench.failures], ["pass 0 corrupt"])

    def test_corrupted_walk_is_a_failure(self):
        tables = wlm._sample_setup(spans.NullTracer(), 7)
        draw = job_named(wlm.SAMPLE_JOBS, "sampler.draw")
        member = job_named(wlm.SAMPLE_JOBS, "walks.membership")

        def reverse_last_step(drawn):
            w = drawn[wlm.W2][0]
            steps = w.steps[:-2] + (0, 2)  # N then S: revisits a vertex
            drawn[wlm.W2][0] = SquareWalk(steps)
            return drawn

        clean = one_pass([draw, member], tables)
        self.assertEqual(clean.failures, [])
        bench = one_pass([corrupted(draw, reverse_last_step), member], tables)
        self.assertEqual(bench.attempted, 2)
        self.assertEqual([f["where"] for f in bench.failures], ["pass 0 walks.membership"])

    def test_changed_counter_is_a_failure(self):
        calls = []

        def check(res, ctx):
            calls.append(1)
            return {"walks.oracle_walks": len(calls)}

        job = wlm.Job("drift", {}, lambda tr, ctx: None, check)
        wl = wlm.Workload("selftest", {}, wlm._no_setup, wlm._no_setup_check, [job])
        bench = run.Run(wlm, wl, 7, None, spans.NullTracer())
        bench.one_pass(None, traced=False)
        bench.one_pass(None, traced=False)
        self.assertEqual(len(bench.failures), 1)
        self.assertIn("exact counters changed", bench.failures[0]["error"])


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(wlm.WORKLOADS))

    def test_traced_spans_give_self_times(self):
        tr = spans.Tracer()
        with tr.span("pass") as root:
            with tr.span("job:x"):
                with tr.span("walks.oracle_2sided"):
                    pass
        times = tr.self_times(root)
        self.assertEqual(set(times), {"job:x", "walks.oracle_2sided"})
        self.assertTrue(all(v >= 0 for v in times.values()))


if __name__ == "__main__":
    unittest.main()
