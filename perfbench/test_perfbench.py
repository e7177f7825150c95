"""Self-tests of the benchmark: output checks, span arithmetic, the tracer
and the agreement of BENCHMARK.json with metrics.py.  Fast; they run no
workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import recount  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, outermost, self_times  # noqa: E402


def _reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _verify_stdout(counts):
    rows = [{"id": i, "verdict": "pass", "counts": c}
            for i, c in counts.items()]
    return json.dumps({"entries": rows})


def test_verify_check_counts_one_altered_count_as_one_failure():
    expected = _reference()["verify_depth2_counts"]
    assert workloads.check_verify((0, _verify_stdout(expected)),
                                  expected) == (65, [])
    corrupted = {i: list(c) for i, c in expected.items()}
    row = sorted(corrupted)[7]
    corrupted[row][1] += 1
    checks, failures = workloads.check_verify((0, _verify_stdout(corrupted)),
                                              expected)
    assert checks == 65 and len(failures) == 1 and row in failures[0]


def test_verify_check_fails_every_row_without_a_report():
    expected = _reference()["verify_depth2_counts"]
    assert workloads.check_verify((2, ""), expected)[1] != []


def test_census_check_rejects_an_extra_survivor():
    expected = _reference()["census"]["klein4_hyper_odd@23,n=1"]
    ok = SimpleNamespace(survivors=[], parameters={})
    bad = SimpleNamespace(survivors=[{"f": [1, 0, 0, 0, 5]}], parameters={})
    assert workloads.check_census(ok, expected) == (1, [])
    assert len(workloads.check_census(bad, expected)[1]) == 1


def test_montecarlo_check_rejects_an_altered_hit_count():
    hits = recount.pointless_hits(5, None, workloads.MC_SAMPLES, 5)
    assert hits == _reference()["montecarlo_default_hits"]["5"]
    report = SimpleNamespace(q=5, samples=workloads.MC_SAMPLES,
                             pointless=hits)
    assert workloads.check_montecarlo(report, 5, 5, hits) == (1, [])
    report.pointless += 1
    assert len(workloads.check_montecarlo(report, 5, 5, hits)[1]) == 1
    assert len(workloads.check_montecarlo(report, 5, 5, None)[1]) == 1


def test_self_time_subtracts_the_part_children_cover():
    # (sid, parent, name id, start, end, run)
    spans = [
        (0, -1, 0, 0.0, 10.0, 0),
        (1, 0, 1, 1.0, 3.0, 0),
        (2, 1, 2, 1.5, 2.5, 0),
        (3, 0, 1, 4.0, 6.0, 0),
        (4, -1, 0, 20.0, 30.0, 1),
        (5, 4, 1, 21.0, 25.0, 1),     # overlapping children are
        (6, 4, 1, 24.0, 27.0, 1),     # covered once: 21..27
        (7, 4, 1, 29.0, 31.0, 1),     # clipped to the parent's end
    ]
    own = self_times(spans)
    expected = {0: 6.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 4.0, 6: 3.0,
                7: 2.0}
    assert {k: round(v, 9) for k, v in own.items()} == expected


def test_outermost_counts_nested_calls_once():
    names = ["count", "gcd"]
    spans = [(0, -1, 0, 0.0, 4.0, 0), (1, 0, 1, 1.0, 2.0, 0),
             (2, 1, 0, 1.2, 1.5, 0), (3, -1, 0, 5.0, 6.0, 0)]
    assert [s[0] for s in outermost(spans, names, lambda n: n == "count")] \
        == [0, 3]


def test_speed_correction_scales_each_stretch_and_drops_probes():
    r = speed.REFERENCE_S
    sampler = speed.SpeedSampler()
    sampler.samples = [(0.0, 2 * r), (1.0, 2 * r), (2.0, r)]
    # 0.5..1.0 at half speed; the probe at 1.0 left out; 1.0+2r..2.0 at
    # the mean of 2r and r; after the last probe its speed holds to 2.5
    expected = 0.5 / 2 + (1.0 - 2 * r) * 2 / 3 + (0.5 - r)
    assert abs(sampler.correct(0.5, 2.5) - expected) < 1e-12
    assert abs(sampler.correct(-1.0, -0.5) - 0.25) < 1e-12


def test_tracer_wraps_imported_names_and_restores_them():
    from pointless import search, zeta
    original = zeta.zeta_report
    tracer = Tracer()
    tracer.install()
    try:
        assert search.zeta_report is zeta.zeta_report
        assert search.zeta_report is not original
        search.zeta_report(25, 3, [0, 540, 15360])
    finally:
        tracer.uninstall()
    assert search.zeta_report is original and zeta.zeta_report is original
    data = tracer.data()
    names = [data["names"][s[2]] for s in data["spans"]]
    assert names.count("zeta.zeta_report") == 1
    report = metrics.layer_metrics(data, {}, 1.0)
    assert report["zeta.report_calls"] == 1 and report["zeta.report_s"] > 0


def test_benchmark_json_matches_the_metrics_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == metrics.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(workloads.WORKLOADS)
