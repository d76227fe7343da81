"""Fast tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pipeline  # noqa: E402
import spans  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert spans.tail_percentile(0) is None
    assert spans.tail_percentile(19) is None
    assert spans.tail_percentile(20) == 500
    assert spans.tail_percentile(99) == 500
    assert spans.tail_percentile(100) == 900  # exact: 10 samples beyond p90
    assert spans.tail_percentile(999) == 900
    assert spans.tail_percentile(1000) == 990
    assert spans.tail_percentile(10000) == 999


def test_latency_summary_reports_p90_only_with_enough_samples():
    samples = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    lat = spans.latency_summary(samples)
    assert lat["n"] == 100
    assert lat["p50_ms"] == 50.5
    assert lat["p90_ms"] == 90.0
    assert sum(ms > lat["p90_ms"] for ms in range(1, 101)) == 10
    few = spans.latency_summary(samples[:30])
    assert few["n"] == 30 and few["p90_ms"] == 30.0  # the maximum, an upper bound
    assert spans.latency_summary([]) == {"p50_ms": 0.0, "p90_ms": 0.0, "n": 0}


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_under_nested_and_sibling_spans():
    # root [0, 10] holds a [1, 4] (which holds leaf [2, 3]) and b [5, 9]
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.start_run("r")
    root = tracer.open("root")
    a = tracer.open("a")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    selfs = spans.self_times(tracer.spans)
    assert selfs[root[spans.ID]] == 3
    assert selfs[a[spans.ID]] == 2
    assert selfs[leaf[spans.ID]] == 1
    assert selfs[b[spans.ID]] == 4
    assert sum(selfs.values()) == 10  # self times add up to the root span
    assert leaf[spans.PARENT] == a[spans.ID] and b[spans.PARENT] == root[spans.ID]


def test_aggregate_sums_repeated_spans_and_counts():
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 3, 4, 7, 8]))
    root = tracer.open("root")
    for _ in range(2):
        rec = tracer.open("step")
        tracer.close(rec, {"tokens": 5})
    tracer.close(root)
    agg = spans.aggregate(tracer.spans)
    assert agg["step"]["calls"] == 2
    assert agg["step"]["s"] == 2 + 3
    assert agg["step"]["tokens"] == 10
    assert agg["root"]["self_s"] == 8 - 5


def test_instrumentation_wraps_and_restores():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    module = types.SimpleNamespace(g=lambda x: x + 1)
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer) as inst:
        inst.wrap(Child, "f", lambda args: "child.f")
        inst.wrap(module, "g", lambda args: "g", lambda t, args, kw: {"n": args[0]})
        assert Child().f() == "base" and module.g(4) == 5
    assert "f" not in vars(Child) and Base().f() == "base"
    assert module.g(1) == 2
    assert [s[spans.NAME] for s in tracer.spans] == ["child.f", "g"]
    assert tracer.spans[1][spans.COUNTS] == {"n": 4}


def _stub_cli(rc, files=()):
    def main(argv):
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        for name in files:
            with open(os.path.join(out, name), "w") as f:
                f.write("x")
        return rc
    return main


def test_failure_counting(tmp_path):
    def run_with(cli_main):
        return pipeline.Run(str(tmp_path), 0, cli_main=cli_main)

    ok = run_with(_stub_cli(0, ["report.json", "manifest.json"]))
    ok.cli(["eval", "--out", str(tmp_path / "a")], ["report.json"])
    assert (ok.attempted, ok.failed) == (1, 0)

    data_error = run_with(_stub_cli(2, ["report.json", "manifest.json"]))
    data_error.cli(["eval", "--out", str(tmp_path / "b")], ["report.json"])
    assert (data_error.attempted, data_error.failed) == (1, 1)
    assert data_error.calls[0]["rc"] == 2

    missing = run_with(_stub_cli(0, ["manifest.json"]))
    missing.cli(["eval", "--out", str(tmp_path / "c")], ["report.json"])
    assert missing.failed == 1 and missing.calls[0]["missing"] == ["report.json"]

    def crash(argv):
        raise FileNotFoundError("gone")

    crashed = run_with(crash)
    crashed.cli(["eval", "--out", str(tmp_path / "d")])
    assert crashed.failed == 1 and "FileNotFoundError" in crashed.calls[0]["error"]

    checks = run_with(_stub_cli(0))
    checks.check("passes", lambda: (True, ""))
    checks.check("fails", lambda: (False, "mismatch"))
    checks.check("raises", lambda: 1 / 0)
    assert (checks.attempted, checks.failed) == (3, 2)
