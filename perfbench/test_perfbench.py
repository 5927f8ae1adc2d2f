"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json

import pytest

import run
from tracing import Tracer, self_times, summarize

spgcd = run.load_spgcd()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small enough that a whole run takes a fraction of a second.
TINY = run.Workload(p=10000019, omega=6, n=2, terms=3, deg=4, ref_call_s=1.0)


def test_wrappers_restore_original_bindings():
    engine, interp = spgcd.engine, spgcd.interp
    evaluator = spgcd.sparse.PowerImageEvaluator
    before = {
        "monic_gcd": engine.monic_gcd,
        "find_roots": interp.find_roots,
        "__init__": evaluator.__dict__["__init__"],
        "next_image": evaluator.__dict__["next_image"],
        "gen_triple": spgcd.instances.gen_triple,
    }
    tracer = Tracer()
    with tracer:
        run.install_wrappers(tracer, spgcd, run.LAYER_WRAPS + run.SETUP_WRAPS)
        assert engine.monic_gcd is not before["monic_gcd"]
        assert evaluator.__dict__["next_image"] is not before["next_image"]
        pool = run.make_pool(spgcd, TINY, seed=3, count=1)
        assert run.timed_gcd(spgcd, TINY, spgcd.PrimeField(TINY.p), pool[0], 0).outcome == "ok"
    assert engine.monic_gcd is before["monic_gcd"]
    assert interp.find_roots is before["find_roots"]
    assert evaluator.__dict__["__init__"] is before["__init__"]
    assert evaluator.__dict__["next_image"] is before["next_image"]
    assert spgcd.instances.gen_triple is before["gen_triple"]
    names = {s[0] for s in tracer.spans}
    assert {"engine.gcd", "unipoly.monic_gcd", "instances.gen_triple"} <= names
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["b", 6.0, 7.5, 0],
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 1.0, 1.5])
    rows = summarize(spans)
    assert rows["b"] == {"calls": 2, "s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}
    assert rows["root"]["s"] == pytest.approx(10.0)
    assert rows["root"]["self_s"] == pytest.approx(4.5)


@pytest.mark.parametrize(
    "n, pct, value",
    [
        (1, 50.0, 1),
        (5, 50.0, 3),
        (19, 50.0, 10),
        (20, 50.0, 10.5),
        (25, 60.0, 15),
        (30, 60.0, 18),
        (34, 70.0, 24),
        (77, 80.0, 62),
        (100, 90.0, 90),
        (140, 90.0, 126),
        (1000, 99.0, 990),
    ],
)
def test_tail_percentile_small_counts(n, pct, value):
    got_pct, got = run.tail_percentile(range(n, 0, -1))
    assert got_pct == pct
    assert got == value


def test_wrong_answer_raises_failed_share_and_exit_code(monkeypatch, capsys):
    pool = run.make_pool(spgcd, TINY, seed=5, count=2)
    one = spgcd.SparsePoly.constant(spgcd.PrimeField(TINY.p), TINY.n, 1)
    assert pool[1].G != one
    pool[1] = run.Instance(pool[1].A, pool[1].B, one, pool[1].engine_seed)

    calls = run.measure(spgcd, TINY, pool, seconds=0)
    assert [c.outcome for c in calls] == ["ok", "wrong"]
    e2e = run.end_to_end(calls)
    assert e2e["failed_share"] == pytest.approx(0.5)
    assert e2e["gcds_per_s"] > 0
    assert run.result_line(calls, {})["correct"] is False

    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "make_pool", lambda *args: pool)
    monkeypatch.setattr(run, "FINGERPRINTS", run.HERE / "no-such-file.json")
    assert run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_traced_run_reports_every_layer_metric(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    monkeypatch.setattr(run, "FINGERPRINTS", tmp_path / "fingerprints.json")
    assert run.main(["--workload", "tiny", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    for span in run.SPAN_METRICS:
        assert {f"{span}.calls", f"{span}.s"} - run.TEXT_ONLY <= names
    assert not run.TEXT_ONLY & names
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {f"engine.stage_{s}_s" for s in run.STAGES} <= names
    assert "trace.overhead_share" in names
    assert result["metrics"]["engine.gcd.calls"]["value"] == run.trace_pool_size(TINY, 0)
    assert (tmp_path / "spans-tiny-seed2.jsonl").is_file()
    fp = json.loads(next(l for l in lines if l.startswith("fingerprint {")).split(" ", 1)[1])
    assert fp["attempts"] == [1] * run.trace_pool_size(TINY, 0)


def test_fingerprint_drift_is_reported(monkeypatch, tmp_path, capsys):
    stored = {"attempts": [1, 1], "instances_sha256": "abc"}
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"tiny": {"4:2": stored}}))
    monkeypatch.setattr(run, "FINGERPRINTS", path)
    run.compare_fingerprint(dict(stored), "tiny", 4, 2)
    assert "matches" in capsys.readouterr().out
    run.compare_fingerprint({"attempts": [1, 2], "instances_sha256": "abc"}, "tiny", 4, 2)
    assert "NONDETERMINISM" in capsys.readouterr().out
    run.compare_fingerprint(dict(stored), "tiny", 4, 3)
    assert "none stored" in capsys.readouterr().out
