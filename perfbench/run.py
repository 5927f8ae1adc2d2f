"""spgcd benchmark: seeded planted GCD instances, one gcd() call at a time.

    python3 perfbench/run.py --workload standard --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; spgcd is imported from its ``src/``.  The
loop is closed with a single client: the next ``gcd()`` call starts when the
previous one returns, in one process with no threads.  Every answer is
compared with the planted GCD ``G``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times a prefix of
the same instances once untraced and once traced, with spans around the
calls into each layer (see ``tracing.py``), and prints the per-layer metrics,
the tracing overhead and the exact-count fingerprint.  Spans are written to
``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
answer was wrong and 2 when spgcd's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
SPAN_DIR = ROOT / ".perfbench_out"

# Set-up (instance generation) is repeated this often and its median reported.
SETUP_REPEATS = 3
# The tail is the highest of these percentiles with at least TAIL_BEYOND
# instances beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 70, 60)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """One prime and one instance shape, as ``gen_triple`` takes it.

    ``ref_call_s`` is the mean seconds of one ``gcd()`` call at the seed
    version on a 2-core x86-64 box.  With ``rounds`` it fixes how many
    instances a run of a given length generates, so that the instance set
    does not depend on the speed of the code under test.  Each instance is
    timed about ``rounds`` times and counts by the median of its calls: where
    calls are short, a burst of machine noise spans many consecutive calls,
    and repeats in later passes filter it out.
    """

    p: int
    omega: int | None
    n: int
    terms: int
    deg: int
    ref_call_s: float
    rounds: int = 1

    def pool_size(self, seconds: int) -> int:
        return max(2 * TAIL_BEYOND, round(seconds / (self.rounds * self.ref_call_s)))


WORKLOADS = {
    # The paper's standard shape: short images, so root finding and the
    # Stage IV Euclid share the time; only the numpy base-field lanes run.
    "standard": Workload(p=10000019, omega=6, n=6, terms=30, deg=30, ref_call_s=0.215, rounds=3),
    # Images with thousands of coefficients: block/FFT monic_gcd dominates.
    # Not in BENCHMARK.json: whether the isolating vector is all ones makes
    # call times bimodal (0.4 s to 3.9 s), and the ~30 instances a run can
    # afford leave its seed-to-seed spread near the largest allowed bound.
    "high_degree": Workload(p=10000019, omega=6, n=6, terms=30, deg=1600, ref_call_s=0.98),
    # 26 grid rows with small T: interpolation and evaluator set-up dominate.
    "many_vars": Workload(p=10000019, omega=6, n=25, terms=30, deg=50, ref_call_s=1.0),
    # No omega: the epsilon-guaranteed extension-field path the CLI takes for
    # every prime except 10000019; no numpy base-field lane runs.
    "ext_field": Workload(p=1000003, omega=None, n=4, terms=10, deg=10, ref_call_s=0.39),
}


@dataclass(frozen=True)
class Instance:
    A: object
    B: object
    G: object
    engine_seed: int


@dataclass(frozen=True)
class Call:
    index: int
    elapsed: float
    outcome: str  # "ok", "failed" (GcdFailure) or "wrong"
    trace: object  # StageTrace, or None when the engine gave up


def load_spgcd():
    """Import spgcd from the checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "spgcd" / "__init__.py").is_file():
        raise FileNotFoundError(f"spgcd sources not found under {src}")
    sys.path.insert(0, str(src))
    spgcd = importlib.import_module("spgcd")
    for mod in ("instances", "polyfile"):  # not imported by the package itself
        importlib.import_module(f"spgcd.{mod}")
    if Path(spgcd.__file__).resolve().parent != (src / "spgcd").resolve():
        raise ImportError(f"spgcd was imported from {spgcd.__file__}, not {src}")
    return spgcd


def make_pool(spgcd, wl: Workload, seed: int, count: int) -> list:
    """``count`` planted instances; instance i depends only on (seed, i)."""
    field = spgcd.PrimeField(wl.p)
    pool = []
    for i in range(count):
        base = 2 * (seed * 1_000_000 + i)
        A, B, G = spgcd.instances.gen_triple(field, random.Random(base), wl.n, wl.terms, wl.deg)
        pool.append(Instance(A, B, G, base + 1))
    return pool


def instances_digest(spgcd, wl: Workload, pool) -> str:
    field = spgcd.PrimeField(wl.p)
    h = hashlib.sha256()
    for inst in pool:
        for f in (inst.A, inst.B, inst.G):
            h.update(spgcd.polyfile.render(field, f).encode())
    return h.hexdigest()


def timed_gcd(spgcd, wl: Workload, field, inst: Instance, index: int) -> Call:
    cfg = spgcd.GcdConfig(seed=inst.engine_seed, omega=wl.omega, term_strategy="linear")
    t0 = time.perf_counter()
    try:
        got, trace = spgcd.engine.gcd(field, inst.A, inst.B, cfg)
    except spgcd.GcdFailure:
        return Call(index, time.perf_counter() - t0, "failed", None)
    elapsed = time.perf_counter() - t0
    if got != inst.G:
        print(f"error: wrong answer on instance {index}", file=sys.stderr)
        return Call(index, elapsed, "wrong", trace)
    return Call(index, elapsed, "ok", trace)


def measure(spgcd, wl: Workload, pool, seconds: float) -> list:
    """One full pass over the pool, then further calls in pool order until
    ``seconds`` have passed since the first call started."""
    field = spgcd.PrimeField(wl.p)
    calls = []
    start = time.perf_counter()
    i = 0
    while i < len(pool) or time.perf_counter() - start < seconds:
        calls.append(timed_gcd(spgcd, wl, field, pool[i % len(pool)], i % len(pool)))
        i += 1
    return calls


def tail_percentile(values) -> tuple:
    """(percentile, value) for the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND values beyond its nearest-rank value; the median when none
    of them has."""
    xs = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * len(xs) / 100)
        if len(xs) - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1]
    return 50.0, statistics.median(xs)


def end_to_end(calls) -> dict:
    """Latency over instances (each instance's median over its calls, so every
    instance counts once), throughput and the failed share."""
    per_instance: dict = {}
    for c in calls:
        per_instance.setdefault(c.index, []).append(c)
    inst_ms = [1000.0 * statistics.median(c.elapsed for c in cs) for cs in per_instance.values()]
    ok_share = [sum(c.outcome == "ok" for c in cs) / len(cs) for cs in per_instance.values()]
    pct, tail = tail_percentile(inst_ms)
    failed = sum(c.outcome != "ok" for c in calls)
    return {
        "gcd_ms_p50": statistics.median(inst_ms),
        "gcd_ms_tail": tail,
        "tail_percentile": pct,
        "gcds_per_s": 1000.0 * sum(ok_share) / sum(inst_ms),
        "failed_share": failed / len(calls),
        "wrong": sum(c.outcome == "wrong" for c in calls),
        "failed": failed,
        "instances": len(per_instance),
        "calls": len(calls),
    }


def result_line(calls, metrics: dict) -> dict:
    return {
        "correct": not any(c.outcome == "wrong" for c in calls),
        "attempted": len(calls),
        "failed": sum(c.outcome != "ok" for c in calls),
        "metrics": metrics,
    }


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_end_to_end(spgcd, wl_name: str, wl: Workload, seed: int, seconds: int, import_s: float):
    count = wl.pool_size(seconds)
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = make_pool(spgcd, wl, seed, count)
        setup.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    timed_gcd(spgcd, wl, spgcd.PrimeField(wl.p), pool[0], 0)  # warm-up, untimed
    warm_s = time.perf_counter() - t0
    traced_count = trace_pool_size(wl, seconds)
    digest = instances_digest(spgcd, wl, pool[:traced_count])
    compare_fingerprint({"instances_sha256": digest}, wl_name, seed, traced_count)

    calls = measure(spgcd, wl, pool, seconds)
    e2e = end_to_end(calls)
    setup_s = import_s + statistics.median(setup) + warm_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_inst = e2e["instances"]
    print(f"gcd_ms_p50   {e2e['gcd_ms_p50']:.4f} ms   (median over {n_inst} instances, {e2e['calls']} calls)")
    print(
        f"gcd_ms_tail  {e2e['gcd_ms_tail']:.4f} ms   (p{e2e['tail_percentile']:.1f} over {n_inst} "
        f"instances, at least {TAIL_BEYOND} beyond it)"
    )
    print(f"gcds_per_s   {e2e['gcds_per_s']:.4f} 1/s")
    print(
        f"failed_share {e2e['failed_share']:.4f} ratio   ({e2e['failed']} of {len(calls)} calls, "
        f"{e2e['wrong']} wrong answers)"
    )
    print(
        f"setup_s      {setup_s:.4f} s    (import {import_s:.3f} + median of {SETUP_REPEATS} "
        f"generations of {count} instances {statistics.median(setup):.3f} + warm-up {warm_s:.3f})"
    )
    print(f"peak_rss_mb  {peak_rss_mb:.2f} MB")
    metrics = {
        "gcd_ms_p50": {"value": e2e["gcd_ms_p50"], "unit": "ms"},
        "gcd_ms_tail": {"value": e2e["gcd_ms_tail"], "unit": "ms"},
        "gcds_per_s": {"value": e2e["gcds_per_s"], "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return result_line(calls, metrics)


def trace_pool_size(wl: Workload, seconds: int) -> int:
    """A prefix of the end-to-end pool that a traced run times twice (once
    traced, once not) in about ``seconds``."""
    return min(wl.pool_size(seconds), max(TAIL_BEYOND, round(seconds / (2 * wl.ref_call_s))))


# (owner under spgcd, attribute, span name).  Each function is wrapped where
# its caller looks it up, so a span counts only the calls from that caller.
LAYER_WRAPS = [
    ("engine", "gcd", "engine.gcd"),
    ("engine", "monic_gcd", "unipoly.monic_gcd"),
    ("interp", "find_roots", "unipoly.find_roots"),
    ("interp", "berlekamp_massey", "unipoly.berlekamp_massey"),
    ("interp", "solve_transposed_vandermonde", "unipoly.solve_transposed_vandermonde"),
    ("engine", "interpolate", "interp.interpolate"),
    ("sparse.PowerImageEvaluator", "__init__", "sparse.PowerImageEvaluator.__init__"),
    ("sparse.PowerImageEvaluator", "next_image", "sparse.PowerImageEvaluator.next_image"),
    ("interp", "eval_at_powers", "sparse.eval_at_powers"),
    ("engine", "diversify", "sparse.diversify"),
    ("engine", "undiversify", "sparse.undiversify"),
    ("engine", "homogenize", "sparse.homogenize"),
    ("engine", "choose_isolating_vector", "sparse.choose_isolating_vector"),
    ("engine", "find_irreducible", "field.find_irreducible"),
    ("engine", "find_primitive_root", "field.find_primitive_root"),
    ("interp", "discrete_log_bounded", "field.discrete_log_bounded"),
]
# Instance generation, traced during set-up only.
SETUP_WRAPS = [
    ("instances", "gen_triple", "instances.gen_triple"),
    ("instances", "dense_gcd", "oracle.dense_gcd"),
    ("instances", "sparse_mul", "oracle.sparse_mul"),
]
COUNTERS = {"unipoly.monic_gcd": ("coeffs_in", lambda field, u, v: len(u) + len(v))}


def install_wrappers(tracer: Tracer, spgcd, wraps) -> None:
    for owner_path, attr, name in wraps:
        owner = spgcd
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, counter=COUNTERS.get(name))


# Spans reported as calls and seconds; the ones with children also as self_s.
SPAN_METRICS = [name for _, _, name in LAYER_WRAPS + SETUP_WRAPS]
SELF_TIME_SPANS = ("engine.gcd", "interp.interpolate", "instances.gen_triple")
STAGES = ("I", "II", "III", "IV", "V", "VI")
FINGERPRINT_CALLS = ("unipoly.monic_gcd", "unipoly.find_roots", "interp.interpolate")
# Printed but left out of the JSON: these times are 0.0 on every run of a
# workload with omega, and a time that never changes reads as unmeasured.
TEXT_ONLY = frozenset({"field.find_irreducible.s", "field.find_primitive_root.s"})


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer_metrics(rows, counters, traces, untraced_s, traced_s) -> dict:
    """Per-layer numbers of one traced pass; ``rows`` is ``summarize(spans)``."""
    out = {}
    for name in SPAN_METRICS:
        row = rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        if name in SELF_TIME_SPANS:
            out[f"{name}.self_s"] = (row["self_s"], "s")
    out["unipoly.monic_gcd.coeffs_in"] = (counters.get("unipoly.monic_gcd.coeffs_in", 0), "count")
    done = [t for t in traces if t is not None]
    for stage in STAGES:
        out[f"engine.stage_{stage}_s"] = (sum(t.timings.get(stage, 0.0) for t in done), "s")
    out["engine.attempts"] = (sum(t.retries + 1 for t in done), "count")
    out["engine.ext2_degree"] = (_mean(t.ext2_degree for t in done), "degree")
    out["engine.ext3_degree"] = (_mean(t.ext3_degree for t in done), "degree")
    out["engine.global_T"] = (_mean(t.term_bounds.global_T for t in done if t.term_bounds), "terms")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    return out


def fingerprint(digest: str, calls, rows: dict) -> dict:
    """Counts that repeat exactly for one workload and seed."""
    traces = [c.trace for c in calls]
    return {
        "instances_sha256": digest,
        "attempts": [t.retries + 1 if t else None for t in traces],
        "ext2_degree": [t.ext2_degree if t else None for t in traces],
        "ext3_degree": [t.ext3_degree if t else None for t in traces],
        "global_T": [t.term_bounds.global_T if t and t.term_bounds else None for t in traces],
        "calls": {name: rows.get(name, {"calls": 0})["calls"] for name in FINGERPRINT_CALLS},
    }


def compare_fingerprint(fp: dict, wl_name: str, seed: int, count: int) -> None:
    """Report drift from the stored fingerprint as nondeterminism: the
    instances or the engine's exact counts changed, not only its speed.
    Only the keys present in ``fp`` are compared."""
    stored = None
    if FINGERPRINTS.is_file():
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            stored = json.load(fh).get(wl_name, {}).get(f"{seed}:{count}")
    if stored is None:
        print(f"fingerprint: none stored for {wl_name} seed {seed} with {count} instances")
        return
    drift = sorted(k for k in fp if fp[k] != stored.get(k))
    if drift:
        print(f"NONDETERMINISM: fingerprint differs from {FINGERPRINTS.name} in {', '.join(drift)}")
    else:
        print(f"fingerprint: matches {FINGERPRINTS.name} ({', '.join(sorted(fp))})")


def run_traced(spgcd, wl_name: str, wl: Workload, seed: int, seconds: int):
    count = trace_pool_size(wl, seconds)
    field = spgcd.PrimeField(wl.p)
    tracer = Tracer()
    with tracer:
        install_wrappers(tracer, spgcd, SETUP_WRAPS)
        pool = make_pool(spgcd, wl, seed, count)
    timed_gcd(spgcd, wl, field, pool[0], 0)  # warm-up, untimed
    # Each instance runs once untraced and once traced, in alternating order,
    # so that drift during the run cancels out of the overhead.
    untraced, traced = [], []
    for i, inst in enumerate(pool):
        for with_spans in (i % 2 == 1, i % 2 == 0):
            if with_spans:
                with tracer:
                    install_wrappers(tracer, spgcd, LAYER_WRAPS)
                    traced.append(timed_gcd(spgcd, wl, field, inst, i))
            else:
                untraced.append(timed_gcd(spgcd, wl, field, inst, i))
    untraced_s = sum(c.elapsed for c in untraced)
    traced_s = sum(c.elapsed for c in traced)
    rows = summarize(tracer.spans)
    metrics = per_layer_metrics(rows, tracer.counters, [c.trace for c in traced], untraced_s, traced_s)

    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"spans-{wl_name}-seed{seed}.jsonl"
    tracer.write_jsonl(str(span_path))

    wall = metrics["engine.gcd.s"][0]
    print(f"traced pass over {count} instances; {len(tracer.spans)} spans written to {span_path}")
    for name, (value, unit) in metrics.items():
        in_gcd = unit == "s" and not name.startswith(("trace.", "instances.", "oracle."))
        share = f"  ({100.0 * value / wall:5.1f}% of gcd wall)" if in_gcd else ""
        print(f"{name:48s} {value:14.6f} {unit}{share}")
    fp = fingerprint(instances_digest(spgcd, wl, pool), traced, rows)
    print("fingerprint " + json.dumps(fp, separators=(",", ":")))
    compare_fingerprint(fp, wl_name, seed, count)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in TEXT_ONLY}
    return result_line(untraced + traced, reported)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    try:
        spgcd = load_spgcd()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    print(f"workload {args.workload}: p={wl.p} omega={wl.omega} n={wl.n} terms={wl.terms} "
          f"D={wl.deg}; seed {args.seed}; environment {json.dumps(environment())}")
    if args.trace:
        result = run_traced(spgcd, args.workload, wl, args.seed, args.seconds)
    else:
        result = run_end_to_end(spgcd, args.workload, wl, args.seed, args.seconds, import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
