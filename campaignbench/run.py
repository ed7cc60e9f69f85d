#!/usr/bin/env python3
"""Campaign benchmark: builds campaign_bench from the checkout and runs one
workload.

    python3 campaignbench/run.py --workload scan|reduce|dedup_triage \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 campaignbench/run.py --self-test
    python3 campaignbench/run.py --list-exact-counters

Run from the root of a checkout. The build goes to .bench_build/ there.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The exit code is nonzero when any output
check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "campaignbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
WORKLOADS = ("scan", "reduce", "dedup_triage")
DEFAULT_SEED = 2021
OPT_PASSES = (
    "frontend-check", "simplify-cfg", "dead-branch-elim", "constant-fold",
    "copy-propagation", "load-store-forwarding", "dead-store-elim", "inliner",
    "local-cse", "phi-simplify", "block-layout", "dce",
)


def fail(message, code=2):
    print(f"campaignbench: {message}", file=sys.stderr)
    sys.exit(code)


# --- Build ------------------------------------------------------------------

def read_cmake_cache():
    cache = {}
    path = BUILD_DIR / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text(errors="replace").splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no program sources at {ROOT / 'src'}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR.parent / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "campaign_bench", "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})", 1)
    # campaign_bench itself refuses Debug and sanitizer builds.
    return BUILD_DIR / "campaign_bench", read_cmake_cache()


def environment_stamp(cache, result):
    """nproc, build type, compiler, jobs, seed and the source identity."""
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.glob("*.cpp")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", result["build_type"]),
        "compiler": (cache.get("CMAKE_CXX_COMPILER_ID", "") + " " +
                     result["compiler"]).strip(),
        "jobs": result["jobs"],
        "seed": result["seed"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# --- Running ----------------------------------------------------------------

def run_binary(binary, workload, seed, seconds, trace, scale="full", jobs=0):
    out = RUNS_DIR / f"{workload}-{seed}-{trace}-{scale}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--scale", scale]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"campaign_bench exited with {proc.returncode}", 1)
    return out


def load_jsonl(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def pct(values, q):
    """Linear-interpolated percentile q (0..100) of values; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


def quality(rnd):
    """Decision-derived measures of one round: exact for a given seed."""
    return {
        "checks_per_reduction": ratio(rnd["checks"], rnd["reductions"]),
        "reduced_delta_p50": rnd["reduced_delta_p50"],
        "dedup_precision": rnd["dedup_precision"],
    }


def per_campaign(rounds, pick):
    """Mean over the run's seeded campaigns of pick(that campaign's rounds)."""
    groups = {}
    for r in rounds:
        groups.setdefault(r["campaign"], []).append(r)
    return statistics.mean(pick(g) for g in groups.values())


def end_to_end(result):
    """Times are the fastest repeat of each campaign (other tenants of the
    machine only ever slow a round down), averaged over the campaigns;
    set-up is the median of every set-up sample of the run."""
    rounds = result["rounds"]
    fastest = lambda key: per_campaign(rounds, lambda g: min(r[key] for r in g))
    values = {
        "setup_s": statistics.median(result["setup_samples"]),
        "wall_s": fastest("wall_s"),
        "cpu_s": fastest("cpu_s"),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "tests_per_s": per_campaign(
            rounds, lambda g: g[0]["tests"] / min(r["wall_s"] for r in g)),
        "distinct_bugs": per_campaign(rounds, lambda g: g[0]["distinct_bugs"]),
    }
    values["reductions_per_s"] = per_campaign(
        rounds, lambda g: ratio(g[0]["reductions"], min(r["wall_s"] for r in g)))
    values.update(quality(rounds[0]))
    return values


def self_times(spans, extra_children):
    """Self time (us) of each program span: its duration minus the union of
    its children's intervals (children by parent id, plus extra_children:
    span id -> [(start, end)] of bench spans nested inside it)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["ts_us"], s["ts_us"] + s["dur_us"]))
    out = {}
    for s in spans:
        start, end = s["ts_us"], s["ts_us"] + s["dur_us"]
        covered, cursor = 0, start
        for a, b in sorted(children.get(s["id"], []) + extra_children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = s["dur_us"] - covered
    return out


def per_layer(result, out, quiet):
    spans = [r for r in load_jsonl(out / "trace.jsonl") if r.get("type") == "span"]
    bench = load_jsonl(out / "bench_spans.jsonl")
    metrics = json.loads((out / "metrics.json").read_text())
    campaign_metrics = json.loads((out / "metrics_campaign.json").read_text())
    counters = metrics.get("counters", {})
    hist = metrics.get("histograms", {})
    counter = lambda name: counters.get(name, 0)
    prefix_sum = lambda m, p: sum(v for k, v in m.items() if k.startswith(p))
    hist_sum = lambda m, p: sum(v.get("sum", 0.0) for k, v in m.get("histograms", {}).items()
                                if k.startswith(p))

    traced = result["rounds"][-1]
    untraced = result["rounds"][:-1]
    fastest_untraced = min(untraced, key=lambda r: r["wall_s"])
    jobs = result["jobs"]
    bench_by = {}
    for b in bench:
        bench_by.setdefault(b["name"], []).append(b)
    bench_s = lambda name: sum(b["dur_us"] for b in bench_by.get(name, [])) / 1e6
    window = bench_by["bench.workload"][0]
    wall = window["dur_us"] / 1e6

    # Hooks run on the aggregation thread inside a wave, never overlapping
    # its jobs: nest them under the wave that contains them.
    waves = [s for s in spans if s["name"] == "campaign.wave"]
    hooks = [b for b in bench if b["name"] in ("store.checkpoint", "store.repro",
                                               "journal", "sink")]
    nested = {}
    for h in hooks:
        for w in waves:
            if w["ts_us"] <= h["ts_us"] and h["ts_us"] + h["dur_us"] <= w["ts_us"] + w["dur_us"]:
                nested.setdefault(w["id"], []).append(
                    (h["ts_us"], h["ts_us"] + h["dur_us"]))
                break
    self_us = self_times(spans, nested)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    self_s = lambda *names: sum(self_us[s["id"]] for n in names for s in by_name.get(n, [])) / 1e6
    durs_ms = lambda name: [s["dur_us"] / 1e3 for s in by_name.get(name, [])]
    reduce_names = [n for n in by_name if n == "campaign.reduce" or n.startswith("reduce.")]

    opt_campaign_s = hist_sum(campaign_metrics, "opt.pass_time_us.") / 1e6
    target_s = self_s("target.run", "target.run_batch")
    rows = [
        ("fuzz", self_s("campaign.evaluate", "campaign.scan")),
        ("opt", opt_campaign_s),
        ("target+exec", max(0.0, target_s - opt_campaign_s)),
        ("reduce", self_s(*reduce_names)),
        ("campaign", self_s("campaign.wave")),
        ("dedup", sum(durs_ms("campaign.dedup")) / 1e3 + bench_s("dedup")),
        ("triage", bench_s("triage")),
        ("store", bench_s("store.checkpoint") + bench_s("store.repro") + bench_s("store.attr")),
        ("journal", bench_s("journal")),
        ("bench", bench_s("sink")),
    ]
    capacity = jobs * wall
    unattributed = capacity - sum(v for _, v in rows)

    if not quiet:
        print(f"per-layer self time, {result['workload']} (thread-seconds; "
              f"capacity = {jobs} jobs x wall_s {wall:.3f} s):")
        print(f"  {'setup: gen.corpus':<22} {bench_s('gen.corpus'):9.4f} s")
        for name, value in rows + [("unattributed", unattributed)]:
            print(f"  {name:<22} {value:9.4f} s  {100 * ratio(value, capacity):5.1f}%")
        walls = [r["wall_s"] for r in untraced]
        print(f"traced wall_s {wall:.3f} s against the fastest of {len(walls)} "
              f"untraced repeats {min(walls):.3f} s (they ranged "
              f"{min(walls):.3f}-{max(walls):.3f} s)")

    replay = result["replay"]
    job_spans = sum(s["dur_us"] for s in spans if s["name"] in
                    ("campaign.evaluate", "campaign.scan", "campaign.reduce")
                    or (s["name"] == "target.run" and s["parent"] == 0)) / 1e6
    wave_s = sum(durs_ms("campaign.wave")) / 1e3
    needed = (counter("replaycache.transformations_skipped") +
              prefix_sum(counters, "replay.applications.") +
              prefix_sum(counters, "replay.skipped."))
    spec = counter("reducer.speculative_checks")
    checks = counter("reducer.checks")
    values = {
        "gen.corpus_s": bench_s("gen.corpus"),
        "fuzz.s": rows[0][1],
        "fuzz.applied_ratio": ratio(prefix_sum(counters, "fuzzer.applications."),
                                    prefix_sum(counters, "fuzzer.attempts.")),
        "fuzz.variant_insts_p50": pct(replay["variant_insts"], 50),
        "fuzz.variant_insts_p90": pct(replay["variant_insts"], 90),
        "transform.apply_s": hist_sum(metrics, "transformation.apply_us.") / 1e6,
        "replay.replays": counter("replaycache.replays"),
        "replay.skip_ratio": ratio(counter("replaycache.transformations_skipped"), needed),
        "reduce.reduction_ms_p50": pct(durs_ms("campaign.reduce"), 50),
        "reduce.reduction_ms_p90": pct(durs_ms("campaign.reduce"), 90),
        "reduce.self_s": rows[3][1],
        "reduce.checks": checks,
        "reduce.speculative_checks": spec,
        "reduce.speculation_waste_ratio": ratio(spec, checks + spec),
        "reduce.memo_hits": counter("reducer.model.memo_hits"),
        "postreduce.checks": counter("reducer.postreduce.checks"),
        "baseline.checks": counter("baseline_reducer.checks"),
    }
    for p in OPT_PASSES:
        values[f"opt.{p}.s"] = hist.get(f"opt.pass_time_us.{p}", {}).get("sum", 0.0) / 1e6
        values[f"opt.{p}.runs"] = counter(f"opt.pass_runs.{p}")
    values.update({
        "opt.repeat_input_ratio": ratio(replay["repeat_pass_runs"], replay["pass_runs"]),
        "exec.s": replay["exec_s"],
        "exec.lower_s": replay["lower_s"],
        "exec.runs": counter("exec.runs"),
        "exec.steps": counter("exec.steps"),
        "target.compiles": counter("target.compiles"),
        "target.compile_s": replay["opt_s"] + replay["lower_s"],
        "target.run_ms_p50": pct(durs_ms("target.run"), 50),
        "target.run_ms_p99": pct(durs_ms("target.run"), 99),
        "evalcache.hit_ratio": ratio(traced["evalcache_hits"],
                                     traced["evalcache_hits"] + traced["evalcache_misses"]),
        "exe_cache.hit_ratio": ratio(traced["exe_cache_hits"],
                                     traced["exe_cache_hits"] + traced["exe_cache_misses"]),
        "campaign.wave_ms_p50": pct(durs_ms("campaign.wave"), 50),
        "campaign.wave_ms_p90": pct(durs_ms("campaign.wave"), 90),
        "campaign.pool_busy_ratio": ratio(job_spans, jobs * wave_s),
        "dedup.s": rows[5][1],
        "triage.attribute_ms_p50": pct(result["triage_ms"], 50),
        "triage.attribute_ms_p90": pct(result["triage_ms"], 90),
        "triage.bisection_checks": counter("triage.bisection_checks"),
        "triage.pass_runs": counter("triage.pass_runs"),
        "triage.exact_ratio": ratio(counter("triage.exact"), counter("triage.attributions")),
        "store.checkpoint_count": len(bench_by.get("store.checkpoint", [])),
        "store.checkpoint_ms": 1e3 * bench_s("store.checkpoint"),
        "store.repro_count": len(bench_by.get("store.repro", [])),
        "store.repro_ms": 1e3 * bench_s("store.repro"),
        "store.attr_count": len(bench_by.get("store.attr", [])),
        "store.attr_ms": 1e3 * bench_s("store.attr"),
        "store.bytes": traced["store_bytes"],
        "journal.events": traced["journal_events"],
        "journal.s": bench_s("journal"),
        "trace.overhead_ratio": ratio(wall, fastest_untraced["wall_s"]) - 1.0,
        "unattributed_ratio": ratio(unattributed, capacity),
    })
    values["reductions_per_s"] = ratio(fastest_untraced["reductions"],
                                       fastest_untraced["wall_s"])
    values.update(quality(fastest_untraced))
    return values


def check_digest(workload, result, out):
    """Compares the default seed's decision output with the committed one."""
    if result["seed"] != DEFAULT_SEED or result["scale"] != "full":
        return None
    expected = (BENCH_DIR / "expected" / f"{workload}.sha256").read_text().split()[0]
    actual = hashlib.sha256((out / "decisions.txt").read_bytes()).hexdigest()
    return actual == expected, actual


def measure(binary, cache, workload, seed, seconds, trace, scale="full",
            quiet=False):
    out = run_binary(binary, workload, seed, seconds, trace, scale)
    result = json.loads((out / "result.json").read_text())
    attempted = result["checks"]["attempted"]
    failed = result["checks"]["failed"]
    failures = list(result["checks"]["failures"])
    digest = check_digest(workload, result, out)
    if digest is not None:
        attempted += 1
        if not digest[0]:
            failed += 1
            failures.append(f"decision digest {digest[1]} differs from "
                            f"expected/{workload}.sha256")
    if not quiet:
        stamp = environment_stamp(cache, result)
        print("env: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
        print(f"workload={workload} rounds={len(result['rounds'])} "
              f"tests_per_tool={result['tests_per_tool']} "
              f"limit={result['transformation_limit']}")
    values = end_to_end(result) if trace == 0 else per_layer(result, out, quiet)
    values["failed_ratio"] = ratio(failed, attempted)
    if not quiet:
        for name, value in values.items():
            print(f"  {name:<32} {value:.6g}")
        for message in failures:
            print(f"CHECK FAILED: {message}")
    shutil.rmtree(out, ignore_errors=True)
    return values, attempted, failed, result


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(spec, values, attempted, failed, trace):
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_test(binary, cache):
    """Tiny runs of every workload, traced and not: every metric named in
    BENCHMARK.json must be emitted with its unit and no check may fail."""
    spec = benchmark_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            values, attempted, failed, _ = measure(
                binary, cache, workload, 7, 1, trace, scale="tiny", quiet=True)
            line = result_line(spec, values, attempted, failed, trace)
            kind = "per_layer" if trace else "end_to_end"
            for m in spec[kind]:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(
                        got["value"], (int, float)):
                    problems.append(f"{workload}/trace={trace}: {m['name']} missing")
            if failed or values["failed_ratio"] != 0:
                problems.append(f"{workload}/trace={trace}: {failed} of "
                                f"{attempted} checks failed")
            print(f"self-test {workload} trace={trace}: {attempted} checks, "
                  f"{failed} failed")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def list_exact_counters(binary, cache):
    """Runs each workload traced twice (dedup_triage also at 1 job) and
    prints which counters repeat exactly and which depend on the schedule."""
    def counters(workload, jobs=0):
        out = run_binary(binary, workload, DEFAULT_SEED, 1, 1, jobs=jobs)
        data = json.loads((out / "metrics.json").read_text())["counters"]
        shutil.rmtree(out, ignore_errors=True)
        return data

    listing = {}
    for workload in WORKLOADS:
        runs = [counters(workload), counters(workload)]
        if workload == "dedup_triage":
            runs.append(counters(workload, jobs=1))
        names = sorted(set().union(*runs))
        exact = [n for n in names if len({r.get(n, 0) for r in runs[:2]}) == 1]
        schedule = [n for n in exact if len({r.get(n, 0) for r in runs}) > 1]
        listing[workload] = {
            "exact": [n for n in exact if n not in schedule],
            "schedule_dependent": schedule,
            "varying": [n for n in names if n not in exact],
        }
    print(json.dumps(listing, indent=1, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--list-exact-counters", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.list_exact_counters):
        parser.error("--workload is required")

    binary, cache = build()
    if args.self_test:
        return self_test(binary, cache)
    if args.list_exact_counters:
        return list_exact_counters(binary, cache)
    values, attempted, failed, _ = measure(
        binary, cache, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result_line(benchmark_spec(), values, attempted, failed,
                                 args.trace)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
