#!/usr/bin/env python3
"""qborrow benchmark: builds the harness, runs a workload, prints metrics.

  python3 perfbench/run.py --workload mcx-cli --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all            # every workload, both modes
  python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
  python3 perfbench/run.py --spread RESULTS_DIR   # run-to-run spread vs bounds

A run repeats passes of one workload (one qbbench process per pass)
until --seconds are spent, then prints a table and, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 untraced and traced passes alternate and the metrics
are the per-layer ones.  Each run also writes a result file (host and
build facts, every sample) under <build>/results, or --results DIR;
--compare judges two such directories against BENCHMARK.json's bounds;
--spread checks one directory's runs (one per seed) for steadiness.
Exit status is non-zero on a wrong verdict or any failed request.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import benchstats as bs  # noqa: E402

WORKLOADS = ("mcx-cli", "adder-sat", "serve-mix")
PASS_TIMEOUT_S = 170
MIN_PASSES = 3

# Per-layer metrics taken from span durations (span name per metric).
SPAN_METRICS = {
    "analysis.lint_ir_s": "analysis.lint_ir",
    "analysis.lint_ast_s": "analysis.lint_ast",
    "core.formula_build_s": "core.formula_build",
    "core.prepare_s": "core.prepare",
    "core.finish_wait_s": "core.finish_wait",
    "lang.elaborate_s": "lang.elaborate",
    "report.to_json_s": "report.to_json",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at " + ROOT)
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)),
                        "perfbench")


def build():
    """Configure (once) and build qbbench in Release; returns the binary
    path and the build type the cache records."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no qborrow sources next to perfbench/ (looked in %s)" % ROOT)
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "qbbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    build_type = "unknown"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return os.path.join(out, "qbbench"), build_type


# --------------------------------------------------------------- one pass

def run_pass(binary, workload, seed, traced):
    """Run one qbbench process; returns its raw record and exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, cwd=os.path.dirname(binary),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s pass timed out after %d s" % (workload, PASS_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        fail("%s pass printed no record (exit %d)"
             % (workload, done.returncode))
    return json.loads(lines[-1]), done.returncode


def run_passes(binary, workload, seed, seconds, trace):
    """Passes until `seconds` are spent (at least MIN_PASSES untraced;
    with trace, untraced/traced pairs, at least one)."""
    records = []
    start = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            records.append(run_pass(binary, workload, seed, traced))
        untraced = sum(1 for r, _ in records if not r["traced"])
        if (time.monotonic() - start >= seconds and
                (trace or untraced >= MIN_PASSES)):
            return records


# ---------------------------------------------------------------- metrics

def latencies_ms(record):
    items = record.get("programs") or record.get("requests")
    return [1e3 * it["latency_s"] for it in items]


def end_to_end(records):
    """Per pass values of every end-to-end metric."""
    per_pass = {}
    for r in records:
        lat = latencies_ms(r)
        values = {
            "setup_s": r["setup_s"],
            "wall_s": r["wall_s"],
            "req_per_s": r["attempted"] / r["wall_s"],
            "latency_ms.p50": bs.nearest_rank(lat, 50),
            "latency_ms.p90": bs.nearest_rank(lat, 90),
            "cpu_s": r["cpu_s"],
            "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        }
        for name, value in values.items():
            per_pass.setdefault(name, []).append(value)
    return per_pass


def per_layer(traced, untraced):
    """Per traced pass values of every per-layer metric; metrics of a
    layer the workload does not call read 0."""
    per_pass = {}
    for r in traced:
        totals = {}
        for span in r["spans"]:
            totals[span["name"]] = (totals.get(span["name"], 0.0) +
                                    span["end"] - span["start"])
        values = {m: totals.get(s, 0.0) for m, s in SPAN_METRICS.items()}
        values.update(r["counters"])
        solve = values.get("sat.solve_s", 0.0)
        values["sat.props_per_s"] = (values.get("sat.propagations", 0.0) /
                                     solve if solve else 0.0)
        hits = values.get("serving.result_hits", 0.0)
        looked = hits + values.get("serving.result_misses", 0.0)
        values["serving.result_hit_ratio"] = hits / looked if looked else 0.0
        requests = r.get("requests")
        if requests:
            computed = [q for q in requests
                        if q["group"] != "exact_repeat" and q["engine_s"] >= 0]
            admit = [1e3 * q["admit_s"] for q in requests
                     if q["admit_s"] >= 0]
            engine = [1e3 * q["engine_s"] for q in computed]
            overhead = [1e3 * (q["latency_s"] - q["engine_s"])
                        for q in computed]
            values["server.admit_ms.p50"] = bs.nearest_rank(admit, 50)
            values["server.engine_ms.p50"] = bs.nearest_rank(engine, 50)
            values["server.engine_ms.p90"] = bs.nearest_rank(engine, 90)
            values["server.overhead_ms.p50"] = bs.nearest_rank(overhead, 50)
        for name, value in values.items():
            per_pass.setdefault(name, []).append(value)
    overhead = (bs.median([r["wall_s"] for r in traced]) -
                bs.median([r["wall_s"] for r in untraced]))
    per_pass["trace.overhead_s"] = [overhead]
    return per_pass


def verdicts_agree(traced, untraced):
    """Traced one-shot passes must reach the untraced verdicts."""
    def table(records):
        return {p["name"]: p["verdicts"]
                for r in records for p in r.get("programs", [])}
    a, b = table(traced), table(untraced)
    return all(b.get(name, v) == v for name, v in a.items())


def host_facts(records, build_type):
    first = records[0]
    commit = "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "jobs": first["jobs"],
        "seed": first["seed"],
        "commit": commit,
        "compiler": first["compiler"],
        "cmake_build_type": build_type,
        "ndebug": first["ndebug"],
    }


def run(workload, seed, seconds, trace, results_dir, spec):
    binary, build_type = build()
    records_rc = run_passes(binary, workload, seed, seconds, trace)
    records = [r for r, _ in records_rc]
    facts = host_facts(records, build_type)
    if build_type != "Release" or not facts["ndebug"]:
        facts["build_warning"] = (
            "libqb built as %r (NDEBUG %s), not Release: timings are not "
            "comparable" % (build_type, facts["ndebug"]))
        print("WARNING: " + facts["build_warning"], file=sys.stderr)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]

    tallies = {k: sum(r[k] for r in records)
               for k in ("attempted", "wrong", "unknown", "errors",
                         "refused")}
    failed = (tallies["wrong"] + tallies["unknown"] + tallies["errors"] +
              tallies["refused"])
    correct = (failed == 0 and all(rc == 0 for _, rc in records_rc) and
               verdicts_agree(traced, untraced))
    messages = [m for r in records for m in r["messages"]]

    if trace:
        samples = per_layer(traced, untraced)
        wanted = spec["per_layer"]
    else:
        samples = end_to_end(untraced)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        values = samples.get(m["name"], [0.0])
        metrics[m["name"]] = {"value": bs.median(values), "unit": m["unit"]}

    result = {
        "workload": workload,
        "trace": int(trace),
        "host": facts,
        "correct": correct,
        "attempted": tallies["attempted"],
        "failed": failed,
        "fail_ratio": bs.fail_ratio(**tallies),
        "tallies": tallies,
        "messages": messages[:16],
        "passes": len(untraced) + len(traced),
        "metrics": metrics,
        "samples": samples,
        "self_time_s": self_time_table(traced),
    }
    out_dir = results_dir or os.path.join(os.path.dirname(build_dir()),
                                          "results")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, seed, int(trace))
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print_table(result, wanted)
    for m in messages[:8]:
        print("  failure: " + m)
    print(json.dumps({"correct": correct,
                      "attempted": tallies["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return correct


def self_time_table(traced):
    """Median over traced passes of each span name's total and self
    time (span minus the union of its children)."""
    table = {}
    for r in traced:
        for name, (total, own) in bs.self_times(r["spans"]).items():
            table.setdefault(name, ([], []))
            table[name][0].append(total)
            table[name][1].append(own)
    return {name: {"total": bs.median(t), "self": bs.median(s)}
            for name, (t, s) in sorted(table.items())}


def print_table(result, wanted):
    host = result["host"]
    print("%s trace=%d seed=%s passes=%d  [%s, %s, nproc %s, jobs %s, %s]"
          % (result["workload"], result["trace"], host["seed"],
             result["passes"], host["cmake_build_type"], host["compiler"],
             host["nproc"], host["jobs"], host["commit"][:12]))
    for m in wanted:
        values = result["samples"].get(m["name"], [0.0])
        print("  %-34s %14.6g %-6s n=%-3d spread %5.1f%%"
              % (m["name"], result["metrics"][m["name"]]["value"],
                 m["unit"], len(values), 100 * bs.spread(values)))
    print("  %-34s %14.6g ratio  (%d attempted)"
          % ("fail_ratio", result["fail_ratio"], result["attempted"]))
    per_pass = result["attempted"] // result["passes"]
    pct = bs.supported_percentile(per_pass)
    print("  highest percentile with >= 10 samples beyond it per pass: %s "
          "(%d latency samples)" % ("p%g" % pct if pct else "none", per_pass))
    for name, t in result["self_time_s"].items():
        print("  span %-28s total %10.6f s  self %10.6f s"
              % (name, t["total"], t["self"]))


# ---------------------------------------------------------------- compare

def load_results(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                r = json.load(f)
            out[(r["workload"], r["host"]["seed"], r["trace"])] = r
    return out


def compare(parent_dir, change_dir, spec):
    """Per workload and end-to-end metric: medians and quartiles of
    both sides, pairs won (matched by seed), and the verdict of
    benchstats.compare_metric.  Exit status 1 on any regression."""
    parent, change = load_results(parent_dir), load_results(change_dir)
    regressions = 0
    for workload in WORKLOADS:
        seeds = sorted(s for (w, s, t) in parent
                       if w == workload and t == 0 and
                       (w, s, t) in change)
        if not seeds:
            continue
        print("%s (%d paired seeds)" % (workload, len(seeds)))
        for m in spec["end_to_end"]:
            p = [parent[(workload, s, 0)]["metrics"][m["name"]]["value"]
                 for s in seeds]
            c = [change[(workload, s, 0)]["metrics"][m["name"]]["value"]
                 for s in seeds]
            v = bs.compare_metric(p, c, m["better"], m["bound"])
            regressions += v["status"] == "regression"
            print("  %-16s parent %10.5g [%.5g, %.5g]  change %10.5g "
                  "[%.5g, %.5g] %-5s worse by %+6.1f%% (bound %.0f%%)  "
                  "pairs won %d/%d (parent %d, ties %d)  %s"
                  % (m["name"], v["parent"][1], v["parent"][0],
                     v["parent"][2], v["change"][1], v["change"][0],
                     v["change"][2], m["unit"], 100 * v["worse_by"],
                     100 * m["bound"], v["change_wins"], v["pairs"],
                     v["parent_wins"], v["ties"], v["status"]))
    return regressions == 0


def spread_report(directory, spec):
    """Per workload and end-to-end metric, over the untraced runs in
    `directory` (one per seed): median, interquartile spread as a share
    of the median, and whether it is within the bound and a third of
    it.  Exit status 1 when any spread but setup_s's exceeds its
    bound."""
    results = load_results(directory)
    ok = True
    for workload in WORKLOADS:
        runs = [r for (w, s, t), r in sorted(results.items())
                if w == workload and t == 0]
        if not runs:
            continue
        print("%s (%d runs)" % (workload, len(runs)))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            sp = bs.spread(values)
            within = sp <= m["bound"]
            ok = ok and (within or m["name"] == "setup_s")
            print("  %-16s median %12.6g %-5s spread %5.1f%%  bound %3.0f%%"
                  "  %s" % (m["name"], bs.median(values), m["unit"],
                            100 * sp, 100 * m["bound"],
                            "steady" if sp < m["bound"] / 3 else
                            "within bound" if within else "TOO WIDE"))
    return ok


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="directory for result files")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--spread", metavar="RESULTS")
    args = ap.parse_args()
    spec = load_spec()
    if args.spread:
        return 0 if spread_report(args.spread, spec) else 1
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1], spec) else 1
    if not args.workload:
        ap.error("--workload, --compare or --spread is required")
    seconds = args.seconds or spec["run_seconds"]
    if args.workload != "all":
        ok = run(args.workload, args.seed, seconds, args.trace,
                 args.results, spec)
        return 0 if ok else 1
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok = run(workload, args.seed, seconds, trace, args.results,
                     spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
