#!/usr/bin/env python3
"""Build and run the MMR benchmark.

One command builds the bench binary (benchmark/mmr_bench.cc) against the
repository's own mmr library and runs the four workloads named in
BENCHMARK.json as fresh processes, checking the simulated outputs.

  python3 benchmark/run.py                      full suite: N rounds, order
                                                rotated every round, then one
                                                traced run per workload
  python3 benchmark/run.py --quick              tiny cycle counts, 1 round,
                                                every correctness check
  python3 benchmark/run.py --compare OLD NEW    OLD and NEW are checkouts:
                                                build both, run them in
                                                alternating pairs, verdicts
  python3 benchmark/run.py --compare OLD NEW    OLD and NEW are suite
                                                records: do two run sets
                                                agree within the bounds?
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                                one measured run; the last
                                                stdout line is a JSON result

Run it from anywhere inside a checkout of the repository; it builds into
.bench_build/ and writes records to benchmark/out/.  It refuses to run
when MMR_INVARIANTS is set, so the default configuration is measured.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mmr_bench")
EXPECTED = os.path.join(HERE, "expected.json")

PIN_SEED = 42  # the seed whose digests and model outputs are pinned
PROCESS_TIMEOUT_S = 150  # a bench process that runs longer has hung
SUITE_SECONDS = 4.0  # measured time of one suite or A/B process
SUITE_ROUNDS = 5  # default suite repeats per workload
MIN_PAIRS = 10  # an A/B claims 'improved' only from this many pairs
SERIAL, SHARDED = "net_min256", "net_min256_x4"
CHURN = "churn_mesh8_faults"


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def summary(values):
    """Median, quartiles (statistics.quantiles, n=4) and count."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def rotated(items, round_index):
    """The run order of one round: the list rotated by the round index,
    so every workload runs in every position across rounds."""
    k = round_index % len(items)
    return items[k:] + items[:k]


def verdict(old, new, better, bound, interleaved):
    """Verdict for one metric on one workload; returns (verdict, won).

    old/new are per-run values in run order.  When @p interleaved, the
    runs alternated old/new on one host and pair k is (old[k], new[k]);
    won is the share of pairs the new side wins.  Otherwise (two records
    made at different times) there are no pairs and won is None.

    'improved' needs interleaved runs, at least MIN_PAIRS pairs, the new
    side winning nine tenths of them, and the median moving by more than
    the old quartile spread.  'unresolved': the old runs spread wider
    than the bound and the new side does not beat every old run, or the
    median gained more than the bound without that evidence.
    'regressed': the median got worse by more than the bound.
    Otherwise 'within bound'.
    """
    sign = 1.0 if better == "higher" else -1.0
    mo, mn = statistics.median(old), statistics.median(new)
    so = summary(old)
    iqr = so["q3"] - so["q1"]
    gain = sign * (mn - mo) / abs(mo) if mo else 0.0
    won = None
    if interleaved:
        pairs = list(zip(old, new))
        won = sum(1 for o, n in pairs if sign * (n - o) > 0) / len(pairs)
        if (gain > 0 and len(pairs) >= MIN_PAIRS and won >= 0.9
                and abs(mn - mo) > iqr):
            return "improved", won
    beats_all = all(sign * (n - o) > 0 for n in new for o in old)
    if mo and iqr / abs(mo) > bound and not beats_all:
        return "unresolved", won
    if gain > bound:
        return "unresolved", won
    if gain < -bound:
        return "regressed", won
    return "within bound", won


# ---------------------------------------------------------------------
# Build and run the bench binary
# ---------------------------------------------------------------------

class Failure(Exception):
    """A correctness check failed."""


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir=BUILD, root=None):
    """Build the bench binary into @p build_dir and return its path.
    It links the mmr library of @p root, a checkout of the repository
    (default: this one).  Configures once, or every time a root is
    given, so the cached root is never stale.  Logs go to stderr."""
    steps = [["cmake", "--build", build_dir, "--target", "mmr_bench",
              "-j", "4"]]
    if root or not os.path.exists(os.path.join(build_dir,
                                               "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
                     + (["-DMMR_ROOT=" + root] if root else []))
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            raise SystemExit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "mmr_bench")


def run_bench(workload, seed, mode="plain", seconds=0.0, quick=False,
              binary=BINARY):
    """Run one bench process; returns (result dict, peak RSS in MiB).

    Raises Failure on a non-zero exit or unparsable output.  The process
    is always waited for; it is killed if it outlives the timeout.
    """
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--mode=" + mode, "--seconds=%g" % seconds,
           "--quick=%d" % int(quick)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if proc.returncode != 0:
        raise Failure("%s seed %d (%s): exit code %d"
                      % (workload, seed, mode, proc.returncode))
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise Failure("%s seed %d: unreadable bench output" % (workload, seed))
    return result, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------

def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def check_model(workload, model):
    """Model outputs that must hold for every seed."""
    problems = []
    if workload == "router_fig4":
        if not 0.85 <= model["utilization"] <= 0.95:
            problems.append("utilization %r outside [0.85, 0.95]"
                            % model["utilization"])
        if model["flits_delivered"] <= 0:
            problems.append("no flits delivered")
    elif workload in (SERIAL, SHARDED):
        if model["stream_acceptance"] != 1:
            problems.append("stream acceptance %r != 1"
                            % model["stream_acceptance"])
        sent, got = model["datagrams_sent"], model["datagrams_delivered"]
        if sent <= 0 or got < 0.95 * sent:
            problems.append("datagrams delivered %d of %d" % (got, sent))
    elif workload == CHURN:
        for key in ("leaked_sessions", "pending_setups", "open_connections"):
            if model[key] != 0:
                problems.append("drain leaves %s = %d" % (key, model[key]))
        if not 0 < model["session_acceptance"] < 1:
            problems.append("session acceptance %r outside (0, 1)"
                            % model["session_acceptance"])
        if model["setups_decided"] <= 0:
            problems.append("no setups decided")
    if problems:
        raise Failure("%s: %s" % (workload, "; ".join(problems)))


def check_result(workload, seed, result, quick, expected):
    """Checks on one bench result: model outputs, and at the pinned
    seed the pinned digest and model outputs."""
    check_model(workload, result["model"])
    if seed != PIN_SEED:
        return
    pin = expected["quick" if quick else "full"][workload]
    if result["digest"] != pin["digest"] or result["model"] != pin["model"]:
        raise Failure("%s seed %d%s: digest %s / model %s differ from "
                      "the pinned %s / %s"
                      % (workload, seed, " (quick)" if quick else "",
                         result["digest"], result["model"], pin["digest"],
                         pin["model"]))


def same_digest(results, what):
    digests = {r["digest"] for r in results}
    if len(digests) > 1:
        raise Failure("%s: digests disagree: %s" % (what, sorted(digests)))


def check_layers(workload, results, bench):
    """Exact counts repeat across every traced run of one config."""
    for name in [m["name"] for m in bench["per_layer"]
                 if m["unit"] == "count"]:
        values = {layer[name] for r in results for layer in r["layers"]}
        if len(values) > 1:
            raise Failure("%s: traced count %s differs between runs: %s"
                          % (workload, name, sorted(values)))


def gate(workload, seed, expected):
    """The quick correctness gate run before every measured run: the
    pinned quick digest, and for the MIN workloads serial == sharded at
    the run's own seed."""
    r, _ = run_bench(workload, PIN_SEED, quick=True)
    check_result(workload, PIN_SEED, r, True, expected)
    if workload in (SERIAL, SHARDED):
        pair = [run_bench(w, seed, quick=True)[0] for w in (SERIAL, SHARDED)]
        same_digest(pair, "%s vs %s, seed %d" % (SERIAL, SHARDED, seed))


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def cycles_per_sec(result):
    return [result["cycles"] / w for w in result["whole_s"]]


def end_to_end(results, rss):
    """End-to-end metrics over the processes of one measured run: each
    a median over every timed call (setup_s: every set-up replay)."""
    return {
        "cycles_per_sec": statistics.median(
            v for r in results for v in cycles_per_sec(r)),
        "setup_s": statistics.median(
            v for r in results for v in r["setup_s"]),
        "peak_rss_mb": statistics.median(rss),
        "setups_per_sec": statistics.median(
            v for r in results for v in r["setups_per_sec"]),
    }


def per_layer(results, bench):
    """Per-layer metrics: the median of every traced run."""
    layers = [layer for r in results for layer in r["layers"]]
    return {m["name"]: statistics.median(layer[m["name"]] for layer in layers)
            for m in bench["per_layer"]}


# ---------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------

def measured_run(args, bench):
    """One measured run of one workload (BENCHMARK.json's command): the
    last stdout line is {correct, attempted, failed, metrics}."""
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise SystemExit("run.py: unknown workload %r (%s)"
                         % (args.workload, ", ".join(names)))
    build()
    expected = load_expected()
    trace = bool(args.trace)
    attempted = failed = 0
    results, rss = [], []
    try:
        attempted += 1
        gate(args.workload, args.seed, expected)
        # A few fresh processes share the run time; each repeats calls.
        procs = max(2, round(args.seconds / 5))
        for _ in range(procs):
            attempted += 1
            r, mb = run_bench(args.workload, args.seed,
                               "trace" if trace else "plain",
                               args.seconds / procs)
            check_result(args.workload, args.seed, r, False, expected)
            results.append(r)
            rss.append(mb)
        same_digest(results, "%s seed %d" % (args.workload, args.seed))
        if trace:
            check_layers(args.workload, results, bench)
    except Failure as e:
        failed += 1
        sys.stderr.write("run.py: FAIL: %s\n" % e)

    metrics = {}
    if not failed:
        if trace:
            values = per_layer(results, bench)
            specs = bench["per_layer"]
        else:
            values = end_to_end(results, rss)
            specs = bench["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in specs}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def host_metadata():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [cxx, "--version"], stdout=subprocess.PIPE,
                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "compiler": compiler,
            "build_type": "Release", "os": platform.platform()}


def git_sha():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               stdout=subprocess.PIPE, text=True).stdout
        return sha + ("-dirty" if dirty.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def suite(args, bench):
    """The full suite (or --quick): returns the process exit code."""
    build()
    expected = load_expected()
    names = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units["setups_per_sec"] = "1/s"
    rounds = 1 if args.quick else args.rounds or SUITE_ROUNDS
    seconds = 0.0 if args.quick else SUITE_SECONDS
    failures = []
    attempts = {w: 0 for w in names}
    fails = {w: 0 for w in names}
    runs = {w: [] for w in names}

    def attempt(workload, fn):
        attempts[workload] += 1
        try:
            return fn()
        except Failure as e:
            fails[workload] += 1
            failures.append(str(e))
            sys.stderr.write("run.py: FAIL: %s\n" % e)
            return None

    for w in names:
        attempt(w, lambda w=w: gate(w, args.seed, expected))
    for k in range(rounds):
        for w in rotated(names, k):
            def one(w=w):
                r, mb = run_bench(w, args.seed, "plain", seconds, args.quick)
                check_result(w, args.seed, r, args.quick, expected)
                return r, mb
            got = attempt(w, one)
            if got:
                r, mb = got
                e2e = end_to_end([r], [mb])
                e2e.update(round=k, digest=r["digest"],
                           calls=len(r["whole_s"]))
                runs[w].append(e2e)
                sys.stderr.write("  round %d %-20s %12.1f cycles/s\n"
                                 % (k, w, e2e["cycles_per_sec"]))

    traced = {}
    for w in names:
        def one(w=w):
            r, _ = run_bench(w, args.seed, "trace", seconds, args.quick)
            check_result(w, args.seed, r, args.quick, expected)
            check_layers(w, [r], bench)
            return r
        r = attempt(w, one)
        if r:
            traced[w] = per_layer([r], bench)
            low = traced[w]["trace.coverage"]
            if low < 0.95:
                failures.append("%s: traced layers cover only %.3f of the "
                                "loop" % (w, low))

    for w in names:
        try:
            same_digest(runs[w], "%s across rounds" % w)
        except Failure as e:
            failures.append(str(e))
    if runs[SERIAL] and runs[SHARDED]:
        try:
            same_digest(runs[SERIAL] + runs[SHARDED],
                        "%s vs %s" % (SERIAL, SHARDED))
        except Failure as e:
            failures.append(str(e))

    record = {
        "date": datetime.date.today().isoformat(),
        "git_sha": git_sha(),
        "host": host_metadata(),
        "config": {"rounds": rounds, "seconds_per_run": seconds,
                   "seed": args.seed, "quick": args.quick},
        "workloads": {},
        "failures": failures,
    }
    print("\nEnd-to-end metrics (median [q1, q3] over fresh-process runs)")
    for w in names:
        metrics = {}
        for name in [m["name"] for m in bench["end_to_end"]] + (
                ["setups_per_sec"] if w == CHURN else []):
            values = [r[name] for r in runs[w]]
            if values:
                metrics[name] = dict(summary(values), unit=units[name])
        fail_frac = fails[w] / attempts[w] if attempts[w] else 0.0
        record["workloads"][w] = {"runs": runs[w], "end_to_end": metrics,
                                  "fail_frac": fail_frac,
                                  "per_layer": traced.get(w, {})}
        print("  %s" % w)
        for name, s in metrics.items():
            print("    %-16s %14.6g %-8s [%.6g, %.6g]  n=%d"
                  % (name, s["median"], s["unit"], s["q1"], s["q3"], s["n"]))
        print("    %-16s %14.6g         (%d of %d runs failed)"
              % ("fail_frac", fail_frac, fails[w], attempts[w]))

    ratios = [s["cycles_per_sec"] / p["cycles_per_sec"]
              for p, s in zip(runs[SERIAL], runs[SHARDED])]
    if ratios:
        record["x4_over_serial"] = summary(ratios)
        s = record["x4_over_serial"]
        print("  %s / %s cycles_per_sec: %.3f [%.3f, %.3f]  n=%d"
              % (SHARDED, SERIAL, s["median"], s["q1"], s["q3"], s["n"]))

    print("\nPer-layer metrics (one traced run per workload)")
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print("  %-32s %-6s " % ("metric", "unit")
          + " ".join("%14s" % w[:14] for w in names))
    for name, unit in layer_units.items():
        form = "%14d" if unit in ("count", "B") else "%14.6g"
        print("  %-32s %-6s " % (name, unit)
              + " ".join(form % traced[w][name] if w in traced
                         else "%14s" % "-" for w in names))

    out = args.out or os.path.join(
        HERE, "out", "%s-%s%s.json" % (record["date"], record["git_sha"][:12],
                                       "-quick" if args.quick else ""))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print("\nrecord written to %s" % os.path.relpath(out, ROOT))
    if failures:
        print("CORRECTNESS FAILURES:\n  " + "\n  ".join(failures))
        return 1
    return 0


def verdict_table(old_runs, new_runs, bench, interleaved):
    """Print, per workload and end-to-end metric, both medians and
    quartiles, the share of pairs won and the verdict.  *_runs map a
    workload to its list of per-run metric dicts.  Returns 1 if any
    metric regressed, else 0."""
    print("%-20s %-15s %33s %33s %6s  %s"
          % ("workload", "metric", "old median [q1, q3]",
             "new median [q1, q3]", "won", "verdict"))
    worst = 0
    for w in [x["name"] for x in bench["workloads"]]:
        for m in bench["end_to_end"]:
            a = [r[m["name"]] for r in old_runs.get(w, [])]
            b = [r[m["name"]] for r in new_runs.get(w, [])]
            if not a or not b:
                continue
            v, won = verdict(a, b, m["better"], m["bound"], interleaved)
            sa, sb = summary(a), summary(b)
            print("%-20s %-15s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g]"
                  " %6s  %s"
                  % (w, m["name"], sa["median"], sa["q1"], sa["q3"],
                     sb["median"], sb["q1"], sb["q3"],
                     "-" if won is None else "%.0f%%" % (100 * won), v))
            if v == "regressed":
                worst = 1
    return worst


def compare_records(old_path, new_path, bench):
    """Do two suite records agree?  Their runs were made at different
    times, so they are not paired and never show 'improved'."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if old["config"] != new["config"]:
        sys.stderr.write("run.py: the records were made with different "
                         "settings: %s vs %s\n" % (old["config"],
                                                   new["config"]))
        return 2
    print("old: %s %s\nnew: %s %s\n(records made at different times: "
          "not paired)"
          % (old["git_sha"], old["date"], new["git_sha"], new["date"]))
    runs = [{w: rec["workloads"][w]["runs"] for w in rec["workloads"]}
            for rec in (old, new)]
    return verdict_table(runs[0], runs[1], bench, interleaved=False)


def ab(old_tree, new_tree, rounds, seed, bench):
    """Same-host A/B of two checkouts.  This benchmark/ is built against
    each side's sources, so both sides run identical benchmark code.
    Every round runs every workload once per side, back to back, with
    the side that goes first alternating; each run is one SUITE_SECONDS
    process.  Returns the exit code."""
    if rounds < MIN_PAIRS:
        sys.stderr.write("run.py: an A/B needs at least %d pairs\n"
                         % MIN_PAIRS)
        return 2
    binaries = {}
    for side, tree in (("old", old_tree), ("new", new_tree)):
        tree = os.path.abspath(tree)
        if not (os.path.isfile(os.path.join(tree, "CMakeLists.txt"))
                and os.path.isdir(os.path.join(tree, "src"))):
            sys.stderr.write("run.py: %s is not a checkout of the "
                             "repository\n" % tree)
            return 2
        binaries[side] = build(os.path.join(BUILD, "ab-" + side), tree)
    names = [w["name"] for w in bench["workloads"]]
    runs = {side: {w: [] for w in names} for side in binaries}
    digests = {side: {} for side in binaries}
    try:
        for k in range(rounds):
            for w in rotated(names, k):
                for side in ("old", "new") if k % 2 == 0 else ("new", "old"):
                    r, mb = run_bench(w, seed, "plain", SUITE_SECONDS,
                                      binary=binaries[side])
                    check_model(w, r["model"])
                    digests[side].setdefault(w, set()).add(r["digest"])
                    runs[side][w].append(end_to_end([r], [mb]))
                sys.stderr.write("  pair %d %-20s done\n" % (k, w))
    except Failure as e:
        sys.stderr.write("run.py: FAIL: %s\n" % e)
        return 1
    print("old: %s\nnew: %s\n%d interleaved pairs of %g s runs, seed %d"
          % (old_tree, new_tree, rounds, SUITE_SECONDS, seed))
    for w in names:
        if any(len(d[w]) > 1 for d in digests.values()):
            sys.stderr.write("run.py: FAIL: %s digests differ between runs "
                             "of one side\n" % w)
            return 1
        if digests["old"][w] != digests["new"][w]:
            print("note: %s digests differ, so the two sides simulate "
                  "different work" % w)
    return verdict_table(runs["old"], runs["new"], bench, interleaved=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one measured run of this workload")
    p.add_argument("--seed", type=int, default=PIN_SEED)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time of one --workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics instead")
    p.add_argument("--rounds", type=int,
                   help="fresh-process runs per workload: the suite's "
                   "rounds (default %d) or the A/B's pairs (default %d)"
                   % (SUITE_ROUNDS, MIN_PAIRS))
    p.add_argument("--quick", action="store_true",
                   help="tiny cycle counts, one round, every check")
    p.add_argument("--out", help="full suite: record path")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="two checkouts (interleaved A/B) or two suite "
                   "records")
    args = p.parse_args(argv)

    if os.environ.get("MMR_INVARIANTS") is not None:
        sys.stderr.write("run.py: MMR_INVARIANTS is set; unset it so the "
                         "default configuration is measured\n")
        return 2
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: the repository sources (CMakeLists.txt, "
                         "src/) are not next to benchmark/\n")
        return 2
    bench = load_benchmark()
    if args.compare:
        old, new = args.compare
        if os.path.isdir(old) and os.path.isdir(new):
            return ab(old, new, args.rounds or MIN_PAIRS, args.seed, bench)
        if os.path.isfile(old) and os.path.isfile(new):
            return compare_records(old, new, bench)
        sys.stderr.write("run.py: --compare takes two checkouts or two "
                         "records\n")
        return 2
    if args.workload:
        return measured_run(args, bench)
    return suite(args, bench)


if __name__ == "__main__":
    sys.exit(main())
