#!/usr/bin/env python3
"""End-to-end benchmark of the gossip scenario engine.

Builds the layer libraries and bench/e2e/gossip_bench in Release into
build-bench/, runs the workloads in bench/e2e/workloads/ through
scenario::ScenarioRunner::run (one fresh process per execution), checks
every result CSV against bench/e2e/reference/, and prints each metric as
`workload metric value unit`. Outputs go to bench-out/.

One workload, measured for a fixed time (the last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`):

    python3 bench/e2e/run.py --workload flat_grid --seed 7 --seconds 20
                             --trace 0

`--trace 0` reports the end-to-end metrics. `--trace 1` pairs each
execution with a `gossip_bench trace` one, reports the per-layer metrics,
and writes the spans to bench-out/trace/<workload>.json (open it in
chrome://tracing or Perfetto).

Every workload, interleaved round-robin, with median and quartiles:

    python3 bench/e2e/run.py [--seed S] [--runs 5] [--threads 2] [--sets 1]
                             [--out bench-out/results.json] [--quick]

`--quick` is one round with repetitions cut tenfold (under 30 s once
built); its numbers are a smoke test, not a baseline.
"""

import argparse
import csv
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
OUT = os.path.join(ROOT, "bench-out")
BENCH = os.path.join(BUILD, "gossip_bench")

# Executions per measurement: at least MIN_EXECS untraced ones (timed
# metrics are their medians), after set-up probes that repeat until
# MIN_PROBES (MIN_TRACED_PROBES pairs when tracing) are done and, while
# cheap, up to MAX_PROBES.
MIN_EXECS = 3
MIN_PROBES = 3
MIN_TRACED_PROBES = 2
MAX_PROBES = 9
PROBE_SHARE = 0.1  # of --seconds that cheap probes may take

# Reference check. A run at any seed must agree with the committed
# reference (the same spec at its default seed, ten times the repetitions)
# within K_SIGMA standard errors of the difference of the two means, and
# never narrower than compare_result_csvs' default reliability tolerance.
# The per-replication spread comes from the reference's own CI, so a broken
# run cannot widen its own band. The mean-field prediction is deterministic
# and seed-free, so it must match almost exactly.
K_SIGMA = 5.0
RELIABILITY_FLOOR = 0.03
MEANFIELD_TOLERANCE = 1e-4
Z95 = 1.959963984540054

# Workloads and metric sets as BENCHMARK.json declares them: end-to-end
# metrics are reported with --trace 0, per-layer ones with --trace 1.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in DECLARED["per_layer"]]
# Printed and recorded but not declared: the replication-time tail, whose
# run-to-run spread on a shared host exceeds any bound BENCHMARK.json admits,
# and layers only some workloads reach (a per-layer metric must exist on
# every workload).
EXTRA_UNITS = {
    "rep_ms_tail": "ms",
    "graph.overlay_build_s": "s",
    "graph.overlay_edges": "count",
    "graph.overlay_mb": "MB",
    "membership.csr_validate_ms": "ms",
    "flat.ctor_ms": "ms",
    "flat.workspace_mb": "MB",
    "des.churn_events_per_rep": "count",
    "math.meanfield_us": "us",
}
TAIL_LADDER = [50, 75, 80, 87.5, 90, 95, 97.5, 99, 99.5, 99.9, 99.95, 99.99]


class BenchError(Exception):
    pass


def run_child(argv, timeout):
    """Runs a child to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError("timed out: " + " ".join(argv)) from e


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ next to bench/e2e; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gossip_bench",
                  "-j", "2"])
    for argv in steps:
        proc = run_child(argv, timeout=850)
        if proc.returncode != 0:
            raise BenchError("build failed:\n" + proc.stdout[-4000:] +
                             proc.stderr[-4000:])


def bench(mode, workload, seed, threads, csv_path, overrides=(), extra=()):
    argv = [BENCH, mode, spec_path(workload), "--seed", str(seed),
            "--threads", str(threads), "--csv", csv_path]
    for item in overrides:
        argv += ["--set", item]
    proc = run_child(argv + list(extra), timeout=170)
    if proc.returncode != 0:
        raise BenchError("gossip_bench %s %s failed (exit %d):\n%s" %
                         (mode, workload, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["build_type"] != "Release":
        raise BenchError("refusing to time a '%s' build of gossip_bench; "
                         "configure build-bench/ as Release" %
                         result["build_type"])
    return result


def spec_path(workload):
    return os.path.join(HERE, "workloads", workload + ".scn")


def spec_field(workload, key):
    with open(spec_path(workload)) as f:
        match = re.search(r"^%s\s*=\s*(\S+)" % re.escape(key), f.read(), re.M)
    return int(match.group(1))


def load_rows(path):
    with open(path, newline="") as f:
        return {(r["scenario"], r["case"], r["metric"]): r
                for r in csv.DictReader(f)}


def check_reference(workload, csv_path):
    """Returns (rows, failed rows) of one result CSV against the reference."""
    reference = load_rows(os.path.join(HERE, "reference", workload + ".csv"))
    result = load_rows(csv_path)
    failed = 0
    for key in reference.keys() | result.keys():
        ref, res = reference.get(key), result.get(key)
        if ref is None or res is None:
            failed += 1
            continue
        n_ref = int(ref["replications"])
        n_run = int(res["replications"])
        se_ref = (float(ref["reliability_ci_hi"]) -
                  float(ref["reliability_ci_lo"])) / (2 * Z95)
        sigma = se_ref * math.sqrt(n_ref) * math.sqrt(1 / n_run + 1 / n_ref)
        allowed = max(RELIABILITY_FLOOR, K_SIGMA * sigma)
        ok = abs(float(res["reliability_mean"]) -
                 float(ref["reliability_mean"])) <= allowed
        mf_ref = ref["meanfield_reliability"]
        mf_res = res["meanfield_reliability"]
        if mf_ref or mf_res:
            ok = ok and bool(mf_ref and mf_res) and \
                abs(float(mf_ref) - float(mf_res)) <= MEANFIELD_TOLERANCE
        failed += 0 if ok else 1
    return len(reference.keys() | result.keys()), failed


def percentile(values, p):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples beyond it."""
    return max(p for p in TAIL_LADDER if samples * (100 - p) / 100 >= 10
               or p == TAIL_LADDER[0])


def quick_overrides(workload, quick):
    if not quick:
        return []
    reps = max(2, spec_field(workload, "repetitions") // 10)
    return ["repetitions=%d" % reps]


class Measurement:
    """Raw samples of one workload at one seed, plus the output check."""

    def __init__(self, workload, seed, threads, quick):
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.overrides = quick_overrides(workload, quick)
        self.dir = os.path.join(OUT, "runs", workload)
        os.makedirs(self.dir, exist_ok=True)
        self.setup = []
        self.setup_named = []
        self.wall = []
        self.rss = []
        self.rep_seconds = []  # one list per execution
        self.layers = []
        self.overhead = []
        self.attempted = 0
        self.failed = 0
        self.first_csv = None
        self.compare = None
        self.compiler = ""

    def path(self, name):
        return os.path.join(self.dir, name)

    def probes(self, budget, trace):
        """Set-up probes: one replication on one thread, so wall time minus
        the replication is set-up. When tracing, each is paired with a
        traced probe whose named spans are held against that set-up."""
        start = time.monotonic()
        least = MIN_TRACED_PROBES if trace else MIN_PROBES
        overrides = self.overrides + ["repetitions=1"]
        while len(self.setup) < least or (
                len(self.setup) < MAX_PROBES and
                time.monotonic() - start < budget):
            result = bench("run", self.workload, self.seed, 1,
                           self.path("probe.csv"), overrides)
            self.setup.append(result["wall_s"] - sum(result["rep_s"]))
            if trace:
                traced = self.trace_call(1, "probe.csv", "traced_probe.csv",
                                         overrides, ".probe")
                self.setup_named.append(traced["setup_named_s"])

    def trace_call(self, threads, mirror, name, overrides, suffix=""):
        return bench("trace", self.workload, self.seed, threads,
                     self.path(name), overrides,
                     ["--mirror", self.path(mirror), "--trace-json",
                      os.path.join(OUT, "trace",
                                   self.workload + suffix + ".json")])

    def execute(self):
        """One untraced execution; returns its wall seconds."""
        csv_path = self.path("exec.csv")
        result = bench("run", self.workload, self.seed, self.threads,
                       csv_path, self.overrides)
        self.compiler = result["compiler"]
        self.wall.append(result["wall_s"])
        self.rss.append(result["peak_rss_bytes"] / 2**20)
        self.rep_seconds.append(result["rep_s"])
        self.check(csv_path)
        return result["wall_s"]

    def check(self, csv_path):
        """Every execution at one seed must write the same CSV; the first is
        also held against the reference."""
        with open(csv_path) as f:
            text = f.read()
        if self.first_csv is None:
            self.first_csv = text
            self.compare = check_reference(self.workload, csv_path)
        rows, failed = self.compare
        self.attempted += rows
        self.failed += failed if text == self.first_csv else rows

    def traced(self, untraced_wall):
        """A traced execution mirroring the last untraced one. Its overhead
        leaves out the calls only the traced path makes (the explicit CSR
        validation and engine construction)."""
        result = self.trace_call(self.threads, "exec.csv", "traced.csv",
                                 self.overrides)
        self.check(self.path("traced.csv"))
        self.layers.append(result)
        self.overhead.append(
            (result["traced_wall_s"] - result["traced_only_s"]) /
            untraced_wall - 1)

    def end_to_end(self):
        """Medians over executions. The tail is taken per execution, at the
        highest percentile with ten of its replications beyond it, so one
        disturbed execution cannot move it."""
        reps = len(self.rep_seconds[0])
        tail = tail_percentile(reps)
        self.tail = "p%g of the %d replications of each execution" % (
            tail, reps)
        return {
            "wall_s": statistics.median(self.wall),
            "reps_per_s": statistics.median(reps / w for w in self.wall),
            "setup_s": statistics.median(self.setup),
            "rep_ms_p50": statistics.median(
                statistics.median(r) for r in self.rep_seconds) * 1e3,
            "rep_ms_tail": statistics.median(
                percentile(r, tail) for r in self.rep_seconds) * 1e3,
            "peak_rss_mb": statistics.median(self.rss),
        }

    def per_layer(self):
        keys = [k for k in self.layers[0] if k in dict(PER_LAYER) or
                k in EXTRA_UNITS or k.startswith("self_s.")]
        metrics = {k: statistics.median(layer[k] for layer in self.layers)
                   for k in keys}
        metrics["obs.trace_overhead"] = statistics.median(self.overhead)
        metrics["obs.setup_attributed"] = (
            statistics.median(self.setup_named) /
            statistics.median(self.setup))
        return metrics


def measure(workload, seed, threads, seconds, trace, quick,
            min_execs=MIN_EXECS):
    """Set-up probes, then executions until `seconds` have passed."""
    m = Measurement(workload, seed, threads, quick)
    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    start = time.monotonic()
    m.probes(PROBE_SHARE * seconds, trace)
    while True:
        wall = m.execute()
        if trace:
            m.traced(wall)
        if (len(m.wall) >= min_execs and
                time.monotonic() - start >= seconds):
            return m


def unit_of(name):
    return (dict(END_TO_END).get(name) or dict(PER_LAYER).get(name) or
            EXTRA_UNITS.get(name) or "s")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = run_child(["git", "-C", ROOT, "rev-parse", "HEAD"], timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, compiler, runs):
    return {
        "nproc": os.cpu_count(),
        "threads": args.threads,
        "compiler": compiler,
        "cmake_build_type": "Release",
        "git_rev": git_rev(),
        "seed": "workload default" if args.seed is None else args.seed,
        "runs": runs,
        "quick": args.quick,
    }


def write_json(path, payload):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def single(args):
    """One workload at one seed; the last stdout line is the JSON result."""
    m = measure(args.workload, args.seed, args.threads, args.seconds,
                args.trace, args.quick,
                min_execs=2 if args.trace else MIN_EXECS)
    metrics = m.per_layer() if args.trace else m.end_to_end()
    for name in sorted(metrics):
        print("%s %s %.9g %s" % (args.workload, name, metrics[name],
                                 unit_of(name)))
    if not args.trace:
        print("%s rep_ms_tail is the %s" % (args.workload, m.tail))
    print("%s fail_frac %.9g ratio" % (args.workload,
                                      m.failed / max(m.attempted, 1)))
    declared = PER_LAYER if args.trace else END_TO_END
    write_json(os.path.join(OUT, "results", "%s-trace%d.json" %
                            (args.workload, args.trace)),
               {"environment": environment(args, m.compiler, len(m.wall)),
                "workload": args.workload, "metrics": metrics,
                "attempted": m.attempted, "failed": m.failed,
                "wall_s": m.wall, "setup_s": m.setup,
                "rep_s": m.rep_seconds})
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_set(args):
    """--runs rounds over every workload, then one traced pass each."""
    execs = 1 if args.quick else MIN_EXECS
    runs = {w: [] for w in WORKLOADS}
    for _ in range(args.runs):
        for w in WORKLOADS:
            runs[w].append(measure(w, seed_of(args, w), args.threads, 0,
                                   False, args.quick, min_execs=execs))
    summary = {}
    for w in WORKLOADS:
        traced = measure(w, seed_of(args, w), args.threads, 0, True,
                         args.quick, min_execs=1)
        rounds = [m.end_to_end() for m in runs[w]]
        metrics = {}
        for name in rounds[0]:
            values = [r[name] for r in rounds]
            q1, median, q3 = quartiles(values)
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "values": values}
        for name, value in traced.per_layer().items():
            metrics[name] = {"traced": value}
        measured = runs[w] + [traced]
        summary[w] = {"metrics": metrics, "rep_ms_tail": runs[w][0].tail,
                      "attempted": sum(m.attempted for m in measured),
                      "failed": sum(m.failed for m in measured)}
    return summary, traced.compiler


def seed_of(args, workload):
    """--seed, or the workload's own default seed from its spec."""
    return spec_field(workload, "seed") if args.seed is None else args.seed


def write_references(args):
    """Regenerates reference/<workload>.csv: the spec at its default seed
    with ten times its repetitions."""
    for w in WORKLOADS:
        fresh = os.path.join(OUT, "reference", w + ".csv")
        os.makedirs(os.path.dirname(fresh), exist_ok=True)
        bench("run", w, spec_field(w, "seed"), args.threads, fresh,
              ["repetitions=%d" % (10 * spec_field(w, "repetitions"))])
        with open(fresh) as f:
            text = f.read()
        with open(os.path.join(HERE, "reference", w + ".csv"), "w") as f:
            f.write(text)
        print("reference/%s.csv written" % w)
    return 0


def all_workloads(args):
    sets = []
    for _ in range(args.sets):
        summary, compiler = one_set(args)
        sets.append(summary)
    for i, summary in enumerate(sets):
        suffix = "  set %d" % (i + 1) if args.sets > 1 else ""
        for w in WORKLOADS:
            for name, stats in summary[w]["metrics"].items():
                if "median" in stats:
                    print("%s %s %.6g %s  [q1 %.6g, q3 %.6g]%s" % (
                        w, name, stats["median"], unit_of(name), stats["q1"],
                        stats["q3"], suffix))
                else:
                    print("%s %s %.6g %s  (traced)%s" % (
                        w, name, stats["traced"], unit_of(name), suffix))
            print("%s fail_frac %.6g ratio%s" % (
                w, summary[w]["failed"] / summary[w]["attempted"], suffix))
    failed = sum(s[w]["failed"] for s in sets for w in WORKLOADS)
    attempted = sum(s[w]["attempted"] for s in sets for w in WORKLOADS)
    write_json(args.out, {"environment": environment(args, compiler, args.runs),
                          "sets": sets})
    print("results: %s (%d of %d rows failed the reference check)" %
          (os.path.relpath(args.out, ROOT), failed, attempted))
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"))
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args()
    if args.quick:
        args.runs = 1
    try:
        build()
        if args.write_references:
            return write_references(args)
        if args.workload:
            args.seed = seed_of(args, args.workload)
            single(args)
            return 0
        return all_workloads(args)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
