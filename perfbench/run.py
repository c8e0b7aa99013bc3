#!/usr/bin/env python3
"""The repository benchmark: pnut's Figure-5 pipeline and its two
reachability builders, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/pbench.exe with dune,
writes the workload's model under perfbench/.work/, then repeats the
workload, each run in fresh processes, for S seconds.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced runs and reports the per-layer
metrics.  Readable lines come first; the last line of stdout is one JSON
object.  Exit status 0 means every run was measured (a failed output check
is counted, not fatal).  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = "perfbench"
EXE = os.path.join("_build", "default", BENCH, "pbench.exe")
WORK = os.path.join(BENCH, ".work")

# Host speed.  Every run is bracketed by two `pbench calib` processes, a
# fixed load that calls no pnut code, on as many domains as the workload
# uses.  The end-to-end medians are scaled by CALIB_REF_S over the median
# calibration time of the invocation, so they read as seconds on a host
# where that load takes CALIB_REF_S: drift in the host's speed between
# benchmark invocations cancels out.  Pairing each run with its own
# calibrations would add the calibration's own noise to every sample.
CALIB_REF_S = 0.25

# Every run must end well inside the 180 s a benchmark invocation may take.
HARD_LIMIT_S = 170.0

# Why each workload is here, and which layers it bypasses, is recorded in
# BENCHMARK.json and perfbench/README.md.  The reachability workloads have
# no seeded input: the seed only varies the simulator run of fig5_pipe.
WORKLOADS = {
    "fig5_pipe": {
        "kind": "fig5",
        "domains": 1,
        "model": ["pipeline"],
        "until": 1e6,
        "bus_sum": 1.0,
        "issue_band": (0.09, 0.15),
        "bypass": ("reach.", "stubborn.", "store.", "timed.",
                   "exec.build_s_jobs1", "exec.speedup_jobs2"),
    },
    "reach_ring": {
        "kind": "reach",
        "domains": 2,
        "model": ["ring", "--tokens", "17"],
        # C(25, 8) markings; 9 * C(24, 8) edges; the ring never deadlocks
        "expect": {"states": 1081575, "edges": 6619239, "deadlocks": 0,
                   "store": "packed"},
        "bypass": ("sim.", "trace.", "stat.", "timed."),
    },
    "reach_timed": {
        "kind": "timed",
        "domains": 2,
        "model": ["pipeline", "--memory-cycles", "50", "--buffer-words", "48"],
        "expect": {"states": 8610, "edges": 19653, "vectors": 200959,
                   "store": "packed"},
        "bypass": ("sim.", "trace.", "stat.", "stubborn.", "reach."),
    },
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    """Builds the harness from the checkout's sources."""
    for need in ("dune-project", "lib", os.path.join(BENCH, "dune")):
        if not os.path.exists(need):
            fail("no %s here: run from the root of a pnut checkout" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    r = subprocess.run(["dune", "build", "--root", ".", "./" + EXE],
                       stdout=sys.stderr, stderr=sys.stderr,
                       stdin=subprocess.DEVNULL)
    if r.returncode != 0:
        fail("building %s failed" % EXE)


class Child:
    """One finished pbench process: status, wall time, peak RSS, result."""

    def __init__(self, args, timeout_s):
        out_path = os.path.join(WORK, "child.out")
        err_path = os.path.join(WORK, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([EXE] + args, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.result = None
        with open(out_path, "rb") as f:
            for line in f.read().decode("utf-8", "replace").splitlines():
                if line.startswith("@@pbench "):
                    self.result = json.loads(line[len("@@pbench "):])
        with open(err_path, "rb") as f:
            self.stderr = f.read().decode("utf-8", "replace")

    @property
    def ok(self):
        return self.rc == 0 and self.result is not None and self.result["ok"]


# Per-layer metrics that more than one process of a run reports (the
# three of fig5_pipe) are summed, except these, which take the largest.
LARGEST = ("gc.top_heap_mb", "gc.live_mb")


class Run:
    """One run of a workload: its processes, one after another, between
    two calibration processes."""

    def __init__(self, commands, domains, deadline):
        calib = ["calib", "--domains", str(domains)]
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.setup_s = 0.0
        self.extra_s = 0.0
        self.per_layer = {}
        self.ok = True
        self.calib_s = []
        for args in [calib] + commands + [calib]:
            child = Child(args, deadline - time.monotonic())
            if not child.ok:
                self.ok = False
                sys.stderr.write("run.py: %s exited %d\n%s"
                                 % (args[0], child.rc, child.stderr[-2000:]))
                break
            if args is calib:
                self.calib_s.append(child.wall_s)
                continue
            self.wall_s += child.wall_s
            self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)
            self.setup_s += child.result.get("setup_s", 0.0)
            self.extra_s += child.result.get("extra_s", 0.0)
            for name, value in child.result.get("metrics", {}).items():
                if name in self.per_layer:
                    value = (max if name in LARGEST else sum)(
                        (self.per_layer[name], value))
                self.per_layer[name] = value


def commands(w, model, seed, traced=False):
    """The pbench processes of one run of workload [w].  Traced, each
    writes its spans to its own file under WORK."""
    def spans(name):
        return (["--spans", os.path.join(WORK, "spans.%s.json" % name)]
                if traced else [])
    if w["kind"] == "fig5":
        sim = ["--seed", str(seed), "--until", repr(w["until"])]
        binary = os.path.join(WORK, "trace.bin")
        text = os.path.join(WORK, "trace.txt")
        stat = ["stat", text, "--bus-sum", repr(w["bus_sum"]),
                "--issue-band", "%r,%r" % w["issue_band"]] + spans("stat")
        if traced:  # the last process replays the layers of all three
            stat += ["--model", model, "--bin", binary] + sim
        return [["sim", model] + sim + ["-o", binary] + spans("sim"),
                ["filter", binary, "-o", text] + spans("filter"),
                stat]
    args = [w["kind"], model]
    for key, value in w["expect"].items():
        args += ["--" + key, str(value)]
    return [args + spans(w["kind"])]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary_line(name, values, unit, scale=1.0):
    med = statistics.median(values) * scale
    q1, q3 = quartiles(values)
    print("  %-26s %14.6g %-8s q1 %.6g  q3 %.6g  n=%d"
          % (name, med, unit, q1 * scale, q3 * scale, len(values)))
    return med


def measure(w, seed, seconds, trace, units):
    """Runs workload [w] for [seconds] and returns the result object."""
    if os.path.isdir(WORK):
        shutil.rmtree(WORK)
    os.makedirs(WORK)
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    model = os.path.join(WORK, "model.pn")
    gen = Child(["model"] + w["model"] + ["-o", model], 60.0)
    if not gen.ok:
        fail("model generation failed:\n" + gen.stderr)
    plain = commands(w, model, seed)
    traced = commands(w, model, seed, traced=True)

    def run(cmds):
        return Run(cmds, w["domains"], hard_deadline)

    # Every run is fresh processes, and generating the model has already
    # loaded pbench, so there is no warm-up run.
    # Runs stop when one more, as long as the last, would end after
    # --seconds.
    measured, traced_runs = [], []
    stop = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        measured.append(run(plain))
        if trace:
            traced_runs.append(run(traced))
        end = time.monotonic()
        if end + (end - start) > stop:
            break
    runs = measured + traced_runs
    failed = sum(1 for r in runs if not r.ok)

    metrics = {}
    if not trace:
        calib_s = [t for r in measured for t in r.calib_s]
        if not calib_s:  # every measured run failed before its calibration
            calib_s = [CALIB_REF_S]
        scale = CALIB_REF_S / statistics.median(calib_s)
        print("end to end, %d runs measured for %ds;"
              " times scaled by %.6g to host speed:"
              % (len(measured), seconds, scale))
        summary_line("(calibration)", calib_s, "s")
        summary_line("(wall_s unscaled)", [r.wall_s for r in measured], "s")
        for name, values, k in (
                ("wall_s", [r.wall_s for r in measured], scale),
                ("peak_rss_mb", [r.peak_rss_mb for r in measured], 1.0),
                ("setup_s", [r.setup_s for r in measured], scale)):
            metrics[name] = summary_line(name, values, units[name], k)
        print("  %-26s %14.6g %-8s (%d of %d runs failed)"
              % ("error_rate", failed / len(runs), "share", failed, len(runs)))
        metrics["pass_rate"] = 1.0 - failed / len(runs)
    else:
        print("per layer, %d traced runs (medians):" % len(traced_runs))
        for name in units:
            values = [r.per_layer[name] for r in traced_runs
                      if name in r.per_layer]
            if values:
                metrics[name] = summary_line(name, values, units[name])
            elif name.startswith(w["bypass"]):
                metrics[name] = 0.0  # the workload never calls this layer
        traced_wall = [r.wall_s - r.extra_s for r in traced_runs]
        untraced_wall = [r.wall_s for r in measured]
        metrics["bench.traced_wall_s"] = summary_line(
            "bench.traced_wall_s", traced_wall, "s")
        metrics["bench.untraced_wall_s"] = summary_line(
            "bench.untraced_wall_s", untraced_wall, "s")
        metrics["bench.tracing_overhead"] = (
            metrics["bench.traced_wall_s"] / metrics["bench.untraced_wall_s"])
        print("  %-26s %14.6g" % ("bench.tracing_overhead",
                                  metrics["bench.tracing_overhead"]))
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s"
             % (missing, extra))
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args(argv)
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    end_to_end, per_layer = load_spec()
    result = measure(WORKLOADS[a.workload], a.seed, a.seconds, a.trace,
                     per_layer if a.trace else end_to_end)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
