#!/usr/bin/env python3
"""The benchmark's own test: every workload at a small size.

    python3 perfbench/test.py

Run it from the repository root.  Each workload runs once with its correct
expected values and must pass; then once per output check with that one
expected value wrong, and must fail on that check.  Finally run.py's
measurement runs each small workload for a second, untraced and traced, and
must report every metric of BENCHMARK.json.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = {
    "fig5_pipe": dict(run.WORKLOADS["fig5_pipe"], until=2e4),
    # C(14, 8) markings and 9 * C(13, 8) edges
    "reach_ring": dict(run.WORKLOADS["reach_ring"],
                       model=["ring", "--tokens", "6"],
                       expect={"states": 3003, "edges": 11583, "deadlocks": 0,
                               "store": "packed"}),
    "reach_timed": dict(run.WORKLOADS["reach_timed"],
                        model=["pipeline", "--memory-cycles", "10"],
                        expect={"states": 914, "edges": 1903, "vectors": 5167,
                                "store": "packed"}),
}

# One wrong expectation per check, and the words its failure must print.
WRONG = {
    "fig5_pipe": [({"bus_sum": 2.0}, "Bus_busy + Bus_free"),
                  ({"issue_band": (0.5, 0.6)}, "Issue throughput")],
    "reach_ring": [({"states": 3004}, "states, expected"),
                   ({"edges": 11582}, "edges, expected"),
                   ({"deadlocks": 1}, "deadlocks, expected"),
                   ({"store": "boxed"}, "store"),
                   ({"max-states": 100}, "stopped early")],
    "reach_timed": [({"states": 913}, "classes, expected"),
                    ({"edges": 1904}, "edges, expected"),
                    ({"vectors": 5168}, "vectors, expected"),
                    ({"store": "boxed"}, "store"),
                    ({"max-states": 100}, "stopped early")],
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def with_wrong(w, change):
    """Workload [w] with one expectation replaced."""
    w = dict(w)
    if w["kind"] == "fig5":
        w.update(change)
    else:
        w["expect"] = dict(w["expect"], **change)
    return w


def run_once(w, model):
    """The processes of one untraced run; the last one's Child."""
    child = None
    for args in run.commands(w, model, 1):
        child = run.Child(args, 120.0)
        if not child.ok:
            break
    return child


def main():
    run.build()
    end_to_end, per_layer = run.load_spec()
    for name, w in SMALL.items():
        os.makedirs(run.WORK, exist_ok=True)
        model = os.path.join(run.WORK, "model.pn")
        check(run.Child(["model"] + w["model"] + ["-o", model], 60.0).ok,
              "%s: model generated" % name)
        check(run_once(w, model).ok, "%s: correct expectations pass" % name)
        for change, words in WRONG[name]:
            child = run_once(with_wrong(w, change), model)
            check(child.rc == 1 and words in child.stderr,
                  "%s: wrong %s fails (exit %d)" % (name, change, child.rc))
        for trace, units in ((0, end_to_end), (1, per_layer)):
            result = run.measure(w, 7, 1, trace, units)
            check(result["correct"] and result["failed"] == 0
                  and set(result["metrics"]) == set(units),
                  "%s: measured with --trace %d" % (name, trace))
    if failures:
        print("%d checks failed" % len(failures))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
