#!/usr/bin/env python3
"""Compares two saved benchmark reports (written by run.py under
<build dir>/reports/).

  python3 perfbench/compare.py BASE.json NEW.json

Runs whose environment stamps differ (nproc, CPU model, compiler, build
type) are reported as incomparable and get no verdict. Otherwise each
metric is listed with its change; end-to-end metrics that got worse by
more than their BENCHMARK.json bound are marked, and differing output
digests are reported. A single pair of runs is evidence, not a verdict:
the bounds are meant for medians over several seeds.
Exit status: 0 comparable, 3 incomparable.
"""

import json
import os
import sys

from run import COMPARABLE

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    differ = [k for k in COMPARABLE if base["env"].get(k) != new["env"].get(k)]
    if differ:
        print("INCOMPARABLE: environments differ in " + ", ".join(
            "%s (%s vs %s)" % (k, base["env"].get(k), new["env"].get(k))
            for k in differ))
        return 3
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("INCOMPARABLE: different workload or trace mode")
        return 3
    specs = load_bounds()
    print("%s trace=%d: seeds %s vs %s" % (base["workload"], base["trace"],
                                           base["seed"], new["seed"]))
    print("output digest: %s" % ("identical" if base["digest"] == new["digest"]
                                 else "DIFFERS (%s vs %s)" % (
                                     base["digest"], new["digest"])))
    for name, m in new["metrics"].items():
        a = base["metrics"].get(name, {}).get("value")
        b = m["value"]
        if a is None:
            print("  %-34s new metric %g %s" % (name, b, m["unit"]))
            continue
        change = (b - a) / a if a else 0.0
        spec = specs.get(name, {})
        verdict = ""
        if "bound" in spec:
            worse = -change if spec["better"] == "higher" else change
            verdict = "WORSE than bound %.3f" % spec["bound"] \
                if worse > spec["bound"] else "within bound"
        print("  %-34s %12.6g -> %-12.6g %+7.2f%%  %s" % (
            name, a, b, 100 * change, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
