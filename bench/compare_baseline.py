#!/usr/bin/env python3
"""Compare bench artifacts against last-known-good baselines.

Reads bench/baselines.json and, for each metric, extracts a value from a
bench artifact (BENCH_sweep.json / BENCH_service.json) by dotted path --
`a.b.c`, with `[3]` for array indices and `[key=value]` for searching an
array of objects -- and checks it against the metric's bounds:

  * `equals`: the value must equal this exactly (counts, booleans);
  * `min` / `max`: inclusive numeric bounds (ratio metrics);
  * neither: report-only, printed for trend-watching.

A metric may also carry `requires`: a list of preconditions (same schema,
against the same artifact) that must all hold for the metric to be
judgeable at all.  The canonical case is thread-scaling: a 4-thread
speedup bound is meaningless where 4 threads share fewer cores, so the
metric requires the measured `explore.effective_parallelism >= 3` and
resolves to UNKNOWN -- not PASS, not FAIL -- when the precondition is
unmet.  Precondition-unmet UNKNOWNs are
environmental, not rot, and are exempt from --strict.

Verdicts per metric: PASS, FAIL (a gated bound was violated), REPORT
(no bounds / mode report), UNKNOWN (artifact or path missing, or a
`requires` precondition unmet).  The exit code is nonzero only when a
gated metric FAILs -- or, with --strict, when any gated metric is
UNKNOWN for a reason other than an unmet precondition (CI uses this:
there, both artifacts are freshly generated, so a missing path means the
bench or the baseline rotted).

Usage:
  compare_baseline.py [--baselines bench/baselines.json]
                      [--sweep BENCH_sweep.json]
                      [--service BENCH_service.json]
                      [--strict]
"""
import argparse
import json
import re
import sys

_INDEX = re.compile(r"\[([^\]]+)\]")


def split_path(path):
    """'a.b[2].c[name=torus].d' -> ['a', 'b', 2, 'c', ('name', 'torus'), 'd']"""
    steps = []
    for part in path.split("."):
        head = part.split("[", 1)[0]
        if head:
            steps.append(head)
        for selector in _INDEX.findall(part):
            if "=" in selector:
                key, value = selector.split("=", 1)
                steps.append((key, value))
            else:
                steps.append(int(selector))
    return steps


def extract(document, path):
    """The value at `path`, or None when any step is missing."""
    node = document
    for step in split_path(path):
        if isinstance(step, str):
            if not isinstance(node, dict) or step not in node:
                return None
            node = node[step]
        elif isinstance(step, int):
            if not isinstance(node, list) or not -len(node) <= step < len(node):
                return None
            node = node[step]
        else:  # (key, value) search in an array of objects
            key, value = step
            if not isinstance(node, list):
                return None
            matches = [item for item in node
                       if isinstance(item, dict) and str(item.get(key)) == value]
            if not matches:
                return None
            node = matches[0]
    return node


def check(metric, value):
    """(verdict, detail) for one extracted value."""
    if value is None:
        return "UNKNOWN", "value missing from artifact"
    if "equals" in metric:
        want = metric["equals"]
        ok = value == want and isinstance(value, type(want))
        return ("PASS" if ok else "FAIL"), f"value {value!r}, want == {want!r}"
    bounds = []
    ok = True
    if "min" in metric:
        bounds.append(f">= {metric['min']}")
        ok = ok and isinstance(value, (int, float)) and value >= metric["min"]
    if "max" in metric:
        bounds.append(f"<= {metric['max']}")
        ok = ok and isinstance(value, (int, float)) and value <= metric["max"]
    if not bounds:
        return "REPORT", f"value {value!r} (baseline {metric.get('baseline')!r})"
    return ("PASS" if ok else "FAIL"), f"value {value!r}, want {' and '.join(bounds)}"


def requires_met(metric, document):
    """True when every `requires` precondition holds against `document`.

    A precondition uses the same schema as a metric (path + equals/min/max);
    a missing path or a violated bound both mean "not judgeable here".
    """
    for precondition in metric.get("requires", []):
        verdict, _ = check(precondition, extract(document, precondition["path"]))
        if verdict != "PASS":
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baselines", default="bench/baselines.json")
    parser.add_argument("--sweep", default="BENCH_sweep.json",
                        help="path of the sweep_perf artifact")
    parser.add_argument("--service", default="BENCH_service.json",
                        help="path of the load_harness artifact")
    parser.add_argument("--strict", action="store_true",
                        help="treat UNKNOWN on a gated metric as failure")
    args = parser.parse_args()

    with open(args.baselines) as handle:
        baselines = json.load(handle)

    artifacts = {}
    for name, path in (("sweep", args.sweep), ("service", args.service)):
        try:
            with open(path) as handle:
                artifacts[name] = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            artifacts[name] = None
            print(f"note: artifact '{name}' unreadable at {path}: {error}")

    failures = 0
    unknown_gates = 0
    for metric in baselines["metrics"]:
        gated = metric.get("mode", "gate") == "gate"
        precondition_unmet = False
        document = artifacts.get(metric["artifact"])
        if document is None:
            verdict, detail = "UNKNOWN", "artifact missing"
        elif not requires_met(metric, document):
            # Not judgeable in this environment (e.g. a 4-thread speedup
            # bound on a 1-core box): UNKNOWN, never PASS -- and exempt
            # from --strict, since the artifact itself is healthy.
            verdict, detail = "UNKNOWN", "precondition unmet"
            precondition_unmet = True
        else:
            verdict, detail = check(metric, extract(document, metric["path"]))
        if not gated and verdict in ("PASS", "FAIL"):
            verdict = "REPORT"  # report mode never judges, even with bounds
        if verdict == "FAIL":
            failures += 1
        if verdict == "UNKNOWN" and gated and not precondition_unmet:
            unknown_gates += 1
        tag = "gate" if gated else "report"
        print(f"{verdict:7s} [{tag}] {metric['artifact']}:{metric['path']}  {detail}")
        if verdict == "FAIL":
            print(f"        note: {metric.get('note', '')}")

    print(f"\n{failures} gated failure(s), {unknown_gates} unknown gated metric(s)")
    if failures or (args.strict and unknown_gates):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
