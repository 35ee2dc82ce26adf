#!/usr/bin/env python3
"""Steadiness tool: repeated runs, their spread, and two sets compared.

    python3 perfbench/steady.py run --workload W [--runs 10] [--first-seed 1] --save A.jsonl
    python3 perfbench/steady.py compare A.jsonl B.jsonl

`run` runs one workload N times, each with another seed, through
`perfbench/run.py` with the run length of `BENCHMARK.json`, appends each
result line to the save file and prints, per end-to-end metric, the
median, the quartiles (`statistics.quantiles(values, n=4)`), min/max,
the spread (quartile distance over median) and the metric's bound. A
spread above a third of the bound is flagged: such a metric cannot
resolve a regression of its bound size.

`compare` reads two saved sets of the same code (or of a parent and a
change) and checks, per workload and metric, that the second median is
not worse than the first by more than the bound, and that the share of
failed operations is the same in both.

Run from the repository root.
"""

import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}")
    return json.loads(lines[-1])


def load(path):
    rows = [json.loads(line) for line in open(path) if line.strip()]
    by = {}
    for r in rows:
        by.setdefault(r["workload"], []).append(r["result"])
    return by


def summary(workload, results):
    print(f"\n{workload}: {len(results)} runs")
    fails = {(r["failed"], r["attempted"]) for r in results}
    shares = sorted({f / a for f, a in fails})
    print(f"  failed share per run: {shares}")
    print(f"  {'metric':<18} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    for name, m in METRICS.items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if name == "setup_s" or spread <= m["bound"] / 3 else "  WIDE"
        print(f"  {name:<18} {m['unit']:<5} {med:12.4f} {q1:12.4f} {q3:12.4f} {min(vals):12.4f} "
              f"{max(vals):12.4f} {spread:7.3f} {m['bound']:6.2f}{flag}")


def compare(a_path, b_path):
    a, b = load(a_path), load(b_path)
    ok = True
    for workload in sorted(set(a) & set(b)):
        print(f"\n{workload}: {len(a[workload])} vs {len(b[workload])} runs")
        sa = {r["failed"] / r["attempted"] for r in a[workload]}
        sb = {r["failed"] / r["attempted"] for r in b[workload]}
        same = sa == sb and len(sa) == 1
        ok &= same
        print(f"  failed share {sorted(sa)} vs {sorted(sb)}: {'same' if same else 'DIFFERENT'}")
        for name, m in METRICS.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"  {name:<18} {ma:12.4f} -> {mb:12.4f}  worse by {worse:+.3f} "
                  f"(bound {m['bound']:.2f}) {'ok' if good else 'REGRESSION'}")
    print("\nagree within bounds" if ok else "\nDO NOT agree within bounds")
    return ok


def main(argv):
    if len(argv) >= 1 and argv[0] == "compare" and len(argv) == 3:
        sys.exit(0 if compare(argv[1], argv[2]) else 1)
    if not argv or argv[0] != "run":
        raise SystemExit(__doc__)
    opts = {"--workload": None, "--runs": "10", "--first-seed": "1", "--save": None}
    it = iter(argv[1:])
    for flag in it:
        if flag not in opts:
            raise SystemExit(f"unknown flag {flag}")
        opts[flag] = next(it)
    if not opts["--workload"] or not opts["--save"]:
        raise SystemExit(__doc__)
    workload, first = opts["--workload"], int(opts["--first-seed"])
    results = []
    for seed in range(first, first + int(opts["--runs"])):
        r = run_once(workload, seed, BENCH["run_seconds"])
        results.append(r)
        with open(opts["--save"], "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "result": r}) + "\n")
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    summary(workload, results)


if __name__ == "__main__":
    main(sys.argv[1:])
