#!/usr/bin/env python3
"""Paired A/B of the KV-service benchmark between two trees.

  python3 tools/kv_ab.py PARENT CHANGE [--workloads a,b] [--seeds N]
                         [--seconds S] [--trace 0|1] [--workdir DIR]
                         [--out FILE]

PARENT and CHANGE are each a directory (a checkout or a `git archive`
export, copied whole minus `.git`, `_build*` and `.bench_build`) or a
git revision of the repository this script lives in (exported with
`git archive`).  Both are placed side by side as WORKDIR/parent and
WORKDIR/change, so
neither side runs from a different kind of directory than the other,
and each is built and run by its own `kvbench/run.py`.

For every workload and seed the two sides run back to back, and the
side that runs first alternates by seed.  For every metric the report
gives each side's median and quartiles, the median of the per-seed
change/parent ratios, k/n (the seeds on which the change was better)
and a verdict:

  worse       the change's median is worse than the parent's by more
              than the metric's BENCHMARK.json bound
  better      the change won at least 9 of every 10 pairs and its
              median beats the parent's by more than the parent's
              interquartile distance
  unresolved  neither

Metrics without a bound (the traced per-layer ones, --trace 1) are
never `worse`; their direction comes from BENCHMARK.json.  The raw runs
go to --out (JSON) when given.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def export(src, dest):
    """Place tree SRC (directory or git revision) at DEST."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    if os.path.isdir(src):
        shutil.copytree(src, dest, symlinks=True, ignore=lambda d, names: [
            n for n in names
            if n == ".git" or n.startswith("_build") or n == ".bench_build"])
    else:
        os.makedirs(dest)
        archive = subprocess.run(
            ["git", "-C", REPO, "archive", src], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run(tree, workload, seed, seconds, trace):
    """One kvbench run in TREE; its JSON result (the last stdout line)."""
    cmd = [sys.executable, "kvbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"kv_ab: {tree}: {' '.join(cmd)} failed\n{r.stderr[-2000:]}")
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def verdict(parent, change, higher, bound):
    """(median ratio, wins, verdict) for paired samples."""
    n = len(parent)
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    ratio = statistics.median(ratios) if ratios else float("nan")
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = (cmed - pmed) if higher else (pmed - cmed)
    if bound is not None and pmed != 0 and -gain / abs(pmed) > bound:
        v = "worse"
    elif wins * 10 >= 9 * n and gain > (pq3 - pq1):
        v = "better"
    else:
        v = "unresolved"
    return ratio, wins, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    a = ap.parse_args()

    workdir = a.workdir or tempfile.mkdtemp(prefix="kv_ab.")
    trees = {"parent": os.path.join(workdir, "parent"),
             "change": os.path.join(workdir, "change")}
    export(os.path.abspath(a.parent) if os.path.isdir(a.parent) else a.parent,
           trees["parent"])
    export(os.path.abspath(a.change) if os.path.isdir(a.change) else a.change,
           trees["change"])
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench.get("run_seconds", 10)
    workloads = a.workloads.split(",") if a.workloads else [
        w["name"] for w in bench["workloads"]]
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for w in workloads:
        for seed in range(1, a.seeds + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[w][side].append(run(trees[side], w, seed, seconds, a.trace))
            p, c = runs[w]["parent"][-1], runs[w]["change"][-1]
            key = "ops_per_s" if "ops_per_s" in p else "gc.minor_words_per_op"
            print(f"{w} seed {seed} ({order[0]} first): {key} "
                  f"{p.get(key, float('nan')):.6g} -> {c.get(key, float('nan')):.6g}",
                  file=sys.stderr, flush=True)

    print(f"kv_ab: {a.parent} -> {a.change}, {a.seeds} seeds x {seconds} s, "
          f"trace {a.trace}, trees in {workdir}")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<31} {'parent med [q1, q3]':<34} "
              f"{'change med [q1, q3]':<34} {'ratio':>6} {'k/n':>5}  verdict")
        ps, cs = runs[w]["parent"], runs[w]["change"]
        for name in ps[0]:
            if name not in spec:
                continue
            pv = [r[name] for r in ps]
            cv = [r[name] for r in cs]
            higher = spec[name]["better"] == "higher"
            ratio, wins, v = verdict(pv, cv, higher, spec[name].get("bound"))
            cells = []
            for xs in (pv, cv):
                q1, med, q3 = quartiles(xs)
                cells.append(f"{med:.5g} [{q1:.4g}, {q3:.4g}]")
            print(f"  {name:<31} {cells[0]:<34} {cells[1]:<34} {ratio:>6.3f}"
                  f" {wins:>2}/{len(pv):<2}  {v}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"parent": a.parent, "change": a.change, "seeds": a.seeds,
                       "seconds": seconds, "trace": a.trace, "runs": runs}, f)


if __name__ == "__main__":
    main()
