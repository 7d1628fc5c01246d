#!/usr/bin/env python3
"""A/B benchmark: a parent revision against this checkout, in alternating pairs.

Usage, from anywhere inside the repository:

    python3 scripts/ab_bench.py --parent HEAD~1 --name mychange --workload wa-dial \
        --pairs 10 --seconds 45 [--seed 29] [--workload ds-findall ...]

The parent revision is exported with `git archive` into a temporary
directory; the change side is this checkout as it stands. For each workload,
pair i runs `python3 dialbench/run.py` once on each side, the parent first on
even pairs and the change first on odd ones. The script prints each pair's
`run_s` and `cand_recall`, each side's median and quartiles of `run_s`, and
the claim rule: at least ten pairs, the change wins at least nine tenths of
them (ties count for neither) and the medians differ by more than the
parent's interquartile range. It also applies the no-regression rule to every
end-to-end metric that BENCHMARK.json declares (the file is only read): each
side's median, and a verdict of `worse` when the change's median is worse than
the parent's by more than the metric's bound (relative to the parent median),
`unresolved` when the parent's IQR/median exceeds the bound and not every
change run reads better than every parent run, and `ok` otherwise. Every
pair's full metric record goes to BENCH_<name>.json at the root of this
checkout, beside the summary. A later call with the same name and parent adds
its workloads to that file, replacing any of the same workload and seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def log(msg):
    print(f"[ab_bench] {msg}", file=sys.stderr, flush=True)


def export(rev, dest):
    """Write the tree of `rev` into `dest`; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")
    return sha


def bench(checkout, workload, seed, seconds):
    """One run of the benchmark in `checkout`; the metrics by name, or None on failure."""
    cmd = [sys.executable, "dialbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run failed in {checkout} (exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
        return None
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["correct"] = result["correct"]
    return metrics


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"q1": q1, "median": med, "q3": q3}


def verdicts(done, metrics):
    """The no-regression rule per end-to-end metric over the complete pairs."""
    out = {}
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        par = [r["parent"][name] for r in done]
        chg = [r["change"][name] for r in done]
        sp, sc = quartiles(par), quartiles(chg)
        scale = abs(sp["median"])
        worse_by = (sc["median"] - sp["median"]) if lower else (sp["median"] - sc["median"])
        spread = (sp["q3"] - sp["q1"]) / scale if scale else 0.0
        all_better = max(chg) < min(par) if lower else min(chg) > max(par)
        if worse_by > bound * scale:
            verdict = "worse"
        elif spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        out[name] = {"parent_median": sp["median"], "change_median": sc["median"],
                     "parent_iqr_over_median": spread, "bound": bound, "verdict": verdict}
    return out


def compare(workload, seed, pairs, seconds, sides, metrics):
    rows = []
    for i in range(pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        row = {"pair": i + 1, "first": order[0]}
        for side in order:
            row[side] = bench(sides[side], workload, seed, seconds)
        rows.append(row)
        p, c = row["parent"] or {}, row["change"] or {}
        print(f"{workload} pair {i + 1:2d} ({order[0]} first): run_s {p.get('run_s')} -> {c.get('run_s')}  "
              f"cand_recall {p.get('cand_recall')} -> {c.get('cand_recall')}", flush=True)

    done = [r for r in rows if r["parent"] and r["change"]]
    summary = {"pairs_run": len(rows), "pairs_complete": len(done)}
    if done:
        par = [r["parent"]["run_s"] for r in done]
        chg = [r["change"]["run_s"] for r in done]
        wins = sum(c < p for p, c in zip(par, chg))
        sp, sc = quartiles(par), quartiles(chg)
        iqr = sp["q3"] - sp["q1"]
        summary.update({
            "run_s": {"parent": sp, "change": sc, "parent_iqr": iqr},
            "change_wins": wins,
            "claim_met": len(rows) >= 10 and wins >= 0.9 * len(rows) and sp["median"] - sc["median"] > iqr,
            "cand_recall_equal": all(r["parent"]["cand_recall"] == r["change"]["cand_recall"] for r in done),
            "end_to_end": verdicts(done, metrics),
        })
        print(f"{workload} seed {seed if seed is not None else 'default'}: run_s parent median {sp['median']:.3f} "
              f"[{sp['q1']:.3f}, {sp['q3']:.3f}], change median {sc['median']:.3f} [{sc['q1']:.3f}, {sc['q3']:.3f}]; "
              f"change wins {wins}/{len(rows)}; parent IQR {iqr:.3f}; claim met: {summary['claim_met']}; "
              f"cand_recall equal on every pair: {summary['cand_recall_equal']}", flush=True)
        for name, v in summary["end_to_end"].items():
            print(f"{workload} {name}: parent median {v['parent_median']:.4f}, change median "
                  f"{v['change_median']:.4f}, parent IQR/median {v['parent_iqr_over_median']:.3f}, "
                  f"bound {v['bound']}: {v['verdict']}", flush=True)
    return {"workload": workload, "seed": seed, "seconds": seconds, "pairs": rows, "summary": summary}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision (any git revision name)")
    ap.add_argument("--name", required=True, help="output goes to BENCH_<name>.json")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    ap.add_argument("--seed", type=int, help="workload seed (default: each workload's own)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--workdir", help="where the parent checkout goes (default: a new temporary directory)")
    args = ap.parse_args()

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        parent_dir = Path(tmp) / "parent"
        parent_sha = export(args.parent, parent_dir)
        log(f"parent {parent_sha} in {parent_dir}; change is {ROOT} at {head}{' with local changes' if dirty else ''}")
        sides = {"parent": parent_dir, "change": ROOT}
        results = [compare(w, args.seed, args.pairs, args.seconds, sides, metrics) for w in args.workload]

    out = ROOT / f"BENCH_{args.name}.json"
    if out.exists():
        old = json.loads(out.read_text())
        if old.get("parent") == parent_sha:
            fresh = {(r["workload"], r["seed"]) for r in results}
            results = [r for r in old["workloads"] if (r["workload"], r["seed"]) not in fresh] + results
    out.write_text(json.dumps({
        "command": "python3 dialbench/run.py --workload <w> --seconds <s> [--seed <n>]",
        "parent": parent_sha,
        "change": {"head": head, "local_changes": dirty},
        "rule": "claim when >= 10 pairs ran, change wins >= 9/10 of them (ties count for neither) "
                "and parent median - change median > parent IQR (run_s, lower is better); "
                "no regression when every end_to_end metric of BENCHMARK.json has verdict ok: "
                "worse = change median worse than the parent median by more than bound * |parent median|, "
                "unresolved = parent IQR / |parent median| > bound and not every change run better "
                "than every parent run",
        "workloads": results,
    }, indent=1) + "\n")
    log(f"wrote {out}")


if __name__ == "__main__":
    main()
