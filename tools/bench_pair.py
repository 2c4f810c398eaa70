#!/usr/bin/env python3
"""Paired comparison of two built stack_bench binaries (bench_stack/).

    tools/bench_pair.py --parent A/stack_bench --change B/stack_bench \\
        --workload serve --pairs 10 --seconds 10 --seeds 41-50 \\
        --claim tail_util [--trace 0|1] [--warmup 5] [--json out.json]

Runs N pairs of parent and change runs on fresh seeds (one seed per pair,
both sides), alternating which side runs first, and burns every core for
--warmup seconds before each run: on an idle-started VM the host clocks
the vCPUs down, and the first runs after idling measure the host's ramp,
not the code. Each run is `stack_bench --workload W --seed S --seconds T
--trace X`; its last stdout line is the result JSON.

For every metric it prints both sides' medians and quartiles and the pairs
the change won (ties count for neither side). Direction and bound come from
BENCHMARK.json.

  * A --claim metric is a GAIN when the change won at least nine tenths of
    all the pairs run (a pair with a failed run counts as lost) and the
    medians differ, in the better direction, by more than the parent's
    interquartile range; otherwise the claim is NOT SHOWN.
  * Every other end-to-end metric (--trace 0) is WORSE when the change's
    median is worse than the parent's by more than its bound, UNRESOLVED
    when the parent's own IQR exceeds the bound (unless every change run
    beats every parent run), and ok otherwise.

Exits 1 when a run fails (non-zero exit or no result line), a claim is not
shown, or a metric is WORSE; 0 otherwise. Python standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300


def parse_seeds(text, pairs):
    """'41-50' or '41,43,47'; None gives 1..pairs."""
    if not text:
        return list(range(1, pairs + 1))
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def warm_up(seconds):
    """Spin every core for `seconds` in child processes, then return."""
    if seconds <= 0:
        return
    code = f"import time\nt = time.time() + {seconds}\nwhile time.time() < t: pass\n"
    procs = [subprocess.Popen([sys.executable, "-c", code])
             for _ in range(os.cpu_count() or 1)]
    for p in procs:
        p.wait()


def run_once(binary, args, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, None, "timed out"
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return None, None, f"exit {res.returncode}: {res.stderr.strip()[-300:]}"
    try:
        out = json.loads(lines[-1])
        meta = json.loads(lines[0]).get("meta", {}) if len(lines) > 1 else {}
    except ValueError:
        return None, None, "a result line is not JSON"
    return {k: v["value"] for k, v in out["metrics"].items()}, meta, None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    better, bound = {}, {}
    for key in ("end_to_end", "per_layer"):
        for m in spec.get(key, []):
            better[m["name"]] = m["better"]
            if key == "end_to_end":
                bound[m["name"]] = m["bound"]
    return better, bound


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent stack_bench binary")
    ap.add_argument("--change", required=True, help="change stack_bench binary")
    ap.add_argument("--workload", required=True, choices=["casper", "sor", "serve"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seeds", help="one per pair: '41-50' or '41,43,...'")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--warmup", type=float, default=5,
                    help="seconds of all-core burn before each run (0 = off)")
    ap.add_argument("--claim", action="append", default=[],
                    help="metric the change claims to improve (repeatable)")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--json", help="write every run's metrics and meta line here")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds, args.pairs)[: args.pairs]
    if len(seeds) < args.pairs:
        ap.error(f"{args.pairs} pairs need {args.pairs} seeds, got {len(seeds)}")
    better, bound = load_spec(args.benchmark)
    for name in args.claim:
        if name not in better:
            ap.error(f"--claim {name}: not a metric in {args.benchmark}")

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    failures = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            warm_up(args.warmup)
            t0 = time.time()
            metrics, meta, err = run_once(sides[side], args, seed)
            print(f"pair {i + 1}/{len(seeds)} seed {seed} {side}: "
                  f"{'FAILED ' + err if err else 'ok'} ({time.time() - t0:.0f} s)",
                  file=sys.stderr, flush=True)
            runs[side].append({"seed": seed, "metrics": metrics, "meta": meta})
            if err:
                failures.append(f"seed {seed} {side}: {err}")

    complete = [i for i in range(len(seeds))
                if runs["parent"][i]["metrics"] and runs["change"][i]["metrics"]]
    names = sorted({n for i in complete for n in runs["parent"][i]["metrics"]})
    status = 0 if not failures else 1
    print(f"{args.workload}: {len(complete)} complete pairs of {len(seeds)}, "
          f"{args.seconds:g} s runs, trace {args.trace}, seeds {seeds}")
    rows = [("metric", "parent p50 [q1, q3]", "change p50 [q1, q3]", "won",
             "verdict")]
    for name in names:
        p = [runs["parent"][i]["metrics"][name] for i in complete]
        c = [runs["change"][i]["metrics"][name] for i in complete]
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        iqr = pq3 - pq1
        gain = sign * (cmed - pmed)
        verdict = ""
        if name in args.claim:
            shown = wins * 10 >= 9 * len(seeds) and gain > iqr
            verdict = (f"GAIN (gap {gain:.4g} > IQR {iqr:.4g})" if shown else
                       f"NOT SHOWN (gap {gain:.4g}, IQR {iqr:.4g})")
            status |= 0 if shown else 1
        elif name in bound and args.trace == 0:
            worse = -gain / abs(pmed) if pmed else 0.0
            all_better = min(sign * x for x in c) > max(sign * x for x in p)
            if worse > bound[name]:
                verdict = f"WORSE by {worse:.1%} (bound {bound[name]:.0%})"
                status = 1
            elif pmed and iqr / abs(pmed) > bound[name] and not all_better:
                verdict = (f"UNRESOLVED (parent IQR {iqr / abs(pmed):.1%} "
                           f"> bound {bound[name]:.0%})")
            else:
                verdict = f"ok ({-worse:+.1%})"
        rows.append((name, f"{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]",
                     f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]",
                     f"{wins}/{len(seeds)}", verdict))
    widths = [max(len(r[k]) for r in rows) for k in range(4)]
    for r in rows:
        print("  ".join(r[k].ljust(widths[k]) for k in range(4)) + "  " + r[4])
    for f in failures:
        print(f"FAILED RUN: {f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "seeds": seeds, "runs": runs}, f,
                      indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
