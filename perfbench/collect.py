#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise, or compare summaries.

    python3 perfbench/collect.py run --seeds 1-10 [--workloads a,b] [--seconds S]
                                     [--trace] --out summary.json
    python3 perfbench/collect.py compare parent.json change.json
    python3 perfbench/collect.py table summary.json

Run from the root of a checkout. `run` executes the command recorded in
BENCHMARK.json once per (workload, seed), workloads interleaved, and writes
every value plus each metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, as `statistics.quantiles`
gives them). `compare` prints each metric's median change against its
bound and refuses to compare results whose machine fingerprints differ
(the git revision aside). `table` prints a summary as a Markdown table of
medians and quartiles.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key == "fingerprint":
            result["fingerprint"] = json.loads(rest)
        elif key == "digest":
            result["digest"] = rest.split()[-1]
    result["exit"] = proc.returncode
    return result


def summarise(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def cmd_run(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(bench, w, seed, seconds, args.trace)
            r["seed"] = seed
            runs[w].append(r)
            status = "ok" if r["correct"] and r["exit"] == 0 else "FAILED"
            print(f"{w} seed {seed}: {status} digest {r.get('digest')}", file=sys.stderr)
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for rs in runs.values() for r in rs}
    out = {
        "fingerprint": json.loads(sorted(fingerprints)[0]),
        "seconds": seconds,
        "trace": args.trace,
        "seeds": seeds,
        "workloads": {},
    }
    if len(fingerprints) > 1:
        out["fingerprint_mismatch"] = [json.loads(f) for f in sorted(fingerprints)]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for w, rs in runs.items():
        names = list(rs[0]["metrics"])
        metrics = {}
        for name in names:
            s = summarise([r["metrics"][name]["value"] for r in rs])
            s["unit"] = rs[0]["metrics"][name]["unit"]
            metrics[name] = s
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and s["spread"] is not None and name != "setup_s":
                flag = "  OVER BOUND" if s["spread"] > bound else ("  > bound/3" if s["spread"] > bound / 3 else "")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{w:20s} {name:28s} median {s['median']:.6g} {s['unit']:6s} spread {spread}{flag}")
        out["workloads"][w] = {
            "all_correct": all(r["correct"] and r["exit"] == 0 for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "digests": {str(r["seed"]): r.get("digest") for r in rs},
            "metrics": metrics,
        }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def comparable(a, b):
    strip = lambda fp: {k: v for k, v in fp.items() if k != "git"}
    return strip(a) == strip(b)


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    if not comparable(parent["fingerprint"], change["fingerprint"]):
        print("NOT COMPARABLE: the machine fingerprints differ")
        print(" parent:", json.dumps(parent["fingerprint"]))
        print(" change:", json.dumps(change["fingerprint"]))
        sys.exit(3)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    worse = 0
    for w, pw in parent["workloads"].items():
        cw = change["workloads"].get(w)
        if cw is None:
            print(f"{w}: missing from the change's results")
            continue
        for name, pm in pw["metrics"].items():
            cm = cw["metrics"].get(name)
            m = metrics.get(name)
            if cm is None or m is None or not pm["median"]:
                continue
            rel = cm["median"] / pm["median"] - 1.0
            regress = rel if m["better"] == "lower" else -rel
            verdict = "worse beyond bound" if regress > m["bound"] else "within bound"
            if pm["spread"] is not None and pm["spread"] > m["bound"]:
                verdict = "unresolved (parent spread exceeds bound)"
            worse += verdict == "worse beyond bound"
            print(f"{w:20s} {name:24s} {pm['median']:.6g} -> {cm['median']:.6g} ({rel:+.1%}) {verdict}")
        same = pw.get("digests") == cw.get("digests")
        print(f"{w:20s} fix digests {'identical' if same else 'DIFFER'}")
    sys.exit(1 if worse else 0)


def cmd_table(args):
    with open(args.summary) as f:
        summary = json.load(f)
    workloads = list(summary["workloads"])
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    names = list(summary["workloads"][workloads[0]]["metrics"])
    for name in names:
        cells = []
        for w in workloads:
            m = summary["workloads"][w]["metrics"][name]
            cells.append(f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]")
        unit = summary["workloads"][workloads[0]]["metrics"][name]["unit"]
        print(f"| `{name}` ({unit}) | " + " | ".join(cells) + " |")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", action="store_true")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    t = sub.add_parser("table")
    t.add_argument("summary")
    args = p.parse_args()
    {"run": cmd_run, "compare": cmd_compare, "table": cmd_table}[args.cmd](args)


if __name__ == "__main__":
    main()
