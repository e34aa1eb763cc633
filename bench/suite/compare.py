#!/usr/bin/env python3
"""A/B comparison and reproducibility checks for the oociso benchmark.

Uses only the Python standard library. Bounds, units and directions come
from BENCHMARK.json; every run goes through bench/suite/run.py exactly as a
single benchmark run does, and each record is one run's final JSON line.

  compare.py run CHECKOUT --record SET.jsonl [--runs 5] [--seed 42]
        Runs every workload --runs times in one checkout (the same --seed
        each time unless --vary-seed) and appends the records to SET.jsonl.

  compare.py ab PARENT CHANGE --record AB.jsonl [--runs 10] [--seed 42]
        Runs alternating pairs (which side goes first alternates by pair)
        of the parent and the change checkout, records them, and reports.

  compare.py report AB.jsonl
        Reports a recorded A/B comparison, per workload and metric:
        each side's median and quartiles, pairs won, and a verdict:
          gain       the change wins >= 9/10 of the pairs (ties count for
                     neither) and the medians differ by more than the
                     parent's interquartile range;
          regressed  the change's median is worse than the parent's by
                     more than the metric's bound;
          unresolved either side's spread (IQR / median) exceeds the bound
                     and not every change run beats every parent run;
          indicative a percentile with fewer than ten samples beyond it in
                     a run (progressive's latency_p90_ms): shown, never
                     a claim or a regression;
          within     none of the above.

  compare.py sets A.jsonl B.jsonl
        Two-set reproducibility: for each workload and metric, the medians
        of the two sets must differ by less than the metric's bound. Exits
        1 when one does not.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# (workload, metric) pairs whose percentile has fewer than ten samples
# beyond it in a run: progressive sends about 22 requests in 15 s, so its
# p90 rests on the two slowest.
INDICATIVE = {("progressive", "latency_p90_ms")}


def load_benchmark(checkout=None):
    path = Path(checkout) / "BENCHMARK.json" if checkout else BENCHMARK
    return json.loads(path.read_text())


def run_once(checkout, workload, seed, seconds):
    command = [sys.executable, "bench/suite/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"run failed: {workload} seed {seed} in {checkout}")
    return json.loads(lines[-1])


def append(record_path, record):
    with open(record_path, "a") as out:
        out.write(json.dumps(record) + "\n")


def read_records(path):
    with open(path) as records:
        return [json.loads(line) for line in records if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def worse_share(metric, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    delta = (value - base) / base
    return delta if metric["better"] == "lower" else -delta


def values_of(records, side, workload, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if r["side"] == side and r["workload"] == workload]


def cmd_run(args):
    bench = load_benchmark(args.checkout)
    for i in range(args.runs):
        for workload in [w["name"] for w in bench["workloads"]]:
            seed = args.seed + i if args.vary_seed else args.seed
            result = run_once(args.checkout, workload, seed,
                              bench["run_seconds"])
            append(args.record, {"side": "set", "workload": workload,
                                 "seed": seed, "result": result})
            print(f"{workload} seed {seed} done", flush=True)
    return 0


def cmd_ab(args):
    bench = load_benchmark(args.parent)
    for pair in range(args.runs):
        order = [("parent", args.parent), ("change", args.change)]
        if pair % 2:
            order.reverse()
        for workload in [w["name"] for w in bench["workloads"]]:
            for side, checkout in order:
                result = run_once(checkout, workload, args.seed + pair,
                                  bench["run_seconds"])
                append(args.record, {"side": side, "workload": workload,
                                     "pair": pair, "seed": args.seed + pair,
                                     "result": result})
        print(f"pair {pair + 1}/{args.runs} done", flush=True)
    return cmd_report(argparse.Namespace(record=args.record))


def cmd_report(args):
    bench = load_benchmark()
    records = read_records(args.record)
    workloads = sorted({r["workload"] for r in records})
    print(f"{'workload':12} {'metric':21} {'parent median [q1,q3]':30} "
          f"{'change median [q1,q3]':30} {'delta':>7} {'wins':>6}  verdict")
    for workload in workloads:
        failed = {side: sum(r["result"]["failed"] for r in records
                            if r["side"] == side and r["workload"] == workload)
                  for side in ("parent", "change")}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            pairs = {}
            for r in records:
                if r["workload"] == workload and "pair" in r:
                    pairs.setdefault(r["pair"], {})[r["side"]] = (
                        r["result"]["metrics"][name]["value"])
            parent = values_of(records, "parent", workload, name)
            change = values_of(records, "change", workload, name)
            if not parent or not change:
                continue
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            complete = [p for p in pairs.values() if len(p) == 2]
            wins = sum(better(metric, p["change"], p["parent"])
                       for p in complete)
            spread = max((p3 - p1) / pm if pm else 0.0,
                         (c3 - c1) / cm if cm else 0.0)
            all_better = all(better(metric, c, p)
                             for c in change for p in parent)
            if (workload, name) in INDICATIVE:
                verdict = "indicative"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif (complete and wins >= 0.9 * len(complete)
                  and abs(cm - pm) > p3 - p1 and better(metric, cm, pm)):
                verdict = "gain"
            elif worse_share(metric, pm, cm) > bound:
                verdict = "regressed"
            else:
                verdict = "within"
            if verdict == "gain" and failed["change"] > failed["parent"]:
                verdict = "gain void: more failures"
            delta = -worse_share(metric, pm, cm)
            parent_cell = f"{pm:.4g} [{p1:.4g},{p3:.4g}]"
            change_cell = f"{cm:.4g} [{c1:.4g},{c3:.4g}]"
            print(f"{workload:12} {name:21} {parent_cell:30} {change_cell:30} "
                  f"{delta:+7.1%} {wins:>3}/{len(complete):<3} {verdict}")
    return 0


def cmd_sets(args):
    bench = load_benchmark()
    first, second = read_records(args.a), read_records(args.b)
    ok = True
    print(f"{'workload':12} {'metric':21} {'set A median':>13} {'spread':>7} "
          f"{'set B median':>13} {'spread':>7} {'worse':>7} {'bound':>6}")
    for workload in sorted({r["workload"] for r in first}):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = values_of(first, "set", workload, name)
            b = values_of(second, "set", workload, name)
            if not a or not b:
                continue
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            worse = worse_share(metric, am, bm)
            passed = abs(worse) < bound
            ok = ok and passed
            print(f"{workload:12} {name:21} {am:13.4g} "
                  f"{(a3 - a1) / am if am else 0:7.3f} {bm:13.4g} "
                  f"{(b3 - b1) / bm if bm else 0:7.3f} {worse:+7.1%} "
                  f"{bound:6.2f}{'' if passed else '  FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run")
    run.add_argument("checkout")
    run.add_argument("--record", required=True)
    run.add_argument("--runs", type=int, default=5)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--vary-seed", action="store_true")
    run.set_defaults(func=cmd_run)

    ab = sub.add_parser("ab")
    ab.add_argument("parent")
    ab.add_argument("change")
    ab.add_argument("--record", required=True)
    ab.add_argument("--runs", type=int, default=10)
    ab.add_argument("--seed", type=int, default=42)
    ab.set_defaults(func=cmd_ab)

    report = sub.add_parser("report")
    report.add_argument("record")
    report.set_defaults(func=cmd_report)

    sets = sub.add_parser("sets")
    sets.add_argument("a")
    sets.add_argument("b")
    sets.set_defaults(func=cmd_sets)

    args = parser.parse_args()
    if getattr(args, "runs", 10) < (10 if args.command == "ab" else 1):
        parser.error("an A/B comparison needs at least 10 pairs")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
