"""Run the benchmark over many seeds and summarize it as one trajectory point.

    python3 perfbench/collect.py --out perfbench/trajectory/NAME.json [--runs 10] [--workload NAME ...]

For each workload, runs ``run.py --trace 0`` once per seed (seeds 0 to
``--runs`` - 1) and one ``--trace 1`` run with seed 0, in sequence, from the
checkout root.  Reports, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, flagged against the bound in ``BENCHMARK.json``.  Exits with 1 if a
spread other than ``setup_s``'s reaches a third of its bound, an output is
wrong, or a tracer self-test fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    extra = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            extra.update(json.loads(line))
    return json.loads(lines[-1]), extra


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    point = {"run_seconds": seconds, "seeds": args.runs, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results, samples = [], []
        for seed in range(args.runs):
            result, extra = run_once(workload, seed, seconds, 0)
            point.setdefault("machine", extra.get("machine"))
            results.append(result)
            samples.append(extra.get("samples"))
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        traced, extra = run_once(workload, 0, seconds, 1)
        summary = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "selftest": extra.get("selftest"),
            "samples": samples,
        }
        for r in results:
            if set(r["metrics"]) != set(e2e):
                sys.exit(f"{workload}: end-to-end metrics {sorted(r['metrics'])} differ from BENCHMARK.json")
        if set(traced["metrics"]) != layer_names:
            sys.exit(f"{workload}: per-layer metrics differ from BENCHMARK.json: "
                     f"{sorted(set(traced['metrics']) ^ layer_names)}")
        for name, m in e2e.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            summary["end_to_end"][name] = s
            flag = "ok" if s["spread"] < m["bound"] / 3 else ("WIDE" if s["spread"] < m["bound"] else "OVER")
            if name != "setup_s" and flag != "ok":
                ok = False
            print(f"  {workload} {name}: median {s['median']:.5g} {m['unit']} "
                  f"spread {s['spread']:.3f} (bound {m['bound']}) {flag}", flush=True)
        print(f"  {workload} correct={summary['correct']} failed={summary['failed']}/{summary['attempted']} "
              f"selftest={summary['selftest']}", flush=True)
        ok &= summary["correct"] and all(summary["selftest"].values())
        point["workloads"][workload] = summary
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(point, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
