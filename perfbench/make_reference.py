"""Regenerate ``reference.json``: the expected CSV values of every input family.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each family's pass twice through ``orthopt.cli.main`` and stores the
summarized output of the first (header, row count and sampled rows of each
CSV).  Refuses to write anything if a run fails, a status is not ``ok``, or
the two passes differ in a single byte.  Only regenerate when a change to the
program is meant to change its CSV output, and say so where the change is
recorded.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys

import run as bench  # sets the BLAS thread count before numpy is imported
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    cli, _ = bench.load_orthopt()
    path = os.path.join(bench.HERE, "reference.json")
    data = {"families": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data["families"] = json.load(handle)["families"]
    work_dir = os.path.join(bench.HERE, "_work", f"reference-{os.getpid()}")
    try:
        for workload in args.workload or sorted(workloads.WORKLOADS):
            families = {}
            for k in range(workloads.FAMILIES):
                plan = workloads.make_plan(workload, k, work_dir)
                first, second = (bench.run_pass(cli, plan, work_dir, traced=False) for _ in range(2))
                for p in (first, second):
                    if p.failed_outs or p.unit_failures:
                        sys.exit(f"{workload} family {k}: failed units in {sorted(p.failed_outs)}")
                if first.files != second.files:
                    sys.exit(f"{workload} family {k}: repeated pass wrote different bytes")
                families[str(k)] = workloads.summarize(first.files)
                print(f"{workload} family {k}: {len(first.files)} files, pass {first.wall:.2f} s", flush=True)
            data["families"][workload] = families
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_one_family_per_line(data))


def _one_family_per_line(data):
    workloads_text = []
    for workload, families in sorted(data["families"].items()):
        lines = ",\n".join(
            f"{json.dumps(k)}: {json.dumps(families[k], sort_keys=True)}" for k in sorted(families, key=int)
        )
        workloads_text.append(f"{json.dumps(workload)}: {{\n{lines}\n}}")
    return '{"families": {\n' + ",\n".join(workloads_text) + "\n}}\n"


if __name__ == "__main__":
    main()
