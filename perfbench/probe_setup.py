"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports orthopt from the checkout's ``src``, parses the first unit's CLI
arguments, builds what that unit needs before its first step (the problem,
or the lemma RNG), then prints ``ready``.  The benchmark times the span from
spawning this interpreter to reading that line.

Usage: python3 probe_setup.py '<json list of cli arguments>'
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from orthopt import cli, harness  # noqa: E402
from orthopt.rng import Rng  # noqa: E402


def main() -> None:
    args = cli.build_parser().parse_args(json.loads(sys.argv[1]))
    if args.command == "run":
        harness.make_problem(harness.load_run_config(args.config))
    elif args.command == "batch-adapt":
        harness.build_problem(args.problem, args.dims, args.problem_seed)
    else:
        Rng(args.seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
