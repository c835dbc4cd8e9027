"""Counted work: bytecodes and C calls per unit of each benchmark workload.

Usage::

    python tools/opcount.py [<tree>]

imports ``orthopt`` from ``<tree>/src`` (default: the tree holding this
script) and the workload plans from ``<tree>/perfbench/workloads.py``, and,
per workload, runs input family 0 once as a warm-up and then once more
under two hooks.  Per workload it prints the units (``harness.run`` calls;
for ``verify_lemmas``, invocations) and the steps or trials of the plan, then
each count as a total, per unit and per step (or trial):

* ``package bytecodes``: opcodes executed in frames whose code lives under
  ``<tree>/src/orthopt`` (``sys.settrace`` with ``f_trace_opcodes``).  It
  leaves out every other Python frame: numpy's Python wrappers, the standard
  library (argparse, configparser, csv writing) and this tool.
* ``BINARY_OP``: those of the package bytecodes that are binary operators.
  Array arithmetic through ``@``, ``*``, ``+`` and the like is one such
  opcode each, whatever the array size.
* ``C calls``: ``sys.setprofile`` ``c_call`` events from any Python frame,
  in total and by callee.  The event fires for built-in functions and
  methods (``numpy.asarray``, ``ndarray.reshape``, ``math.sqrt``,
  ``list.append``) only.  Calls of ufuncs (``np.sqrt(x)``, ``np.add``), of
  types (``float(x)``, ``tuple(...)``) and operators on arrays raise none,
  and neither does C calling C, so a LAPACK call counts as the one built-in
  that starts it.

The counts leave out time: they say how much interpreter work a unit asks
for, not how long the arithmetic takes.  The warm-up pass fills what the
package computes once per process (the series lemmas' reports, the CLI's
parser), so the counted pass holds only per-invocation work.  The garbage
collector is off during the counted pass, so no finalizer runs at a
point that depends on allocation history, and two runs of one tree print the
same counts.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dis
import gc
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

_BINARY_OP = dis.opmap["BINARY_OP"]


def _callee(fn) -> str:
    module = getattr(fn, "__module__", None)  # None on a bound built-in method
    return f"{module}.{fn.__qualname__}" if module else fn.__qualname__


class OpCounter:
    """Opcodes executed in package frames, by (code, offset), and C calls by callee."""

    def __init__(self, package: Path):
        self.prefix = f"{package}{os.sep}"
        self.opcodes = collections.Counter()
        self.c_calls = collections.Counter()

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.opcodes[frame.f_code, frame.f_lasti] += 1
        return self._opcode

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._opcode

    def _profile(self, frame, event, arg):
        if event == "c_call":
            self.c_calls[_callee(arg)] += 1

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._call)
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            sys.settrace(None)

    def bytecodes(self) -> tuple[int, int]:
        """Package opcodes executed, and how many of them were ``BINARY_OP``."""
        total = sum(self.opcodes.values())
        binary = sum(n for (code, offset), n in self.opcodes.items() if code.co_code[offset] == _BINARY_OP)
        return total, binary


def run_plan(cli, plan, pass_dir: str) -> None:
    """Each invocation of ``plan`` into a fresh output directory, as a benchmark pass runs it."""
    for inv in plan.invocations:
        shutil.rmtree(os.path.join(pass_dir, inv.out), ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(inv.argv))
        if code != 0:
            raise SystemExit(f"opcount: {' '.join(inv.argv[:1])} exited {code}:\n{sink.getvalue()}")


def count_workload(cli, workloads, name: str, package: Path) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="orthopt-opcount-") as pass_dir:
        plan = workloads.make_plan(name, 0, pass_dir)
        run_plan(cli, plan, pass_dir)
        counter = OpCounter(package)
        gc.collect()
        gc.disable()
        try:
            with counter.installed():
                run_plan(cli, plan, pass_dir)
        finally:
            gc.enable()
    per = plan.work_name.split("_per_")[0].removesuffix("s")
    total, binary = counter.bytecodes()
    rows = [("package bytecodes", total), ("BINARY_OP", binary), ("C calls", sum(counter.c_calls.values()))]
    rows += [(f"  {callee}", n) for callee, n in sorted(counter.c_calls.items(), key=lambda item: (-item[1], item[0]))]
    lines = [
        f"{name}: family {plan.family}, {plan.units} units, {plan.work} {per}s",
        f"{'':44} {'total':>10} {'per unit':>12} {'per ' + per:>12}",
    ]
    lines += [f"{label:44} {n:>10} {n / plan.units:>12.3f} {n / plan.work:>12.4f}" for label, n in rows]
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    root = Path(parser.parse_args(argv).tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from orthopt import cli

    package = Path(cli.__file__).resolve().parent
    if package != root / "src" / "orthopt" or Path(workloads.__file__).resolve().parent != root / "perfbench":
        print(f"orthopt or workloads was not imported from {root}", file=sys.stderr)
        return 2
    for name in workloads.WORKLOADS:
        print("\n".join(count_workload(cli, workloads, name, package)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
