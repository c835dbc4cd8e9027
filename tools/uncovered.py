"""Executable lines of ``src/orthopt`` that no test runs.

Usage::

    python tools/uncovered.py [<tree>]

runs pytest in-process over ``<tree>/tests`` (default: the tree holding this
script) under a line tracer (``sys.settrace``) and prints, per module of
``<tree>/src/orthopt``, the executable lines that no test ran, with their
text, as the standard library's ``trace`` module finds them.  It needs nothing
beyond the standard library and the test suite's own dependencies.  It is run
by hand, not as part of the test suite.

Tests that run the package in a subprocess are invisible to the tracer, which
follows only its own process: the golden digests (``tests/test_golden.py``)
and the BLAS-thread and fresh-interpreter tests of ``tests/test_cli.py``.  A
line that only they run is listed.

Only the package's own frames are traced line by line, so the suite runs
nearly at full speed and the acceptance criteria that assert their own
runtime keep their bounds.  The exit code is pytest's, so a test that fails
under tracing shows there.
"""

from __future__ import annotations

import os
import sys
import tempfile
import trace
from pathlib import Path


def run_counting_lines(fn, package: Path):
    """``fn()`` and the set of (file, line) pairs it ran in ``package``.

    ``trace.Trace`` with ``ignoredirs`` would trace only the package too, but
    it caches its verdict by module base name, so every ``__init__.py``, and
    any module named like an ignored one, would share the first verdict."""
    prefix, hit = f"{package}{os.sep}", set()

    def count(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return count

    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename.startswith(prefix) else None)
    try:
        return fn(), hit
    finally:
        sys.settrace(None)


def unrun_lines(hit: set, package: Path) -> dict[str, list[tuple[int, str]]]:
    """Per module of ``package``, the (line number, text) of each executable line not in ``hit``."""
    with tempfile.TemporaryDirectory() as coverdir:
        # show_missing marks each executable line that has no count with ">>>>>>"
        results = trace.CoverageResults(counts=dict.fromkeys(hit, 1))
        results.write_results(show_missing=True, summary=False, coverdir=coverdir)
        # each listing is named <dotted module path>.cover
        listings = {p.stem.rsplit(".", 1)[-1]: p.read_text("utf-8") for p in Path(coverdir).glob("*.cover")}
    unrun = {}
    for module in sorted(p.stem for p in package.glob("*.py")):
        listing = listings.get(module)
        if listing is None:
            unrun[module] = [(0, "never imported")]
        else:
            lines = enumerate(listing.splitlines(), 1)
            unrun[module] = [(n, text[7:].strip()) for n, text in lines if text.startswith(">>>>>>")]
    return unrun


def main(argv: list[str]) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    package = tree / "src" / "orthopt"
    import pytest  # its config (the tree's pyproject.toml) puts src/ on the path

    args = [str(tree / "tests"), "-q", "-p", "no:cacheprovider", "--rootdir", str(tree)]
    os.chdir(tree)
    code, hit = run_counting_lines(lambda: pytest.main(args), package)
    unrun = unrun_lines(hit, package)
    print(f"\nexecutable lines of src/orthopt that no test ran ({sum(map(len, unrun.values()))}):")
    for module, lines in unrun.items():
        print(f"{module}.py: {len(lines)}")
        for n, text in lines:
            print(f"  {n:4d}  {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
