"""Byte contract: every ``tools/golden.py`` invocation (CSV bytes, stdout,
stderr and exit code) hashes to the digest committed in ``tools/golden.txt``,
on the build named in that file's first line."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _digests(lines):
    return dict(reversed(line.split("  ", 1)) for line in lines[1:])


def test_cli_bytes_match_committed_digests():
    expected = (ROOT / "tools" / "golden.txt").read_text(encoding="utf-8").splitlines()
    # A subprocess, because golden.py pins BLAS before numpy is imported.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden.py"), str(ROOT)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    got = proc.stdout.splitlines()
    if got[0] != expected[0]:
        pytest.skip(f"digests were made on another build; this one is {got[0]}")
    want, have = _digests(expected), _digests(got)
    differ = [label for label in want.keys() | have.keys() if want.get(label) != have.get(label)]
    assert not differ, "bytes changed for: " + "; ".join(sorted(differ))
