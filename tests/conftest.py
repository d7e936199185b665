"""Shared pytest hooks and helpers: collect the acceptance PASS/FAIL lines
and print them in a summary section so they survive output capture, and run
code in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import svtr

ACCEPTANCE_LINES = []


def record_line(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_python(code: str):
    """Run ``code`` in a fresh interpreter that imports svtr from this tree."""
    src = str(Path(svtr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
                   timeout=60)
