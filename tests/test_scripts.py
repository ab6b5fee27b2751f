"""Smoke tests: each script under scripts/ runs at small sizes and prints
one line per width."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_process(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name: str, *args: str) -> list[str]:
    proc = run_process(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_compare_optimal():
    # 6 is the least width with a semiprime modulus (35); its line is the
    # script's before it shared one decision cache per modulus
    lines = run_script("compare_optimal.py", "--bits", "6..7")
    assert lines == [
        "n= 6 pairs=    62 floor_violations=0 avg_ratio=1.0614",
        "n= 7 pairs=   493 floor_violations=0 avg_ratio=1.1227",
    ]


def test_modexp_resources():
    # a header, then one line per width and adder regime
    lines = run_script("modexp_resources.py", "--widths", "8,16")
    assert lines[0].split()[:2] == ["n", "regime"]
    assert [line.split()[:2] for line in lines[1:]] == [
        ["8", "ripple"], ["8", "lookahead"], ["16", "ripple"], ["16", "lookahead"],
    ]


def test_modexp_resources_width_range():
    lines = run_script("modexp_resources.py", "--widths", "8..9")
    assert [line.split()[:2] for line in lines[1:]] == [
        ["8", "ripple"], ["8", "lookahead"], ["9", "ripple"], ["9", "lookahead"],
    ]


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("compare_optimal.py", ("--bits", "5"), "bit-width 5 outside practical range [6, 20]"),
        ("compare_optimal.py", ("--bits", "6,5"), "bit-width 5 outside practical range [6, 20]"),
        ("compare_optimal.py", ("--bits", "six"), "invalid literal for int()"),
        ("modexp_resources.py", ("--widths", "2"), "need bits >= 3 and rank >= 1"),
        ("modexp_resources.py", ("--widths", "8,2"), "need bits >= 3 and rank >= 1"),
    ],
    ids=["compare-5", "compare-6,5", "compare-six", "modexp-2", "modexp-8,2"],
)
def test_bad_width_exits_2(name, args, message):
    # one line on stderr, no traceback and no partial table, as modmult does
    proc = run_process(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"{name}: {message}")
