"""Smoke tests: each script under scripts/ runs at small sizes and prints
one line per width."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
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
