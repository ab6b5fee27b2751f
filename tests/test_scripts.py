"""Smoke tests: each script under scripts/ runs at small sizes and prints
one line per width or depth."""

import importlib.util
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from modmult.synth import _round

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
    # a header, then one line per width and adder regime; the text is that of
    # the script when it built each width once per regime
    lines = run_script("modexp_resources.py", "--widths", "8,16")
    assert lines == [
        "   n regime         toffoli         cnot        depth  ancillae  qubits",
        "   8 ripple            2756          512         3216        42      66",
        "   8 lookahead         2756          512         3117        52      76",
        "  16 ripple           27998         2320        26566        82     130",
        "  16 lookahead        27998         2320        16385       107     155",
    ]


def test_modexp_resources_width_range():
    lines = run_script("modexp_resources.py", "--widths", "8..9")
    assert [line.split()[:2] for line in lines[1:]] == [
        ["8", "ripple"], ["8", "lookahead"], ["9", "ripple"], ["9", "lookahead"],
    ]


def test_time_synth():
    # a header, then one line per width: its multipliers, mean moves per
    # trace (fixed by the modulus), CPU seconds per synthesis and peak RSS
    lines = run_script("time_synth.py", "--widths", "16,32")
    assert lines[0].split() == ["n", "mults", "moves", "cpu_s", "maxrss_mb"]
    assert [line.split()[:3] for line in lines[1:]] == [["16", "8", "26"], ["32", "8", "53"]]


def test_time_sweep():
    # a header, then one line per width: the largest semiprime, the median
    # CPU seconds of each layer, the rest, the pass total and peak RSS
    lines = run_script("time_sweep.py", "--bits", "7")
    assert lines[0].split() == [
        "n", "modulus", "lookahead", "baseline", "euclid", "build", "reconstruct",
        "verify", "cost_depth", "rest", "total", "maxrss_mb",
    ]
    [line] = lines[1:]
    n, m, *seconds, total, rss = line.split()
    assert (n, m) == ("7", "119")  # 7 * 17
    assert all(float(s) >= 0 for s in seconds) and float(total) > 0


def test_revisit_certificate():
    # every (root, undo) case at depths 1-3; depths 4 and 5 take about
    # 10 s and 1.5 min (and 0.5 GB), so they run by hand
    lines = run_script("revisit_certificate.py", "--depths", "1..3")
    assert lines == [
        "k=1 cases=  3230 revisiting=      0 harmful=0",
        "k=2 cases= 12590 revisiting=      0 harmful=0",
        "k=3 cases= 50210 revisiting=     54 harmful=0",
    ]


def test_revisit_certificate_enumerates_the_lookahead():
    # the certificate's sequences are the ones a round scores: the least
    # (score, first move) over all of them, revisiting or not, that are
    # legal under the cap and do not start with `undo` is `_round`'s, on
    # seeded roots where revisits are in reach, free prices included
    spec = importlib.util.spec_from_file_location("cert", ROOT / "scripts" / "revisit_certificate.py")
    cert = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cert)
    rng = random.Random(7)
    prices = [(36, 38), (3, 1), (3, 3), (0, 5), (5, 0), (0, 0)]
    checked = 0
    while checked < 400:
        k = rng.randint(1, 4)
        a, b = rng.randint(1, cert.CYCLE_MAX << k), rng.randint(1, cert.CYCLE_MAX << k)
        if gcd(a, b) != 1 or a == b:
            continue
        found = cert.sequences(a, b, k, {})
        undo = rng.choice(cert.UNDOS)
        add_cost, hlv_cost = rng.choice(prices)
        cap = rng.choice([max(a, b) + 1, a + b + 1, 4 * max(a, b)])
        scored = [
            (add_cost * adds + hlv_cost * halvings, first)
            for first, groups in found.items()
            if first != undo
            for group in groups
            for adds, halvings, top in group
            if top < cap
        ]
        got = _round(a, b, undo, k, cap, add_cost, hlv_cost, {})
        assert got == min(scored, default=None), (a, b, undo, k, cap, add_cost, hlv_cost)
        checked += 1


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("compare_optimal.py", ("--bits", "5"), "bit-width 5 outside practical range [6, 20]"),
        ("compare_optimal.py", ("--bits", "6,5"), "bit-width 5 outside practical range [6, 20]"),
        ("compare_optimal.py", ("--bits", "six"), "invalid literal for int()"),
        ("modexp_resources.py", ("--widths", "2"), "need bits >= 3 and rank >= 1"),
        ("modexp_resources.py", ("--widths", "8,2"), "need bits >= 3 and rank >= 1"),
        ("compare_optimal.py", ("--bits", "9..7"), "empty range 9..7"),
        ("modexp_resources.py", ("--widths", "9..7"), "empty range 9..7"),
        ("revisit_certificate.py", ("--depths", "6"), "depth 6 outside [1, 5]"),
        ("revisit_certificate.py", ("--depths", "3..1"), "empty range 3..1"),
        ("time_synth.py", ("--widths", "16,5"), "width 5 is below 6"),
        ("time_synth.py", ("--widths", "9..7"), "empty range 9..7"),
        ("time_sweep.py", ("--bits", "5"), "bit-width 5 outside practical range [6, 20]"),
        ("time_sweep.py", ("--bits", "10,13"), "width 13 is above the exact search's cap of 12"),
    ],
    ids=[
        "compare-5", "compare-6,5", "compare-six", "modexp-2", "modexp-8,2",
        "compare-9..7", "modexp-9..7", "certificate-6", "certificate-3..1",
        "time-16,5", "time-9..7", "sweep-5", "sweep-10,13",
    ],
)
def test_bad_width_exits_2(name, args, message):
    # one line on stderr, no traceback and no partial table, as modmult does
    proc = run_process(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"{name}: {message}")
