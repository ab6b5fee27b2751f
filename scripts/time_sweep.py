#!/usr/bin/env python3
"""CPU seconds per layer of a cold four-method sweep, across bit-widths.

For each width n (6 to 12, the exact search's cap), takes the largest
n-bit semiprime and runs `bench_sweep` over it as `modmult bench` does, with
every coprime multiplier from 2 up (the default selection at these widths),
here with all four methods and no cache, three times, each pass cold (a new
config, so new decision tables, memos and searches). Each layer is timed by
wrapping the function `bench` calls, with no profiler: the heuristic's
synthesis (lookahead), the baseline, Euclid (trace and circuit), the
exact-search build, its batched circuit reconstruction
(`OptimalSearch.circuits`), `verify`, and `circuit_cost` plus
`circuit_depth`; "rest" is the rest of the pass's CPU. It prints the median
of the three passes per column, then the process's peak RSS so far
(ru_maxrss).

Example:
    python scripts/time_sweep.py
    python scripts/time_sweep.py --bits 10
"""

import argparse
import resource
import statistics
import sys
import time

from modmult import bench
from modmult.cli import parse_bits
from modmult.numtheory import enumerate_semiprimes
from modmult.optimal import OptimalSearch

PASSES = 3
# column -> the functions it times: (owner, attribute) pairs
LAYERS = {
    "lookahead": ((bench, "synthesize"),),
    "baseline": ((bench, "baseline_synthesize"),),
    "euclid": ((bench, "euclid_trace"), (bench, "trace_to_circuit")),
    "build": ((bench, "OptimalSearch"),),
    "reconstruct": ((OptimalSearch, "circuits"),),
    "verify": ((bench, "verify"),),
    "cost_depth": ((bench, "circuit_cost"), (bench, "circuit_depth")),
}
COLUMNS = (*LAYERS, "rest", "total")


def main() -> int:
    """Exit 2 with a one-line message on invalid input, as modmult does."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bits", default="10..12")
    args = ap.parse_args()
    try:
        table(args.bits)
    except ValueError as exc:
        print(f"time_sweep.py: {exc}", file=sys.stderr)
        return 2
    return 0


def _timed(fn, spent: dict, column: str):
    def timed(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[column] += time.process_time() - start

    return timed


def _cold_pass(m: int) -> dict[str, float]:
    """CPU seconds per column of one cold sweep of m."""
    cfg = bench.SweepConfig(moduli=(m,), methods=bench.METHODS)
    spent = dict.fromkeys(COLUMNS, 0.0)
    saved = [
        (owner, name, getattr(owner, name)) for pairs in LAYERS.values() for owner, name in pairs
    ]
    for column, pairs in LAYERS.items():
        for owner, name in pairs:
            setattr(owner, name, _timed(getattr(owner, name), spent, column))
    start = time.process_time()
    try:
        bench.bench_sweep(cfg)
    finally:
        spent["total"] = time.process_time() - start
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    spent["rest"] = spent["total"] - sum(spent[column] for column in LAYERS)
    return spent


def table(bits: str) -> None:
    # every modulus first, so a bad width prints no partial table
    moduli = []
    for n in parse_bits(bits):
        if n > (cap := bench.SweepConfig.optimal_bit_cap):
            raise ValueError(f"width {n} is above the exact search's cap of {cap}")
        moduli.append((n, enumerate_semiprimes(n)[-1].value))
    header = " ".join(f"{column:>11}" for column in COLUMNS)
    print(f"{'n':>3} {'modulus':>7} {header} {'maxrss_mb':>9}")
    for n, m in moduli:
        passes = [_cold_pass(m) for _ in range(PASSES)]
        cells = " ".join(f"{statistics.median(p[c] for p in passes):>11.4f}" for c in COLUMNS)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{n:>3} {m:>7} {cells} {rss:>9.1f}")


if __name__ == "__main__":
    sys.exit(main())
