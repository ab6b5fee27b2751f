#!/usr/bin/env python3
"""CPU time per heuristic synthesis across bit-widths.

For each width n (6 or more), takes one fixed semiprime p*q: p the largest
prime of n//2 bits, q the second largest of n - n//2 bits (at 128 bits,
(2^64 - 59)(2^64 - 83)). It synthesizes the last 8 multipliers of that
modulus's modexp plan for base 3 with the default settings, and prints
the mean moves per trace, the mean CPU seconds per synthesis, and the
process's peak RSS so far (ru_maxrss). The last multipliers are full-width
residues, as nearly every position of a plan is; the first few of a small
base are small values, whose traces cost more per move.

Example:
    python scripts/time_synth.py --widths 128,512,1024,2048
    python scripts/time_synth.py --widths 16..20
"""

import argparse
import resource
import sys
import time

from modmult.circuit import FANOUT
from modmult.cli import parse_bits
from modmult.modexp import modexp_plan
from modmult.numtheory import nth_largest_prime
from modmult.synth import synthesize


def main() -> int:
    """Exit 2 with a one-line message on invalid input, as modmult does."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--widths", default="128,512,1024")
    args = ap.parse_args()
    try:
        table(args.widths)
    except ValueError as exc:
        print(f"time_synth.py: {exc}", file=sys.stderr)
        return 2
    return 0


def table(widths: str) -> None:
    # every modulus and plan first, so a bad width prints no partial table
    plans = []
    for n in parse_bits(widths):
        if n < 6:  # p and q need 3 bits each
            raise ValueError(f"width {n} is below 6")
        m = nth_largest_prime(n // 2, 1) * nth_largest_prime(n - n // 2, 2)
        plans.append((n, m, modexp_plan(m, 3)[-8:]))
    print(f"{'n':>5} {'mults':>5} {'moves':>7} {'cpu_s':>9} {'maxrss_mb':>9}")
    for n, m, mults in plans:
        moves = 0
        start = time.process_time()
        for c in mults:
            ops = synthesize(c, m).ops
            # a trace's circuit is FANOUT and one block per move
            moves += len(ops) - 1 if ops and ops[0].opcode == FANOUT else 0
        cpu = (time.process_time() - start) / len(mults)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{n:>5} {len(mults):>5} {moves / len(mults):>7.0f} {cpu:>9.4f} {rss:>9.1f}")


if __name__ == "__main__":
    sys.exit(main())
