#!/usr/bin/env python3
"""Compare heuristic synthesis against the exact optimum for small widths.

Prints, per bit-width (6 or more), the floor-violation count (must be 0)
and the average heuristic/optimal Toffoli ratio.

Example:
    python scripts/compare_optimal.py --bits 7..9
"""

import argparse
import sys
from math import gcd

from modmult.circuit import circuit_cost
from modmult.cli import parse_bits
from modmult.numtheory import enumerate_semiprimes
from modmult.optimal import OptimalSearch
from modmult.synth import SynthesisConfig, synthesize


def main() -> int:
    """Exit 2 with a one-line message on invalid input, as modmult does."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bits", default="7..9")
    ap.add_argument("--lookahead", type=int, default=3)
    args = ap.parse_args()
    try:
        compare(args.bits, args.lookahead)
    except ValueError as exc:
        print(f"compare_optimal.py: {exc}", file=sys.stderr)
        return 2
    return 0


def compare(bits: str, lookahead: int) -> None:
    cfg = SynthesisConfig(lookahead_depth=lookahead)
    # every width's moduli first, so a width enumerate_semiprimes refuses
    # prints no partial table
    widths = [(n, enumerate_semiprimes(n)) for n in parse_bits(bits)]
    for n, semiprimes in widths:
        violations = pairs = h_sum = o_sum = 0
        for sp in semiprimes:
            m = sp.value
            floor = OptimalSearch(m, cfg.cost_model).all_costs()
            decisions: dict = {}
            for c in range(2, m):
                if gcd(c, m) != 1:
                    continue
                h = circuit_cost(synthesize(c, m, cfg, decisions), cfg.cost_model)[0]
                violations += h < floor[c]
                h_sum += h
                o_sum += floor[c]
                pairs += 1
        print(
            f"n={n:>2} pairs={pairs:>6} floor_violations={violations}"
            f" avg_ratio={h_sum / o_sum:.4f}"
        )


if __name__ == "__main__":
    sys.exit(main())
