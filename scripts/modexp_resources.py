#!/usr/bin/env python3
"""Resource table for full modular exponentiation across bit-widths.

For each width, picks the largest prime modulus, synthesizes its
exponentiation once, and reports Toffoli count, depth, and qubit totals under
both adder regimes.

Example:
    python scripts/modexp_resources.py --widths 16,32,64,128
    python scripts/modexp_resources.py --widths 8..12
"""

import argparse
import sys

from modmult.circuit import DepthModel
from modmult.cli import parse_bits
from modmult.modexp import build_modexp, modexp_depth
from modmult.numtheory import nth_largest_prime


def main() -> int:
    """Exit 2 with a one-line message on invalid input, as modmult does."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--widths", default="16,32,64,128")
    ap.add_argument("--base", type=int, default=2)
    args = ap.parse_args()
    try:
        table(args.widths, args.base)
    except ValueError as exc:
        print(f"modexp_resources.py: {exc}", file=sys.stderr)
        return 2
    return 0


def table(widths: str, base: int) -> None:
    # every modulus first, so a bad width prints no partial table
    moduli = [(n, int(nth_largest_prime(n, 1))) for n in parse_bits(widths)]
    header = f"{'n':>4} {'regime':<9} {'toffoli':>12} {'cnot':>12} {'depth':>12} {'ancillae':>9} {'qubits':>7}"
    print(header)
    for n, m in moduli:
        r = build_modexp(m, base)
        for name, dm in (("ripple", DepthModel.ripple()), ("lookahead", DepthModel.lookahead())):
            depth, ancillae, qubits = modexp_depth(m, r.blocks, dm)
            print(f"{n:>4} {name:<9} {r.toffoli:>12} {r.cnot:>12} {depth:>12} "
                  f"{ancillae:>9} {qubits:>7}")


if __name__ == "__main__":
    sys.exit(main())
