"""Command-line interface.

Subcommands: primes, semiprimes, synth, optimal, verify, modexp, bench.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter

from . import bench as bench_mod
from .circuit import (
    CostModel,
    DepthModel,
    circuit_cost,
    circuit_depth,
    load_model_file,
    parse,
    serialize,
)
from .modexp import build_modexp
from .numtheory import Modulus, enumerate_semiprimes, nth_largest_prime
from .optimal import OptimalSearch
from .simulate import verify
from .synth import SynthesisConfig


def _models(path: str | None) -> tuple[CostModel, DepthModel, bool]:
    """The model file's cost and depth models, or the defaults, and whether
    the file has a depth section."""
    if path:
        return load_model_file(path)
    return CostModel(), DepthModel.ripple(), False


def _cmd_primes(args) -> int:
    print(nth_largest_prime(args.bits, args.rank))
    return 0


def _cmd_semiprimes(args) -> int:
    for m in enumerate_semiprimes(args.bits):
        print(m.value)
    return 0


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_synth(args) -> int:
    cost, _, _ = _models(args.cost_model)
    cfg = SynthesisConfig(
        lookahead_depth=args.lookahead,
        cost_model=cost,
        use_special_cases=not args.no_special,
    )
    Modulus(args.modulus)  # odd and >= 3, or ValueError
    circ = bench_mod.method_circuit(args.method, args.multiplier, args.modulus, cfg)
    _write_or_print(serialize(circ), args.output)
    return 0


def _cmd_optimal(args) -> int:
    """Print one least-cost circuit (--multiplier), or every unit's cost
    (--all) on stdout, which takes no --multiplier or -o."""
    if not args.all and args.multiplier is None:
        raise ValueError("provide --multiplier or --all")
    if args.all and (args.multiplier is not None or args.output):
        raise ValueError("--all prints every cost to stdout; it takes no --multiplier or -o")
    cost, _, _ = _models(args.cost_model)
    search = OptimalSearch(args.modulus, cost)
    if args.all:
        for c, value in sorted(search.all_costs().items()):
            print(f"{c},{value}")
        return 0
    _write_or_print(serialize(search.circuit(args.multiplier)), args.output)
    return 0


def _cmd_verify(args) -> int:
    """Decide every x in [0, M), at any width. Exit 0 on a pass, 1 on a
    mismatch (2, from `main`, for a file that cannot be read or has an
    invalid header)."""
    with open(args.circuit, encoding="utf-8") as fh:
        report = verify(parse(fh.read()))
    print(report.summary())
    for x, res, other in report.failures:
        print(f"  x={x}: result={res} other={other}")
    return 0 if report.passed else 1


def _cmd_modexp(args) -> int:
    """Price depth with the model file's depth model, as `bench` does.
    --adder picks a built-in depth model instead, which is refused when the
    file has a depth section of its own."""
    cost, depth, priced_depth = _models(args.cost_model)
    if args.adder:
        if priced_depth:
            raise ValueError(f"--adder and the depth section of {args.cost_model} both price depth")
        depth = DepthModel.lookahead() if args.adder == "lookahead" else DepthModel.ripple()
    cfg = SynthesisConfig(cost_model=cost)
    result = build_modexp(args.modulus, args.base, cfg, depth)
    summary = {
        "toffoli": result.toffoli,
        "cnot": result.cnot,
        "depth": result.depth,
        "positions": result.positions,
        "distinct_blocks": result.distinct_blocks,
        "ancillae": result.ancilla_count,
        "qubits": result.qubit_count,
    }
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        seen = set()
        for block, _ in result.blocks:
            if block.multiplier in seen:
                continue
            seen.add(block.multiplier)
            path = os.path.join(args.output_dir, f"um_c{block.multiplier}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize(block))
        with open(os.path.join(args.output_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.stats or not args.output_dir:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def parse_bits(spec: str) -> tuple[int, ...]:
    """Bit-width spec: "7..10" (inclusive range) or "7,9,12"."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in spec.split(","))


_ERROR_LINES = 5  # distinct record errors `bench` prints, most frequent first


def _cmd_bench(args) -> int:
    """Open --out and --summary before the sweep, so that an unwritable
    path is refused before any modulus is swept. A sweep whose records
    carry errors names each distinct error with its count on stderr, then
    the number of such records, and exits 3."""
    cost, depth, _ = _models(args.cost_model)
    if args.moduli:
        with open(args.moduli, encoding="utf-8") as fh:
            moduli = tuple(int(line) for line in fh if line.strip())
    else:  # a width outside [6, 20] is refused here
        moduli = tuple(m.value for bits in parse_bits(args.bits) for m in enumerate_semiprimes(bits))
    cfg = bench_mod.SweepConfig(
        moduli=moduli,
        multiplier_cap=args.multiplier_cap,
        methods=tuple(args.methods.split(",")),
        cost_model=cost,
        depth_model=depth,
        cache_dir=args.cache,
        timing=args.timing,
    )
    write = {"mode": "w", "encoding": "utf-8", "newline": ""}
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.out, **write))
        summary = stack.enter_context(open(args.summary, **write)) if args.summary else None
        records = bench_mod.bench_sweep(cfg)
        out.write(bench_mod.records_to_csv(records))
        if summary:
            bench_mod.write_summary_csv(bench_mod.aggregate(records), summary)
    errors = Counter(r.error for r in records if r.error)
    if errors:
        for error, count in errors.most_common(_ERROR_LINES):
            print(f"{count} x {error}", file=sys.stderr)
        if len(errors) > _ERROR_LINES:
            print(f"... {len(errors) - _ERROR_LINES} more distinct errors", file=sys.stderr)
        print(f"{errors.total()} records carry errors", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modmult")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", help="print the rank-th largest prime of a bit-width")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--rank", type=int, default=1)
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("semiprimes", help="print all semiprime moduli of a bit-width")
    p.add_argument("--bits", type=int, required=True)
    p.set_defaults(func=_cmd_semiprimes)

    p = sub.add_parser("synth", help="synthesize one multiplication circuit")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--multiplier", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["heuristic", "baseline", "euclid"],
        default="heuristic",
    )
    p.add_argument("--lookahead", type=int, default=3)
    p.add_argument("--cost-model", dest="cost_model")
    p.add_argument("--no-special", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("optimal", help="exact minimum-cost circuits (small moduli)")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--multiplier", type=int)
    p.add_argument("--all", action="store_true", help="stream C,cost CSV lines")
    p.add_argument("--cost-model", dest="cost_model")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("verify", help="simulate a circuit file against C*x mod M")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("modexp", help="assemble a full modular-exponentiation circuit")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--base", type=int, default=2)
    p.add_argument(
        "--adder",
        choices=["ripple", "lookahead"],
        help="built-in depth model (default: the model file's, else ripple)",
    )
    p.add_argument("--stats", action="store_true")
    p.add_argument("--cost-model", dest="cost_model")
    p.add_argument("-o", "--output-dir", dest="output_dir")
    p.set_defaults(func=_cmd_modexp)

    p = sub.add_parser("bench", help="run a benchmark sweep and emit CSV")
    p.add_argument("--bits", default="7")
    p.add_argument("--moduli", help="file with one modulus per line")
    p.add_argument("--multiplier-cap", type=int, dest="multiplier_cap")
    p.add_argument("--methods", default="heuristic,baseline")
    p.add_argument("--cost-model", dest="cost_model")
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    p.add_argument("--cache")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; exit 2 with a one-line message on invalid input.

    The library reports invalid input as a `ValueError`: a multiplier or
    base not coprime to the modulus, a modulus past a cap, a lookahead
    depth out of range, a cost model pricing a searched op at <= 0, a model
    file that is missing or malformed, or a circuit file with an invalid
    header. A file named on the command line that cannot be read or written
    raises an `OSError`, handled the same way."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"modmult {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
