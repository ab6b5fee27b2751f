"""Runs one benchmark workload in its own process and prints one JSON line.

run.py starts this script with the checkout's src/ as PYTHONPATH. It draws
the workload's inputs from --seed, runs timed passes until --seconds is
used up, checks every pass's output, and reports throughput, peak RSS and
circuit totals. With --trace 1 it alternates untraced passes with passes
that record spans around the calls between modmult's layers, and reports
the per-layer figures instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from math import gcd
from pathlib import Path

import modmult
from modmult import bench, circuit, modexp, numtheory, synth
from modmult.optimal import OptimalSearch

import oracle
import spans
import speed

WORKLOADS = ("sweep_n10", "sweep_n10_warm", "sweep_n16", "modexp_n128")

# Input sizes. sweep_n10 draws its modulus from the largest semiprimes of
# the width, because OptimalSearch time and memory grow with M^2; a narrow
# band keeps seeds comparable. Every sweep takes a fixed number of
# multipliers, so circuit totals compare across seeds. The toy size serves
# the smoke test only.
SIZES = {
    "full": dict(n10_bits=10, n10_band=8, n10_multipliers=400, n16_bits=16,
                 n16_moduli=6, n16_multipliers=12, prime_bits=64),
    "toy": dict(n10_bits=7, n10_band=8, n10_multipliers=10, n16_bits=13,
                n16_moduli=2, n16_multipliers=2, prime_bits=8),
}

# InterpreterKernel samples taken at the end of set-up; their median scales
# the set-up time to nominal speed.
SETUP_KERNEL_SAMPLES = 5

# Output-check effort: records re-synthesized per sweep, seeded inputs per
# circuit, and exponents composed over the modexp blocks.
CHECK_RECORDS = 48
CHECK_INPUTS = 16
CHECK_BLOCK_INPUTS = 3
CHECK_EXPONENTS = 4

BASE = 2

# sweep_n10 passes spend about half their time, and sweep_n10_warm passes
# nearly all of it, in OptimalSearch's numpy and scipy work over ~10M-entry
# arrays; the other two run in the interpreter.
KERNELS = {
    "sweep_n10": speed.MemoryKernel,
    "sweep_n10_warm": speed.MemoryKernel,
    "sweep_n16": speed.InterpreterKernel,
    "modexp_n128": speed.InterpreterKernel,
}


@dataclasses.dataclass
class Pass:
    start: float
    seconds: float
    circuits: int
    toffoli: int
    depth: int
    digest: str  # sha256 of the records CSV, or of the emitted circuit text
    errors: int  # circuits that carry a record error
    output: object
    problems: list[str] = dataclasses.field(default_factory=list)


def _prime(rng: random.Random, bits: int) -> int:
    """Seeded prime of exactly `bits` bits with its top two bits set, so a
    product of two has exactly 2*bits bits."""
    while True:
        p = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        while not numtheory.is_prime(p):
            p += 2
        if p.bit_length() == bits:
            return p


def draw_inputs(workload: str, seed: int, size: dict):
    """The workload's inputs: a SweepConfig, or a modexp modulus."""
    rng = random.Random(seed)
    if workload in ("sweep_n10", "sweep_n10_warm"):
        band = numtheory.enumerate_semiprimes(size["n10_bits"])[-size["n10_band"] :]
        m = rng.choice(band).value
        k = size["n10_multipliers"]
        coprime = [c for c in range(2, m) if gcd(c, m) == 1]
        start = coprime[rng.randrange(len(coprime) - k + 1)]
        return bench.SweepConfig(
            moduli=(m,), multiplier_cap=k, multiplier_start=start, methods=bench.METHODS, jobs=1
        )
    if workload == "sweep_n16":
        bits = size["n16_bits"]
        pool = [m.value for m in numtheory.enumerate_semiprimes(bits)]
        # Multipliers of bits-1 bits: windows that start near 2 hold far
        # cheaper circuits and would make seeds incomparable.
        return bench.SweepConfig(
            moduli=tuple(sorted(rng.sample(pool, size["n16_moduli"]))),
            multiplier_cap=size["n16_multipliers"],
            multiplier_start=rng.randrange(1 << (bits - 2), 1 << (bits - 1)),
            jobs=1,
        )
    p = _prime(rng, size["prime_bits"])
    q = p
    while q == p:
        q = _prime(rng, size["prime_bits"])
    return p * q


def _csv_digest(records: list[bench.BenchRecord]) -> str:
    return hashlib.sha256(bench.records_to_csv(records).encode()).hexdigest()


def _cache_state(path: str) -> dict[str, tuple[int, int]]:
    return {e.name: (e.inode(), e.stat().st_mtime_ns) for e in os.scandir(path)}


class Sweep:
    """bench_sweep passes. cache is "fresh" (an empty cache directory per
    pass), "warm" (one directory filled during set-up) or None."""

    def __init__(self, cfg: bench.SweepConfig, cache: str | None, tmp: str):
        self.cfg, self.cache, self.tmp = cfg, cache, tmp
        self.warm_dir = None
        if cache == "warm":
            self.warm_dir = tempfile.mkdtemp(dir=tmp)
            records = bench.bench_sweep(dataclasses.replace(cfg, cache_dir=self.warm_dir))
            self.fill_digest = _csv_digest(records)
            self.warm_state = _cache_state(self.warm_dir)

    def close(self) -> None:
        if self.warm_dir:
            shutil.rmtree(self.warm_dir)

    def run_pass(self) -> Pass:
        cache_dir = self.warm_dir or (tempfile.mkdtemp(dir=self.tmp) if self.cache else None)
        cfg = dataclasses.replace(self.cfg, cache_dir=cache_dir)
        start = time.perf_counter()
        records = bench.bench_sweep(cfg)
        seconds = time.perf_counter() - start
        p = Pass(
            start,
            seconds,
            len(records),
            sum(r.toffoli for r in records),
            sum(r.depth for r in records),
            _csv_digest(records),
            sum(1 for r in records if r.error),
            records,
        )
        if self.warm_dir:
            if _cache_state(self.warm_dir) != self.warm_state:
                p.problems.append("warm pass missed the cache: entries were written")
            if p.digest != self.fill_digest:
                p.problems.append("warm records CSV differs from the cold one")
        elif cache_dir:
            shutil.rmtree(cache_dir)
        return p

    def check(self, p: Pass, rng: random.Random) -> list[str]:
        """Re-synthesize a seeded sample of records through the public API
        and check each with the independent interpreter."""
        cfg = self.cfg
        coeffs = dict(cfg.cost_model.coeffs)
        searches: dict[int, OptimalSearch] = {}
        problems = []
        for r in rng.sample(p.output, min(CHECK_RECORDS, len(p.output))):
            m, c = r.modulus, r.multiplier
            if r.method == "heuristic":
                circ = synth.synthesize(c, m, cfg.synthesis_config())
            elif r.method == "baseline":
                circ = synth.baseline_synthesize(c, m)
            elif r.method == "euclid":
                circ = synth.trace_to_circuit(synth.euclid_trace(m, c), m)
            else:
                if m not in searches:
                    searches[m] = OptimalSearch(m, cfg.cost_model, bit_cap=cfg.optimal_bit_cap)
                circ = searches[m].circuit(c)
            xs = [rng.randrange(m) for _ in range(CHECK_INPUTS)]
            fault = oracle.problem(circuit.serialize(circ), m, c, xs, coeffs, r.toffoli)
            if fault:
                problems.append(f"{r.method} C={c} M={m}: {fault}")
        return problems


class ModExp:
    """build_modexp passes: base 2, lookahead adders, one modulus."""

    def __init__(self, m: int):
        self.m = m

    def close(self) -> None:
        pass

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        circ = modexp.build_modexp(self.m, BASE, depth_model=circuit.DepthModel.lookahead())
        seconds = time.perf_counter() - start
        texts = [circuit.serialize(block) for block, _ in circ.blocks]
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        return Pass(start, seconds, circ.positions, circ.toffoli, circ.depth, digest, 0, (circ, texts))

    def check(self, p: Pass, rng: random.Random) -> list[str]:
        """Every block multiplies by BASE^(2^i) mod M; the Toffoli total adds
        up; blocks composed over seeded exponents z give BASE^z mod M."""
        circ, texts = p.output
        m = self.m
        coeffs = dict(circuit.DEFAULT_COST_MODEL.coeffs)
        problems = []
        c = BASE % m
        for i, text in enumerate(texts):
            xs = [rng.randrange(m) for _ in range(CHECK_BLOCK_INPUTS)]
            fault = oracle.problem(text, m, c, xs, coeffs)
            if fault:
                problems.append(f"block {i}: {fault}")
            c = c * c % m
        if problems:
            return problems
        progs = [oracle.load(t) for t in texts]
        slope, intercept = coeffs["CSWAP_LAYER"]
        total = sum(oracle.toffoli(prog, coeffs) for prog in progs)
        total += 2 * len(progs) * (slope * m.bit_length() + intercept)
        if total != circ.toffoli:
            problems.append(f"toffoli total {circ.toffoli} != {total} counted from blocks")
        for _ in range(CHECK_EXPONENTS):
            z = rng.getrandbits(len(progs))
            x = 1
            try:
                for i, prog in enumerate(progs):
                    if z >> i & 1:
                        x, other = oracle.run(prog, x)
                        if other:
                            raise ValueError(f"block {i} left {other} in its other register")
            except ValueError as exc:
                problems.append(f"z={z:#x}: {exc}")
                continue
            if x != pow(BASE, z, m):
                problems.append(f"z={z:#x}: composed blocks give {x}, not {BASE}^z mod M")
        return problems


def make_workload(workload: str, inputs, tmp: str):
    if workload == "modexp_n128":
        return ModExp(inputs)
    cache = {"sweep_n10": "fresh", "sweep_n10_warm": "warm"}.get(workload)
    return Sweep(inputs, cache, tmp)


def run_passes(run_round, budget: float) -> list:
    """Calls run_round() at least once, and again while another call is
    expected to fit in the budget."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round())
        used = time.perf_counter() - start
        if used + used / len(rounds) > budget:
            return rounds


def _versions(*packages: str) -> dict[str, str]:
    out = {}
    for name in packages:
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = "absent"
    return out


def throughput(passes: list[Pass], meter: speed.Speedometer | None = None) -> float:
    """Median circuits per second over the passes, at nominal speed when a
    Speedometer sampled them."""
    return statistics.median(
        p.circuits / (meter.nominal_seconds(p.start, p.seconds) if meter else p.seconds)
        for p in passes
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--tmp", required=True, help="directory for cache directories")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(modmult.__file__).resolve().is_relative_to(src):
        print(f"modmult imported from {modmult.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        spans.install_setup(tracer, numtheory)
    inputs = draw_inputs(args.workload, args.seed, SIZES[args.size])
    if tracer:
        tracer.restore()
    work = make_workload(args.workload, inputs, args.tmp)
    try:
        kernel = speed.InterpreterKernel()
        samples = [kernel() for _ in range(SETUP_KERNEL_SAMPLES)]
        setup = {
            "ready": time.monotonic(),
            "setup_kernel_s": sum(samples),
            "setup_scale": kernel.NOMINAL_S / statistics.median(samples),
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if tracer:

            def traced_pass() -> Pass:
                spans.install_layers(tracer, bench, modexp)
                try:
                    return work.run_pass()
                finally:
                    tracer.restore()

            # Alternating keeps both kinds of pass under the same drift in
            # machine speed, so trace.overhead_frac compares like with like.
            pairs = run_passes(lambda: (work.run_pass(), traced_pass()), args.seconds)
            plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
            passes = plain + traced
        else:
            with speed.Speedometer(KERNELS[args.workload]()) as meter:
                passes = run_passes(work.run_pass, args.seconds)

        first = passes[0]
        problems = work.check(first, random.Random(f"check:{args.seed}"))
        failed = len(problems) + sum(p.errors for p in passes)
        for i, p in enumerate(passes):
            if p.digest != first.digest:
                p.problems.append(f"pass {i} output differs from pass 0")
            if p.problems:
                failed += p.circuits
                problems += p.problems
        attempted = sum(p.circuits for p in passes)
        failed = min(failed, attempted)

        out = {
            **setup,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "passes": len(passes),
            "circuits": first.circuits,
            "sha256": first.digest,
            "versions": {"python": sys.version.split()[0], **_versions("numpy", "scipy")},
        }
        if tracer:
            layers = spans.per_layer(tracer, len(traced))
            layers["trace.overhead_frac"] = throughput(plain) / throughput(traced) - 1
            out["metrics"] = layers
        else:
            out["wall_circuits_per_s"] = throughput(passes)
            out["metrics"] = {
                "circuits_per_s": throughput(passes, meter),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "toffoli_total": first.toffoli,
                "depth_total": first.depth,
                "verified_frac": 1 - failed / attempted,
            }
        print(json.dumps(out))
        return 0
    finally:
        work.close()


if __name__ == "__main__":
    sys.exit(main())
