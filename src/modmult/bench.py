"""Benchmark harness: sweeps over semiprime moduli and coprime
multipliers, per-method records, Table-style aggregation, CSV emission,
and a result cache.

Every record's circuit is verified, over every input. SweepConfig holds
the moduli it sweeps and refuses a sweep that selects nothing.
`method_circuit` maps a method name to its circuit for C mod M, for sweeps
and `modmult synth` alike.

The cache holds one file per (modulus, SweepConfig.config_hash): a shard of
every stored record of that modulus under that config, labelled with both
and with the record field list, and one sha256 over its canonical JSON. A
sweep reads a modulus's shard once, and writes it once, merged with the new
records, only when some record missed. A missing, unreadable, tampered or
mislabelled shard is a miss for every record in it. The config hash covers
a cache schema version (4), so files of an older layout are ignored.
Records that carry an error are never stored.

A sweep builds a modulus's OptimalSearch only when one of its optimal
records misses, so a warm sweep builds no search, and then reconstructs the
optimal circuits of every missed multiplier in one batched walk
(`OptimalSearch.circuits`) before it makes any record. That walk is
per-modulus work, like the build: under `timing`, an optimal record's
`wall_seconds` covers its pricing and verification, not its
reconstruction, and a walk that fails fails the sweep, as a refused search
does. Every read verifies the whole shard; a re-read of an unchanged shard
shares the records of the last read instead of building new ones.

Output ordering is deterministic (modulus, multiplier, method); with
timing disabled (the default) two identical sweeps produce byte-identical
CSV files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from statistics import mean
from typing import IO, ClassVar, Iterable, Mapping

from .circuit import BlockCircuit, CostModel, DepthModel, circuit_cost, circuit_depth
from .numtheory import Modulus
from .optimal import DEFAULT_BIT_CAP, OptimalSearch
from .simulate import verify
from .synth import (
    SynthesisConfig,
    baseline_synthesize,
    euclid_trace,
    synthesize,
    trace_to_circuit,
)

__all__ = [
    "METHODS",
    "BenchRecord",
    "SweepConfig",
    "MixedModels",
    "SummaryRow",
    "method_circuit",
    "bench_sweep",
    "aggregate",
    "records_to_csv",
    "write_summary_csv",
    "cache_path",
    "cache_read",
    "cache_lookup",
    "cache_store",
]

METHODS = ("heuristic", "baseline", "euclid", "optimal")

CSV_HEADER = "bits,modulus,multiplier,method,toffoli,cnot,depth,ops,qubits,seconds,model_hash"

# multiplier selection defaults: every coprime C at or below this width,
# the first 5000 above
_ALL_C_BIT_CAP = 12
_LARGE_C_CAP = 5000

# part of every config hash, so of every cache file name; bump it when a
# record's fields, their meaning or the cache layout change, so files written
# before are misses
_CACHE_SCHEMA = 4


class MixedModels(ValueError):
    """Aggregation refused: records computed under different cost models."""


@dataclass(frozen=True, slots=True)
class BenchRecord:
    bits: int
    modulus: int
    multiplier: int
    method: str
    toffoli: int
    cnot: int
    depth: int
    op_count: int
    qubits: int
    wall_seconds: float
    cost_model_hash: str
    error: str = ""

    def csv_row(self) -> str:
        return (
            f"{self.bits},{self.modulus},{self.multiplier},{self.method},"
            f"{self.toffoli},{self.cnot},{self.depth},{self.op_count},"
            f"{self.qubits},{self.wall_seconds:.6f},{self.cost_model_hash}"
        )


@dataclass(frozen=True)
class SweepConfig:
    moduli: tuple[int, ...]
    multiplier_cap: int | None = None  # None = width-based default
    multiplier_start: int = 2
    methods: tuple[str, ...] = ("heuristic", "baseline")
    jobs: int = 1  # sweeps run in one process; any other value is refused
    cost_model: CostModel = field(default_factory=CostModel)
    depth_model: DepthModel = field(default_factory=DepthModel.ripple)
    cache_dir: str | None = None
    timing: bool = False
    optimal_bit_cap: ClassVar[int] = DEFAULT_BIT_CAP

    def __post_init__(self) -> None:
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1, got {self.jobs}")
        for name in ("moduli", "methods"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {values}: each would be swept twice")
        if not self.moduli:
            raise ValueError("no moduli to sweep: the widths or moduli given are empty")
        if not self.methods:
            raise ValueError("no methods to sweep")
        if self.multiplier_cap is not None and self.multiplier_cap < 1:
            raise ValueError(f"multiplier cap must be >= 1, got {self.multiplier_cap}")
        if self.multiplier_start < 1:
            raise ValueError(f"multiplier start must be >= 1, got {self.multiplier_start}")
        for m in self.moduli:
            Modulus(m)  # odd and >= 3, or ValueError
        # C = M - 1 is a unit of every M, so a start below the largest M
        # selects at least one multiplier
        if self.multiplier_start >= max(self.moduli):
            raise ValueError(
                f"multiplier start {self.multiplier_start} selects no multiplier:"
                f" the largest modulus is {max(self.moduli)}"
            )
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        if "optimal" in self.methods:
            if max(m.bit_length() for m in self.moduli) > self.optimal_bit_cap:
                raise ValueError("optimal method requested beyond its bit cap")

    def synthesis_config(self) -> SynthesisConfig:
        """The defaults under this sweep's cost model, built once."""
        return self._synthesis_config

    @cached_property
    def _synthesis_config(self) -> SynthesisConfig:
        return SynthesisConfig(cost_model=self.cost_model)

    @cached_property
    def config_hash(self) -> str:
        """Hash of every setting that shapes a record -- cost and depth
        models, synthesis config, timing flag -- and the cache schema.
        Computed once per config; the result cache keys on it."""
        doc = [
            _CACHE_SCHEMA,
            self.cost_model.hash,
            dataclasses.asdict(self.depth_model),
            dataclasses.asdict(self.synthesis_config()),
            self.timing,
        ]
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _multipliers(m: int, cfg: SweepConfig) -> list[int]:
    cap = cfg.multiplier_cap
    if cap is None:
        cap = None if m.bit_length() <= _ALL_C_BIT_CAP else _LARGE_C_CAP
    out = []
    c = cfg.multiplier_start
    while c < m and (cap is None or len(out) < cap):
        if gcd(c, m) == 1:
            out.append(c)
        c += 1
    return out


def method_circuit(
    method: str,
    c: int,
    m: int,
    cfg: SynthesisConfig,
    opt: Mapping[int, BlockCircuit] | None = None,
    decisions: dict | None = None,
) -> BlockCircuit:
    """The circuit that `method`, one of METHODS, builds for C mod M. The
    heuristic shares `decisions` (see `synthesize`); the optimal method
    reads opt[C mod M], from a mapping of optimal circuits of M that the
    caller reconstructs (`OptimalSearch.circuits`)."""
    c %= m
    if method == "heuristic":
        return synthesize(c, m, cfg, decisions)
    if method == "baseline":
        return baseline_synthesize(c, m)
    if method == "euclid":
        return trace_to_circuit(euclid_trace(m, c), m)
    assert opt is not None
    return opt[c]


def _shared_record(shared: dict, *values) -> BenchRecord:
    """The record of `values`, in field order, whose values equal to one
    already in `shared` are that object. The type is part of the key, so
    that 0, 0.0 and False stay distinct."""
    return BenchRecord(*[shared.setdefault((type(v), v), v) for v in values])


def _record(
    method: str,
    c: int,
    m: int,
    cfg: SweepConfig,
    opt: Mapping[int, BlockCircuit],
    decisions: dict,
    shared: dict,
) -> BenchRecord:
    bits = m.bit_length()
    start = time.perf_counter()
    error = ""
    toffoli = cnot = depth = ops = 0
    try:
        circ = method_circuit(method, c, m, cfg.synthesis_config(), opt, decisions)
        toffoli, cnot = circuit_cost(circ, cfg.cost_model)
        depth = circuit_depth(circ, cfg.depth_model)
        ops = len(circ.ops)
        report = verify(circ)
        if not report.passed:
            error = f"verification failed: {report.summary()}"
    except Exception as exc:  # per-record failures never abort the sweep
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start if cfg.timing else 0.0
    qubits = 2 * bits + cfg.depth_model.ancillae_per_adder(bits)
    return _shared_record(
        shared, bits, m, c, method, toffoli, cnot, depth, ops, qubits, elapsed,
        cfg.cost_model.hash, error,
    )


def _sweep_modulus(m: int, cfg: SweepConfig, shared: dict) -> list[BenchRecord]:
    cs = _multipliers(m, cfg)
    # the lookahead decisions of every heuristic record of m, and at most
    # 12 bits their completion memo (one dict per modulus: a dict per sweep
    # would grow with every modulus swept)
    decisions: dict = {}
    shard = cache_read(cfg.cache_dir, m, cfg.config_hash)
    # the optimal circuits of the multipliers the shard misses, from one
    # search and one batched reconstruction, outside _record, so a search
    # refused at construction fails the sweep rather than each record
    opt: dict[int, BlockCircuit] = {}
    if "optimal" in cfg.methods:
        missed = [c for c in cs if c not in shard.get("optimal", {})]
        if missed:
            search = OptimalSearch(m, cfg.cost_model, bit_cap=cfg.optimal_bit_cap)
            opt = dict(zip(missed, search.circuits(missed)))
    records = []
    fresh = False
    for c in cs:
        for method in cfg.methods:
            rec = cache_lookup(shard, c, method)
            if rec is None:
                rec = _record(method, c, m, cfg, opt, decisions, shared)
                if not rec.error:  # a failure is retried, never served
                    shard.setdefault(method, {})[c] = rec
                    fresh = True
            records.append(rec)
    if fresh:
        stored = (rec for by_c in shard.values() for rec in by_c.values())
        cache_store(cfg.cache_dir, m, cfg.config_hash, stored)
    return records


def bench_sweep(cfg: SweepConfig) -> list[BenchRecord]:
    """Run the sweep; records come back ordered by (M, C, method). Equal
    field values of the sweep's fresh records share one object."""
    shared: dict = {}
    records = [r for m in sorted(cfg.moduli) for r in _sweep_modulus(m, cfg, shared)]
    method_rank = {name: i for i, name in enumerate(METHODS)}
    records.sort(key=lambda r: (r.modulus, r.multiplier, method_rank[r.method]))
    return records


@dataclass(frozen=True)
class SummaryRow:
    bits: int
    method: str
    count: int
    max_toffoli: int
    avg_toffoli: float


def aggregate(records: list[BenchRecord]) -> list[SummaryRow]:
    """Per-width max/avg Toffoli count per method. Uniform per-(M, C)
    averaging across all moduli of a bit-width."""
    hashes = {r.cost_model_hash for r in records}
    if len(hashes) > 1:
        raise MixedModels(f"records mix cost models: {sorted(hashes)}")
    by_bits: dict[int, dict[str, list[int]]] = {}
    for r in records:
        if not r.error:
            by_bits.setdefault(r.bits, {}).setdefault(r.method, []).append(r.toffoli)
    return [
        SummaryRow(bits, method, len(vals), max(vals), mean(vals))
        for bits, methods in sorted(by_bits.items())
        for method in METHODS
        if (vals := methods.get(method))
    ]


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(r.csv_row() + "\n")
    return buf.getvalue()


def write_summary_csv(rows: list[SummaryRow], fh: IO[str]) -> None:
    """Write the summary rows as CSV to a text file opened with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(["bits", "method", "count", "max_toffoli", "avg_toffoli"])
    for row in rows:
        writer.writerow(
            [row.bits, row.method, row.count, row.max_toffoli, f"{row.avg_toffoli:.4f}"]
        )


# --- result cache -----------------------------------------------------------

_FIELDS = [f.name for f in dataclasses.fields(BenchRecord)]

Shard = dict[str, dict[int, BenchRecord]]  # keyed by method, then multiplier


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cache_path(cache_dir: str, m: int, config_hash: str) -> str:
    return os.path.join(cache_dir, f"{m}-{config_hash}.json")


# (checksum, records by method) of the last shard whose records cache_read built
_last_built: tuple[str, dict[str, list[BenchRecord]]] = ("", {})


def cache_read(cache_dir: str | None, m: int, config_hash: str) -> Shard:
    """The shard of modulus m under config_hash; empty when there is none,
    it fails its checksum, or its label names another modulus, config hash
    or field list.

    Every read verifies the whole file. A shard whose checksum equals that
    of the last shard built hands back that shard's records, in new dicts:
    equal checksums mean equal canonical bodies, so equal labels, values
    and value types, and the records are frozen."""
    global _last_built
    if cache_dir is None:
        return {}
    try:
        with open(cache_path(cache_dir, m, config_hash), encoding="utf-8") as fh:
            doc = json.load(fh)
        body = doc["shard"]
        digest = hashlib.sha256(_canonical(body).encode()).hexdigest()
        label = (body["modulus"], body["config_hash"], body["fields"])
        if digest != doc["checksum"] or label != (m, config_hash, _FIELDS):
            return {}
        if digest != _last_built[0]:
            shared: dict = {}  # equal field values of a shard share one object
            by_method: dict[str, list[BenchRecord]] = {}
            for row in body["rows"]:
                r = _shared_record(shared, *row)
                by_method.setdefault(r.method, []).append(r)
            _last_built = (digest, by_method)
    except (OSError, KeyError, TypeError, ValueError):
        return {}  # a missing or unreadable shard is a miss
    return {method: {r.multiplier: r for r in rs} for method, rs in _last_built[1].items()}


def cache_lookup(shard: Shard, c: int, method: str) -> BenchRecord | None:
    return shard.get(method, {}).get(c)


def cache_store(
    cache_dir: str | None, m: int, config_hash: str, records: Iterable[BenchRecord]
) -> None:
    """Replace the shard of modulus m under config_hash with `records`,
    in (multiplier, method) order."""
    if cache_dir is None:
        return
    rank = {name: i for i, name in enumerate(METHODS)}
    rows = [
        [getattr(r, name) for name in _FIELDS]
        for r in sorted(records, key=lambda r: (r.multiplier, rank[r.method]))
    ]
    body = {"modulus": m, "config_hash": config_hash, "fields": _FIELDS, "rows": rows}
    text = _canonical(body)
    digest = hashlib.sha256(text.encode()).hexdigest()
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, m, config_hash)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f'{{"checksum":"{digest}","shard":{text}}}')
    os.replace(tmp, path)
