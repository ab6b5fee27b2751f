"""Per-layer spans recorded from outside the program.

A Tracer replaces a name that one modmult module imported from another
with a timed wrapper. Each call records its duration under a span name,
adds that duration to the child time of the span that was open when it
began, and may add counts taken from its result. restore() puts the
original objects back. Spans are kept in memory as per-name totals and
duration lists; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.child_s: dict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each span in progress
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.child_s[name] += self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.durations[name].append(elapsed)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def replace(self, module, attr: str, obj) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, obj)

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        self.replace(module, attr, self.wrap(name, getattr(module, attr), on_result))

    def restore(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def calls(self, *names: str) -> int:
        return sum(len(self.durations[n]) for n in names)

    def seconds(self, *names: str) -> float:
        return sum(sum(self.durations[n]) for n in names)

    def self_seconds(self, name: str) -> float:
        return self.seconds(name) - self.child_s[name]


def install_setup(tracer: Tracer, numtheory) -> None:
    """Spans around the numtheory calls that input generation makes."""
    for attr in ("enumerate_semiprimes", "is_prime"):
        tracer.patch(numtheory, attr, f"numtheory.{attr}")


def install_layers(tracer: Tracer, bench, modexp) -> None:
    """Spans at every boundary bench and modexp cross into another layer,
    plus the benchmark's own calls into bench and modexp."""
    counts = tracer.counts

    def emitted(circ) -> None:
        counts["synth.ops_emitted"] += len(circ.ops)

    def looked_up(record) -> None:
        counts["bench.cache.hits" if record is not None else "bench.cache.misses"] += 1

    def swept(records) -> None:
        counts["bench.records"] += len(records)
        counts["bench.errors"] += sum(1 for r in records if r.error)

    def built(circ) -> None:
        counts["modexp.positions"] += circ.positions
        counts["modexp.distinct_blocks"] += circ.distinct_blocks

    def verified(report) -> None:
        counts["simulate.inputs_tested"] += report.tested

    for module in (bench, modexp):
        tracer.patch(module, "synthesize", "synth.heuristic", emitted)
        tracer.patch(module, "circuit_cost", "circuit.cost")
        tracer.patch(module, "circuit_depth", "circuit.depth")
    tracer.patch(bench, "baseline_synthesize", "synth.baseline", emitted)
    tracer.patch(bench, "euclid_trace", "synth.euclid_trace")
    tracer.patch(bench, "trace_to_circuit", "synth.trace_to_circuit", emitted)
    tracer.patch(bench, "verify", "simulate.verify", verified)
    tracer.patch(bench, "cache_lookup", "bench.cache.lookup", looked_up)
    tracer.patch(bench, "cache_store", "bench.cache.store")
    tracer.patch(bench, "bench_sweep", "bench.sweep", swept)
    tracer.patch(modexp, "build_modexp", "modexp.build", built)

    build = tracer.wrap("optimal.build", bench.OptimalSearch)

    def optimal_search(*args, **kwargs):
        search = build(*args, **kwargs)
        search.circuit = tracer.wrap("optimal.circuit", search.circuit)
        counts["optimal.states"] += search.m**2
        return search

    tracer.replace(bench, "OptimalSearch", optimal_search)


def _ms_percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return 1000 * sum(values)
    return 1000 * statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass; numtheory figures cover the set-up
    input generation; percentiles cover every traced call."""
    t, c = tracer, tracer.counts
    hits, misses = c["bench.cache.hits"], c["bench.cache.misses"]
    numtheory = [n for n in t.durations if n.startswith("numtheory.")]
    per_pass = {
        "synth.heuristic.calls": t.calls("synth.heuristic"),
        "synth.heuristic.s": t.seconds("synth.heuristic"),
        "synth.other.calls": t.calls("synth.baseline", "synth.trace_to_circuit"),
        "synth.other.s": t.seconds("synth.baseline", "synth.euclid_trace", "synth.trace_to_circuit"),
        "synth.ops_emitted": c["synth.ops_emitted"],
        "circuit.calls": t.calls("circuit.cost", "circuit.depth"),
        "circuit.s": t.seconds("circuit.cost", "circuit.depth"),
        "simulate.verify.calls": t.calls("simulate.verify"),
        "simulate.verify.s": t.seconds("simulate.verify"),
        "simulate.inputs_tested": c["simulate.inputs_tested"],
        "optimal.build.calls": t.calls("optimal.build"),
        "optimal.build.s": t.seconds("optimal.build"),
        "optimal.circuit.calls": t.calls("optimal.circuit"),
        "optimal.circuit.s": t.seconds("optimal.circuit"),
        "optimal.states": c["optimal.states"],
        "modexp.build.s": t.seconds("modexp.build"),
        "modexp.self_s": t.self_seconds("modexp.build"),
        "modexp.positions": c["modexp.positions"],
        "modexp.distinct_blocks": c["modexp.distinct_blocks"],
        "bench.sweep.s": t.seconds("bench.sweep"),
        "bench.self_s": t.self_seconds("bench.sweep"),
        "bench.records": c["bench.records"],
        "bench.errors": c["bench.errors"],
        "bench.cache.hits": hits,
        "bench.cache.misses": misses,
        "bench.cache.lookup.s": t.seconds("bench.cache.lookup"),
        "bench.cache.store.s": t.seconds("bench.cache.store"),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out.update(
        {
            "synth.heuristic.ms_p50": _ms_percentile(t.durations["synth.heuristic"], 50),
            "synth.heuristic.ms_p95": _ms_percentile(t.durations["synth.heuristic"], 95),
            "simulate.verify.ms_p50": _ms_percentile(t.durations["simulate.verify"], 50),
            "simulate.verify.ms_p95": _ms_percentile(t.durations["simulate.verify"], 95),
            "bench.cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "numtheory.calls": t.calls(*numtheory),
            "numtheory.s": t.seconds(*numtheory),
        }
    )
    return out
