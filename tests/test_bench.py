import dataclasses
import json
import os

import pytest

from modmult import bench
from modmult.bench import (
    CSV_HEADER,
    BenchRecord,
    MixedModels,
    SummaryRow,
    SweepConfig,
    aggregate,
    bench_sweep,
    cache_key,
    cache_lookup,
    cache_store,
    ratio_series,
    records_to_csv,
    write_ratio_csv,
    write_records_csv,
    write_summary_csv,
)
from modmult.circuit import ADD, NEG, CostModel, DepthModel
from modmult.optimal import NonPositiveCost
from modmult.synth import SynthesisConfig


def small_sweep(**kw):
    defaults = dict(bits=(7,), methods=("heuristic", "baseline"))
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SweepConfig(methods=("magic",))

    def test_optimal_beyond_cap(self):
        with pytest.raises(ValueError):
            SweepConfig(bits=(13,), methods=("optimal",))

    def test_explicit_moduli_checked_against_cap(self):
        with pytest.raises(ValueError):
            SweepConfig(moduli=((1 << 13) + 1,), methods=("optimal",))


class TestSweep:
    def test_deterministic_csv(self):
        cfg = small_sweep()
        a = records_to_csv(bench_sweep(cfg))
        b = records_to_csv(bench_sweep(cfg))
        assert a == b

    def test_csv_schema(self):
        recs = bench_sweep(small_sweep(moduli=(21,)))
        text = records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "bits,modulus,multiplier,method,toffoli,cnot,depth,ops,qubits,seconds,model_hash"
        )
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 11
            assert fields[9] == "0.000000"  # timing off by default

    def test_covers_all_coprime_multipliers(self):
        recs = bench_sweep(small_sweep(moduli=(21,)))
        heur = [r for r in recs if r.method == "heuristic"]
        assert [r.multiplier for r in heur] == [2, 4, 5, 8, 10, 11, 13, 16, 17, 19, 20]

    def test_record_order(self):
        recs = bench_sweep(small_sweep(moduli=(65, 21)))
        keys = [(r.modulus, r.multiplier, r.method) for r in recs]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2] != "heuristic"))

    def test_no_errors_and_verified(self):
        recs = bench_sweep(small_sweep(methods=("heuristic", "baseline", "euclid", "optimal")))
        assert all(r.error == "" for r in recs)
        assert all(r.toffoli >= 0 for r in recs)

    def test_jobs_match_serial(self):
        cfg = small_sweep()
        serial = records_to_csv(bench_sweep(cfg))
        parallel = records_to_csv(bench_sweep(small_sweep(jobs=2)))
        assert serial == parallel

    def test_multiplier_cap(self):
        recs = bench_sweep(small_sweep(moduli=(91,), multiplier_cap=5, methods=("heuristic",)))
        assert len(recs) == 5

    def test_optimal_construction_error_propagates(self):
        # a search refused at construction fails the sweep, not each record
        model = CostModel("free-neg", {**CostModel().coeffs, NEG: (0, 0)})
        with pytest.raises(NonPositiveCost):
            bench_sweep(small_sweep(moduli=(21,), methods=("optimal",), cost_model=model))

    def test_timing_flag(self):
        recs = bench_sweep(small_sweep(moduli=(21,), timing=True, methods=("heuristic",)))
        assert any(r.wall_seconds > 0 for r in recs)


class TestAggregate:
    def test_summary_and_ratios(self):
        recs = bench_sweep(small_sweep(methods=("heuristic", "baseline", "optimal")))
        rows, series = aggregate(recs)
        assert all(isinstance(r, SummaryRow) for r in rows)
        (bits, boh, hoo), = series
        assert bits == 7
        assert boh is not None and boh > 1.0  # baseline costs more on average
        assert hoo is not None and 1.0 <= hoo < 1.5
        assert ratio_series(recs) == series

    def test_mixed_models_rejected(self):
        cfg_a = small_sweep(moduli=(21,), methods=("heuristic",))
        other_model = CostModel("alt", {**CostModel().coeffs, ADD: (4, 0)})
        cfg_b = small_sweep(moduli=(21,), methods=("heuristic",), cost_model=other_model)
        recs = bench_sweep(cfg_a) + bench_sweep(cfg_b)
        with pytest.raises(MixedModels):
            aggregate(recs)

    def test_csv_writers(self, tmp_path):
        recs = bench_sweep(small_sweep(moduli=(21,)))
        rows, series = aggregate(recs)
        write_records_csv(recs, str(tmp_path / "records.csv"))
        write_summary_csv(rows, str(tmp_path / "summary.csv"))
        write_ratio_csv(series, str(tmp_path / "ratio_vs_bits.csv"))
        assert (tmp_path / "records.csv").read_text() == records_to_csv(recs)
        assert (tmp_path / "summary.csv").read_text().startswith(
            "bits,method,count,max_toffoli,avg_toffoli\n"
        )
        assert (tmp_path / "ratio_vs_bits.csv").read_text().startswith(
            "bits,baseline_over_heuristic,heuristic_over_optimal\n"
        )


def _sample_record():
    return BenchRecord(
        bits=5, modulus=21, multiplier=13, method="heuristic",
        toffoli=90, cnot=35, depth=64, op_count=7, qubits=11,
        wall_seconds=0.0, cost_model_hash=CostModel().hash,
    )


class TestCache:
    def test_store_then_lookup(self, tmp_path):
        rec = _sample_record()
        d = str(tmp_path)
        cache_store(d, rec)
        assert cache_lookup(d, 21, 13, "heuristic", rec.cost_model_hash) == rec

    def test_none_dir_is_noop(self):
        cache_store(None, _sample_record())
        assert cache_lookup(None, 21, 13, "heuristic", "x") is None

    def test_model_hash_miss(self, tmp_path):
        rec = _sample_record()
        cache_store(str(tmp_path), rec)
        assert cache_lookup(str(tmp_path), 21, 13, "heuristic", "deadbeef") is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        rec = _sample_record()
        d = str(tmp_path)
        cache_store(d, rec)
        path = os.path.join(d, cache_key(21, 13, "heuristic", rec.cost_model_hash) + ".json")
        doc = json.loads(open(path).read())
        doc["record"]["toffoli"] = 1  # tamper without updating the checksum
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert cache_lookup(d, 21, 13, "heuristic", rec.cost_model_hash) is None

    def test_garbage_file_is_miss(self, tmp_path):
        rec = _sample_record()
        d = str(tmp_path)
        path = os.path.join(d, cache_key(21, 13, "heuristic", rec.cost_model_hash) + ".json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache_lookup(d, 21, 13, "heuristic", rec.cost_model_hash) is None

    def test_sweep_uses_cache(self, tmp_path):
        cfg = small_sweep(moduli=(21,), methods=("heuristic",), cache_dir=str(tmp_path))
        first = bench_sweep(cfg)
        assert len(os.listdir(tmp_path)) == len(first)
        # poison one entry's payload; a cache hit must surface the altered value
        target = first[0]
        poisoned = dataclasses.replace(target, toffoli=target.toffoli + 7)
        cache_store(str(tmp_path), poisoned)
        second = bench_sweep(cfg)
        hit = next(r for r in second if r.multiplier == target.multiplier)
        assert hit.toffoli == target.toffoli + 7


class TestCacheKey:
    """A cache filled under one config never serves a sweep under another."""

    @staticmethod
    def warm_and_cold(tmp_path, fill, **kw):
        cache = str(tmp_path)
        bench_sweep(small_sweep(cache_dir=cache, **fill))
        warm = bench_sweep(small_sweep(cache_dir=cache, **kw))
        cold = bench_sweep(small_sweep(**kw))
        return warm, cold

    def test_depth_model(self, tmp_path):
        base = dict(moduli=(21,), methods=("heuristic",))
        warm, cold = self.warm_and_cold(
            tmp_path, base, depth_model=DepthModel.lookahead(), **base
        )
        assert sum(r.depth for r in warm) == sum(r.depth for r in cold) == 630

    def test_synthesis_config(self, tmp_path):
        base = dict(moduli=(65,), methods=("heuristic",))
        warm, cold = self.warm_and_cold(
            tmp_path, base, synthesis=SynthesisConfig(lookahead_depth=1), **base
        )
        assert sum(r.toffoli for r in warm) == sum(r.toffoli for r in cold) == 8308

    def test_timing(self, tmp_path):
        base = dict(moduli=(21,), methods=("heuristic",))
        warm, cold = self.warm_and_cold(tmp_path, dict(timing=True, **base), **base)
        assert records_to_csv(warm) == records_to_csv(cold)

    def test_error_records_not_stored(self, tmp_path, monkeypatch):
        def broken(*args):
            raise RuntimeError("synthesis failed")

        monkeypatch.setattr(bench, "_synthesize_method", broken)
        recs = bench_sweep(small_sweep(moduli=(21,), cache_dir=str(tmp_path)))
        assert recs and all(r.error for r in recs)
        assert os.listdir(tmp_path) == []
