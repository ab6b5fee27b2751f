import dataclasses
import gc
import hashlib
import json
import os
import tracemalloc
from math import gcd
from pathlib import Path

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
    cache_lookup,
    cache_path,
    cache_read,
    cache_store,
    records_to_csv,
    write_summary_csv,
)
from modmult.circuit import ADD, NEG, CostModel, DepthModel, load_model_file, serialize
from modmult.cli import main
from modmult.numtheory import enumerate_semiprimes
from modmult.optimal import NonPositiveCost, OptimalSearch
from modmult.synth import SynthesisConfig


def widths(*bits: int) -> tuple[int, ...]:
    """Every semiprime modulus of each width, in order."""
    return tuple(m.value for n in bits for m in enumerate_semiprimes(n))


def small_sweep(**kw):
    defaults = dict(moduli=widths(7), methods=("heuristic", "baseline"))
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SweepConfig(moduli=(21,), methods=("magic",))

    def test_optimal_beyond_cap(self):
        with pytest.raises(ValueError):
            SweepConfig(moduli=widths(13), methods=("optimal",))

    def test_explicit_moduli_checked_against_cap(self):
        with pytest.raises(ValueError):
            SweepConfig(moduli=((1 << 13) + 1,), methods=("optimal",))

    @pytest.mark.parametrize("bad", [22, 1, 2, 0, -21])
    def test_explicit_moduli_must_be_odd_and_at_least_3(self, bad):
        with pytest.raises(ValueError, match="modulus must be"):
            SweepConfig(moduli=(21, bad))

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_refused(self, jobs):
        # sweeps run in one process; the field stays for callers passing 1
        assert SweepConfig(moduli=(21,), jobs=1).jobs == 1
        with pytest.raises(ValueError, match="jobs must be 1"):
            SweepConfig(moduli=(21,), jobs=jobs)

    @pytest.mark.parametrize(
        "field, values",
        [("moduli", (21, 65, 21)), ("methods", ("heuristic", "heuristic")), ("moduli", widths(7, 7))],
        ids=["moduli-values0", "methods-values1", "bits-values2"],
    )
    def test_duplicates_refused(self, field, values):
        # each duplicate would be swept again: duplicate CSV rows, double
        # counts; a width given twice repeats each of its moduli
        with pytest.raises(ValueError, match=f"duplicate {field}"):
            SweepConfig(**{"moduli": (21,), field: values})

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(moduli=widths()), "no moduli"),
            (dict(moduli=()), "no moduli"),
            (dict(methods=()), "no methods"),
            (dict(multiplier_cap=0), "multiplier cap must be >= 1"),
        ],
        ids=["no-bits", "no-moduli", "no-methods", "cap-0"],
    )
    def test_empty_sweep_refused(self, kw, message):
        # each would write a header-only CSV and report success
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{"moduli": (21,), **kw})

    @pytest.mark.parametrize("start", [0, -3])
    def test_multiplier_start_below_one_refused(self, start):
        # from -3, the records of 35 would carry multipliers -3, -2 and -1
        # for the circuits of 32, 33 and 34
        with pytest.raises(ValueError, match="multiplier start must be >= 1"):
            SweepConfig(
                moduli=(35,), multiplier_start=start, multiplier_cap=4, methods=("heuristic", "euclid")
            )

    def test_multiplier_start_past_every_modulus_refused(self):
        # C = M - 1 is a unit of every M, so a start below the largest
        # modulus selects a multiplier and one at or above it selects none
        for start in (35, 100):
            with pytest.raises(ValueError, match=f"multiplier start {start} selects no multiplier"):
                SweepConfig(moduli=(21, 35), multiplier_start=start)
        recs = bench_sweep(SweepConfig(moduli=(21, 35), multiplier_start=34, methods=("euclid",)))
        assert [(r.modulus, r.multiplier) for r in recs] == [(35, 34)]

    def test_widths_become_moduli(self, tmp_path):
        # `modmult bench --bits` turns its widths into moduli once; a config
        # holds moduli alone, so replacing them replaces what is swept
        want = widths(8, 7)
        assert len(want) == 16 + 7
        out = tmp_path / "r.csv"
        argv = ["bench", "--bits", "8,7", "--multiplier-cap", "1", "--methods", "euclid"]
        assert main([*argv, "--out", str(out)]) == 0
        assert [int(row.split(",")[1]) for row in out.read_text().splitlines()[1:]] == sorted(want)
        cfg = SweepConfig(moduli=widths(7), multiplier_cap=1, methods=("euclid",))
        recs = bench_sweep(dataclasses.replace(cfg, moduli=widths(8)))
        assert [r.modulus for r in recs] == sorted(widths(8))

    def test_default_config_hash(self):
        # the hash keys every cache file; it moves when a record's settings
        # or the cache schema change, and with it every shard becomes a miss
        assert SweepConfig(moduli=(21,)).config_hash == "dfa82bcde565ef3e"

    def test_model_name_leaves_config_hash(self, tmp_path):
        # a model file's "name" decides nothing, so it splits no cache key
        coeffs = CostModel().coeffs
        path = tmp_path / "model.json"
        toffoli = {op: {"slope": s, "intercept": i} for op, (s, i) in coeffs.items()}
        path.write_text(json.dumps({"name": "custom", "toffoli": toffoli}))
        cost, _, _ = load_model_file(str(path))
        assert SweepConfig(moduli=(21,), cost_model=cost).config_hash == "dfa82bcde565ef3e"

    def test_synthesis_config_built_once(self):
        cfg = SweepConfig(moduli=(21,))
        assert cfg.synthesis_config() is cfg.synthesis_config()
        assert cfg.synthesis_config() == SynthesisConfig(cost_model=cfg.cost_model)


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

    def test_one_decision_cache_per_modulus(self, monkeypatch):
        # heuristic records go through the module-global synthesize, the name
        # the benchmark's tracer wraps, with one cache per modulus
        seen = []
        real = bench.synthesize

        def spy(c, m, cfg, decisions):
            seen.append((m, decisions))
            return real(c, m, cfg, decisions)

        monkeypatch.setattr(bench, "synthesize", spy)
        recs = bench_sweep(small_sweep(moduli=(65, 21), methods=("heuristic",)))
        assert len(seen) == len(recs) == 11 + 47
        caches = {m: {id(d) for mm, d in seen if mm == m} for m in (21, 65)}
        assert all(len(ids) == 1 for ids in caches.values())
        assert caches[21] != caches[65]
        assert all(isinstance(d, dict) for _, d in seen)
        assert records_to_csv(recs) == records_to_csv(
            bench_sweep(small_sweep(moduli=(65, 21), methods=("heuristic",)))
        )

    def test_method_circuit_for_c_mod_m(self):
        # the one map from a method name to a circuit; C, C + M and C - M
        # give one circuit under every method
        cfg = SynthesisConfig()
        cs = (2, 5, 13, 20)
        opt = dict(zip(cs, OptimalSearch(21).circuits(cs)))
        for method in bench.METHODS:
            for c in cs:
                texts = {
                    serialize(bench.method_circuit(method, x, 21, cfg, opt)) for x in (c, c + 21, c - 21)
                }
                assert len(texts) == 1, (method, c)

    def test_multiplier_cap(self):
        recs = bench_sweep(small_sweep(moduli=(91,), multiplier_cap=5, methods=("heuristic",)))
        assert len(recs) == 5

    def test_optimal_construction_error_propagates(self):
        # a search refused at construction fails the sweep, not each record
        model = CostModel({**CostModel().coeffs, NEG: (0, 0)})
        with pytest.raises(NonPositiveCost):
            bench_sweep(small_sweep(moduli=(21,), methods=("optimal",), cost_model=model))

    def test_timing_flag(self):
        recs = bench_sweep(small_sweep(moduli=(21,), timing=True, methods=("heuristic",)))
        assert any(r.wall_seconds > 0 for r in recs)


@pytest.fixture
def builds(monkeypatch):
    """The moduli of every OptimalSearch built through the module-global
    name, the one the benchmark's tracer wraps."""
    built = []
    real = bench.OptimalSearch

    def counted(m, *args, **kw):
        built.append(m)
        return real(m, *args, **kw)

    monkeypatch.setattr(bench, "OptimalSearch", counted)
    return built


@pytest.fixture
def walks(monkeypatch):
    """The multipliers of every batched reconstruction, one list per call."""
    walked = []
    real = OptimalSearch.circuits

    def counted(self, cs):
        walked.append(list(cs))
        return real(self, cs)

    monkeypatch.setattr(OptimalSearch, "circuits", counted)
    return walked


class TestLazySearch:
    """A sweep builds a modulus's OptimalSearch when an optimal record
    misses, and reconstructs every missed multiplier in one call."""

    def test_cold_sweep_builds_one_per_modulus(self, tmp_path, builds, walks):
        bench_sweep(small_sweep(moduli=(35, 21), methods=bench.METHODS, cache_dir=str(tmp_path)))
        assert builds == [21, 35]
        assert walks == [[c for c in range(2, m) if gcd(c, m) == 1] for m in (21, 35)]

    def test_cached_sweep_builds_none(self, tmp_path, builds, walks):
        cfg = small_sweep(moduli=(35, 21), methods=bench.METHODS, cache_dir=str(tmp_path))
        cold = bench_sweep(cfg)
        builds.clear()
        walks.clear()
        assert bench_sweep(cfg) == cold
        assert builds == [] and walks == []

    def test_some_optimal_misses_build_one(self, tmp_path, builds, walks):
        cfg = small_sweep(moduli=(35,), methods=bench.METHODS, cache_dir=str(tmp_path))
        cold = bench_sweep(cfg)
        optimal = [r for r in cold if r.method == "optimal"]
        dropped = optimal[1::3]
        assert 1 < len(dropped) < len(optimal)
        cache_store(str(tmp_path), 35, cfg.config_hash, [r for r in cold if r not in dropped])
        builds.clear()
        walks.clear()
        assert bench_sweep(cfg) == cold
        assert builds == [35]
        assert walks == [[r.multiplier for r in dropped]]

    def test_sweep_without_optimal_builds_none(self, builds):
        bench_sweep(small_sweep(moduli=(35, 21), methods=("heuristic", "baseline", "euclid")))
        assert builds == []


class TestAggregate:
    def test_summary_and_ratios(self):
        recs = bench_sweep(small_sweep(methods=("heuristic", "baseline", "optimal")))
        rows = aggregate(recs)
        assert all(isinstance(r, SummaryRow) for r in rows)
        avg = {r.method: r.avg_toffoli for r in rows if r.bits == 7}
        assert avg["baseline"] / avg["heuristic"] > 1.0  # baseline costs more on average
        assert 1.0 <= avg["heuristic"] / avg["optimal"] < 1.5

    def test_mixed_models_rejected(self):
        cfg_a = small_sweep(moduli=(21,), methods=("heuristic",))
        other_model = CostModel({**CostModel().coeffs, ADD: (4, 0)})
        cfg_b = small_sweep(moduli=(21,), methods=("heuristic",), cost_model=other_model)
        recs = bench_sweep(cfg_a) + bench_sweep(cfg_b)
        with pytest.raises(MixedModels):
            aggregate(recs)

    def test_csv_writers(self, tmp_path):
        recs = bench_sweep(small_sweep(moduli=(21,)))
        with open(tmp_path / "summary.csv", "w", encoding="utf-8", newline="") as fh:
            write_summary_csv(aggregate(recs), fh)
        assert (tmp_path / "summary.csv").read_text().startswith(
            "bits,method,count,max_toffoli,avg_toffoli\n"
        )


def _sample_record():
    return BenchRecord(
        bits=5, modulus=21, multiplier=13, method="heuristic",
        toffoli=90, cnot=35, depth=64, op_count=7, qubits=11,
        wall_seconds=0.0, cost_model_hash=CostModel().hash,
    )


def _shard_records(shard):
    """A shard's records in the (multiplier, method) order of a sweep."""
    rank = {name: i for i, name in enumerate(bench.METHODS)}
    records = [rec for by_c in shard.values() for rec in by_c.values()]
    return sorted(records, key=lambda r: (r.multiplier, rank[r.method]))


def _cache_state(path):
    return {e.name: (e.inode(), e.stat().st_mtime_ns) for e in os.scandir(path)}


@pytest.fixture
def lookups(monkeypatch):
    """Counts cache hits and misses through the module-global cache_lookup,
    the name the benchmark's tracer wraps."""
    counts = {"hits": 0, "misses": 0}
    real = bench.cache_lookup

    def counted(*args):
        rec = real(*args)
        counts["hits" if rec is not None else "misses"] += 1
        return rec

    monkeypatch.setattr(bench, "cache_lookup", counted)
    return counts


class TestCache:
    def test_store_then_lookup(self, tmp_path):
        rec = _sample_record()
        d = str(tmp_path)
        cache_store(d, 21, rec.cost_model_hash, [rec])
        assert cache_lookup(cache_read(d, 21, rec.cost_model_hash), 13, "heuristic") == rec

    def test_equal_values_of_other_types_stay_apart(self, tmp_path):
        # 0 == 0.0 == False, so records would compare equal with the types mixed
        rec = dataclasses.replace(_sample_record(), cnot=0)
        d = str(tmp_path)
        cache_store(d, 21, rec.cost_model_hash, [rec])
        read = cache_lookup(cache_read(d, 21, rec.cost_model_hash), 13, "heuristic")
        assert (type(read.cnot), type(read.wall_seconds)) == (int, float)

    def test_none_dir_is_noop(self):
        cache_store(None, 21, "x", [_sample_record()])
        assert cache_lookup(cache_read(None, 21, "x"), 13, "heuristic") is None

    def test_model_hash_miss(self, tmp_path):
        rec = _sample_record()
        cache_store(str(tmp_path), 21, rec.cost_model_hash, [rec])
        assert cache_read(str(tmp_path), 21, "deadbeef") == {}

    def test_corrupt_entry_is_miss(self, tmp_path):
        rec = _sample_record()
        d = str(tmp_path)
        cache_store(d, 21, rec.cost_model_hash, [rec])
        path = cache_path(d, 21, rec.cost_model_hash)
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        toffoli = doc["shard"]["fields"].index("toffoli")
        doc["shard"]["rows"][0][toffoli] = 1  # tamper without updating the checksum
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert cache_lookup(cache_read(d, 21, rec.cost_model_hash), 13, "heuristic") is None

    def test_garbage_file_is_miss(self, tmp_path):
        rec = _sample_record()
        d = str(tmp_path)
        with open(cache_path(d, 21, rec.cost_model_hash), "w") as fh:
            fh.write("{not json")
        assert cache_lookup(cache_read(d, 21, rec.cost_model_hash), 13, "heuristic") is None

    def test_mislabelled_shard_is_miss(self, tmp_path):
        # a checksum covers a shard's body, not the file name it sits under:
        # a shard labelled with another modulus, config hash or field list
        # (as the schema-3 rows, which carried config_hash) is no shard of this one
        d, h = str(tmp_path), "c0ffee"
        rec = _sample_record()
        fields = [f.name for f in dataclasses.fields(BenchRecord)]
        row = [getattr(rec, name) for name in fields]
        swapped = fields.copy()
        swapped[4:6] = swapped[5], swapped[4]  # cnot read as toffoli and back

        def read_as(modulus=21, config_hash=h, fields=fields, rows=(row,)):
            body = {"modulus": modulus, "config_hash": config_hash, "fields": fields, "rows": list(rows)}
            text = json.dumps(body, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(text.encode()).hexdigest()
            with open(cache_path(d, 21, h), "w") as fh:
                fh.write(json.dumps({"checksum": digest, "shard": body}))
            return cache_read(d, 21, h)

        assert cache_lookup(read_as(), 13, "heuristic") == rec
        assert read_as(modulus=65) == {}
        assert read_as(config_hash="deadbeef") == {}
        assert read_as(fields=swapped) == {}
        schema_3 = [
            "bits", "modulus", "multiplier", "method", "toffoli", "cnot", "depth",
            "op_count", "qubits", "wall_seconds", "cost_model_hash", "error", "config_hash",
        ]
        row_3 = [5, 21, 13, "heuristic", 90, 35, 64, 7, 11, 0.0, rec.cost_model_hash, "", h]
        assert read_as(fields=schema_3, rows=[row_3]) == {}

    def test_sweep_uses_cache(self, tmp_path):
        cfg = small_sweep(moduli=(21,), methods=("heuristic",), cache_dir=str(tmp_path))
        first = bench_sweep(cfg)
        assert os.listdir(tmp_path) == [os.path.basename(cache_path("", 21, cfg.config_hash))]
        # poison one entry's payload; a cache hit must surface the altered value
        target = first[0]
        poisoned = dataclasses.replace(target, toffoli=target.toffoli + 7)
        cache_store(str(tmp_path), 21, cfg.config_hash, [poisoned, *first[1:]])
        second = bench_sweep(cfg)
        hit = next(r for r in second if r.multiplier == target.multiplier)
        assert hit.toffoli == target.toffoli + 7

    def test_one_shard_per_modulus(self, tmp_path):
        cfg = small_sweep(moduli=(65, 21), cache_dir=str(tmp_path))
        recs = bench_sweep(cfg)
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(cache_path("", m, cfg.config_hash)) for m in (21, 65)
        )
        for m in (21, 65):
            shard = cache_read(str(tmp_path), m, cfg.config_hash)
            assert _shard_records(shard) == [r for r in recs if r.modulus == m]

    @pytest.mark.parametrize("damage", ["tamper", "garbage"])
    def test_corrupt_shard_is_all_misses_and_rewritten(self, tmp_path, lookups, damage):
        cfg = small_sweep(moduli=(21,), cache_dir=str(tmp_path))
        cold = records_to_csv(bench_sweep(cfg))
        path = cache_path(str(tmp_path), 21, cfg.config_hash)
        if damage == "tamper":
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            doc["shard"]["rows"][-1][doc["shard"]["fields"].index("depth")] += 1
            text = json.dumps(doc)
        else:
            text = "\x00garbage"
        with open(path, "w") as fh:
            fh.write(text)
        lookups.update(hits=0, misses=0)
        assert records_to_csv(bench_sweep(cfg)) == cold
        assert lookups == {"hits": 0, "misses": cold.count("\n") - 1}
        lookups.update(hits=0, misses=0)
        assert records_to_csv(bench_sweep(cfg)) == cold  # the shard was rewritten
        assert lookups == {"hits": cold.count("\n") - 1, "misses": 0}

    def test_windows_merge_into_one_shard(self, tmp_path, lookups):
        # coprimes of 91 from 2: the first two windows of 5 cover those of the third
        window = dict(moduli=(91,), multiplier_cap=5, cache_dir=str(tmp_path))
        low = bench_sweep(small_sweep(multiplier_start=2, **window))
        high = bench_sweep(small_sweep(multiplier_start=8, **window))
        assert len(os.listdir(tmp_path)) == 1
        state = _cache_state(tmp_path)
        lookups.update(hits=0, misses=0)
        both = bench_sweep(small_sweep(moduli=(91,), multiplier_cap=10, cache_dir=str(tmp_path)))
        assert both == low + high
        assert lookups == {"hits": len(both), "misses": 0}
        assert _cache_state(tmp_path) == state  # a sweep of all hits writes nothing
        cfg = small_sweep(moduli=(91,))
        assert _shard_records(cache_read(str(tmp_path), 91, cfg.config_hash)) == both
        path = Path(cache_path(str(tmp_path), 91, cfg.config_hash))
        body = json.loads(path.read_text(encoding="utf-8"))["shard"]
        at = body["fields"].index
        stored = [(row[at("multiplier")], row[at("method")]) for row in body["rows"]]
        assert stored == [(r.multiplier, r.method) for r in both]  # (multiplier, method) order

    def test_cold_and_warm_csv_identical(self, tmp_path, lookups):
        cfg = SweepConfig(moduli=widths(7, 8), methods=bench.METHODS, cache_dir=str(tmp_path))
        cold = records_to_csv(bench_sweep(cfg))
        assert lookups["hits"] == 0
        lookups.update(hits=0, misses=0)
        warm = records_to_csv(bench_sweep(cfg))
        assert lookups["misses"] == 0
        assert warm == cold
        assert hashlib.sha256(cold.encode()).hexdigest()[:16] == "e9e194b058a4358f"

    def test_reread_shares_records(self, tmp_path):
        cfg = small_sweep(moduli=(21,), cache_dir=str(tmp_path))
        cold = bench_sweep(cfg)
        first = cache_read(str(tmp_path), 21, cfg.config_hash)
        second = cache_read(str(tmp_path), 21, cfg.config_hash)
        assert first is not second
        assert list(first) == list(second) and len(_shard_records(first)) == len(cold)
        for method, by_c in first.items():
            assert by_c is not second[method] and list(by_c) == list(second[method])
            assert all(by_c[c] is second[method][c] for c in by_c)
        # each read hands back dicts of its own
        del first["heuristic"][next(iter(first["heuristic"]))]
        first["baseline"][1] = _sample_record()
        assert cache_read(str(tmp_path), 21, cfg.config_hash) == second
        assert _shard_records(second) == cold

    def test_tamper_after_read_is_all_misses(self, tmp_path, lookups):
        # the read that builds the records and the reads that reuse them
        # check the file alike
        cfg = small_sweep(moduli=(21,), cache_dir=str(tmp_path))
        cold = records_to_csv(bench_sweep(cfg))
        path = cache_path(str(tmp_path), 21, cfg.config_hash)
        shard = cache_read(str(tmp_path), 21, cfg.config_hash)
        assert len(_shard_records(shard)) == cold.count("\n") - 1
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        doc["shard"]["rows"][0][doc["shard"]["fields"].index("toffoli")] += 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert cache_read(str(tmp_path), 21, cfg.config_hash) == {}
        lookups.update(hits=0, misses=0)
        assert records_to_csv(bench_sweep(cfg)) == cold
        assert lookups == {"hits": 0, "misses": cold.count("\n") - 1}

    def test_rewritten_shard_reads_new_records(self, tmp_path):
        cfg = small_sweep(moduli=(21,), cache_dir=str(tmp_path))
        cold = bench_sweep(cfg)
        before = cache_read(str(tmp_path), 21, cfg.config_hash)
        target = cold[0]
        poisoned = dataclasses.replace(target, toffoli=target.toffoli + 7)
        cache_store(str(tmp_path), 21, cfg.config_hash, [poisoned, *cold[1:]])
        after = cache_read(str(tmp_path), 21, cfg.config_hash)
        method, c = target.method, target.multiplier
        assert before[method][c] == target and after[method][c] == poisoned
        assert _shard_records(after) == [poisoned, *cold[1:]]

    def test_read_shares_field_values(self, tmp_path):
        # 400 multipliers of M = 1003 under all four methods: equal field
        # values of a shard share one object, and records carry no __dict__
        cfg = SweepConfig(
            moduli=(1003,), multiplier_start=300, multiplier_cap=400,
            methods=bench.METHODS, cache_dir=str(tmp_path),
        )
        cold = bench_sweep(cfg)
        gc.collect()  # empties the free lists, so tracemalloc sees every allocation
        tracemalloc.start()
        try:
            shard = cache_read(str(tmp_path), 1003, cfg.config_hash)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        records = _shard_records(shard)
        assert len(records) == 1600
        # the records and one dict a method keyed by multiplier: about 192 B
        # a record; 247 B under (multiplier, method) keys, and 535 B with a
        # copy of each value and a __dict__ per record
        assert retained / len(records) <= 200, f"{retained / len(records):.0f} B a record"
        first, second = records[0], records[4]  # heuristic at C = 300 and 301
        assert (first.multiplier, second.multiplier) == (300, 301)
        assert first.method is second.method
        assert first.cost_model_hash is second.cost_model_hash
        assert all(type(r.wall_seconds) is float for r in records)
        assert records_to_csv(records) == records_to_csv(cold)

    def test_sweep_shares_field_values(self):
        # the same sweep, cold: equal field values of its fresh records
        # share one object too
        cfg = SweepConfig(
            moduli=(1003,), multiplier_start=300, multiplier_cap=400, methods=bench.METHODS
        )
        gc.collect()
        tracemalloc.start()
        try:
            records = bench_sweep(cfg)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == 1600
        # the records and their list: about 149 B a record; 209 B with each
        # Toffoli count, CNOT count and depth an int of its own
        assert retained / len(records) <= 160, f"{retained / len(records):.0f} B a record"
        for name in ("toffoli", "cnot", "depth"):
            values = [getattr(r, name) for r in records]
            assert len({id(v) for v in values}) == len(set(values)), name


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

    def test_timing(self, tmp_path):
        base = dict(moduli=(21,), methods=("heuristic",))
        warm, cold = self.warm_and_cold(tmp_path, dict(timing=True, **base), **base)
        assert records_to_csv(warm) == records_to_csv(cold)

    def test_error_records_not_stored(self, tmp_path, monkeypatch):
        def broken(*args):
            raise RuntimeError("synthesis failed")

        monkeypatch.setattr(bench, "method_circuit", broken)
        recs = bench_sweep(small_sweep(moduli=(21,), cache_dir=str(tmp_path)))
        assert recs and all(r.error for r in recs)
        assert os.listdir(tmp_path) == []

    def test_error_records_left_out_of_shard(self, tmp_path, monkeypatch):
        real = bench.method_circuit

        def baseline_broken(method, *args):
            if method == "baseline":
                raise RuntimeError("synthesis failed")
            return real(method, *args)

        monkeypatch.setattr(bench, "method_circuit", baseline_broken)
        cfg = small_sweep(moduli=(21,), cache_dir=str(tmp_path))
        recs = bench_sweep(cfg)
        assert {r.method for r in recs if r.error} == {"baseline"}
        shard = cache_read(str(tmp_path), 21, cfg.config_hash)
        assert _shard_records(shard) == [r for r in recs if not r.error]
