import json
import math
import os
import random

import pytest

from modmult import bench, cli
from modmult.cli import main
from modmult.circuit import ADD, DBL, NEG, CostModel, DepthModel, circuit_cost, parse
from modmult.simulate import verify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_primes(capsys):
    code, out = run(capsys, "primes", "--bits", "8")
    assert code == 0 and out.strip() == "251"
    code, out = run(capsys, "primes", "--bits", "8", "--rank", "10")
    assert out.strip() == "197"


def test_semiprimes(capsys):
    code, out = run(capsys, "semiprimes", "--bits", "7")
    assert code == 0
    assert out.split() == ["65", "77", "85", "91", "95", "115", "119"]


def test_synth_stdout_and_file(capsys, tmp_path):
    code, out = run(capsys, "synth", "--modulus", "21", "--multiplier", "13")
    assert code == 0
    circ = parse(out)
    assert circ.modulus == 21 and circ.multiplier == 13
    assert verify(circ).passed

    path = tmp_path / "c.txt"
    code, _ = run(
        capsys, "synth", "--modulus", "21", "--multiplier", "13",
        "--method", "baseline", "-o", str(path),
    )
    assert code == 0 and verify(parse(path.read_text())).passed


def test_synth_default_method_is_heuristic(capsys):
    for c in ("13", "2"):  # a GCD-trace circuit and a special-form one
        argv = ["synth", "--modulus", "21", "--multiplier", c]
        assert run(capsys, *argv) == run(capsys, *argv, "--method", "heuristic")


def test_synth_no_special_flag(capsys):
    _, plain = run(capsys, "synth", "--modulus", "21", "--multiplier", "2")
    _, nospec = run(capsys, "synth", "--modulus", "21", "--multiplier", "2", "--no-special")
    assert "DBL" in plain
    assert verify(parse(nospec)).passed


def test_optimal_all_streams_costs(capsys):
    code, out = run(capsys, "optimal", "--modulus", "21", "--all")
    assert code == 0
    rows = dict(tuple(map(int, line.split(","))) for line in out.split())
    assert rows[1] == 0 and len(rows) == 12


def test_optimal_single(capsys):
    code, out = run(capsys, "optimal", "--modulus", "21", "--multiplier", "13")
    assert code == 0 and verify(parse(out)).passed


def test_optimal_requires_target(capsys):
    assert main(["optimal", "--modulus", "21"]) == 2


@pytest.mark.parametrize(
    "extra", [["--multiplier", "5"], ["-o", "costs.txt"]], ids=["multiplier", "output"]
)
def test_optimal_all_refuses_a_single_target(capsys, tmp_path, monkeypatch, extra):
    # --all prints every cost to stdout: a multiplier or an output file it
    # would ignore is refused, and no file is written
    monkeypatch.chdir(tmp_path)
    assert main(["optimal", "--modulus", "21", "--all", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("modmult optimal: --all ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_optimal_refuses_a_non_unit_before_the_search(capsys, monkeypatch):
    # gcd(61, 4087) = 61: refused with exit 2 before the search is built
    def no_search(*args, **kwargs):
        raise AssertionError("OptimalSearch built for a multiplier that is not a unit")

    monkeypatch.setattr(cli, "OptimalSearch", no_search)
    assert main(["optimal", "--modulus", "4087", "--multiplier", "61"]) == 2
    assert capsys.readouterr().err == "modmult optimal: gcd(61, 4087) != 1\n"


def test_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "c.txt"
    run(capsys, "synth", "--modulus", "21", "--multiplier", "13", "-o", str(path))
    code, out = run(capsys, "verify", "--circuit", str(path))
    assert code == 0 and "pass" in out.lower()


def test_verify_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    # claims multiplier 2 but performs two doublings
    path.write_text("MODULUS 21\nMULTIPLIER 2\nWIDTH 5\nRESULT R1\nDBL R1\nDBL R1\nEND\n")
    code, out = run(capsys, "verify", "--circuit", str(path))
    assert code == 1


def test_verify_refusal_exit_code(capsys, tmp_path):
    # a mismatch exits 1 and an invalid header 2; a file of any width is
    # decided over every input, never refused for its size
    bad_width = tmp_path / "width.txt"
    bad_width.write_text("MODULUS 21\nMULTIPLIER 2\nWIDTH 3\nRESULT R1\nDBL R1\nEND\n")
    assert main(["verify", "--circuit", str(bad_width)]) == 2
    big = tmp_path / "big.txt"  # M = 2^21 + 1
    big.write_text("MODULUS 2097153\nMULTIPLIER 2\nWIDTH 22\nRESULT R1\nDBL R1\nEND\n")
    code, out = run(capsys, "verify", "--circuit", str(big))
    assert code == 0 and out == "PASS C=2 M=2097153 tested=2097153 failures=0 injective=True\n"
    big.write_text("MODULUS 2097153\nMULTIPLIER 2\nWIDTH 22\nRESULT R1\nDBL R1\nDBL R1\nEND\n")
    code, out = run(capsys, "verify", "--circuit", str(big))
    assert code == 1 and out.splitlines()[1] == "  x=1: result=4 other=0"
    assert out.splitlines()[-1] == "  x=-1: result=2097152 other=0"  # every x but 0 fails
    with pytest.raises(SystemExit) as exc:  # no mode to choose
        main(["verify", "--circuit", str(big), "--samples", "50"])
    assert exc.value.code == 2


def test_modexp_outputs(capsys, tmp_path):
    out_dir = tmp_path / "me"
    code, _ = run(
        capsys, "modexp", "--modulus", "21", "--base", "2", "-o", str(out_dir), "--stats",
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["positions"] == 10 and summary["distinct_blocks"] == 3
    for c in (2, 4, 16):
        assert verify(parse((out_dir / f"um_c{c}.txt").read_text())).passed


def test_modexp_lookahead_shallower(capsys):
    _, ri = run(capsys, "modexp", "--modulus", "1011113", "--stats")
    _, la = run(capsys, "modexp", "--modulus", "1011113", "--adder", "lookahead", "--stats")
    assert json.loads(la)["depth"] < json.loads(ri)["depth"]


def test_bench_end_to_end(capsys, tmp_path):
    out = tmp_path / "records.csv"
    summary = tmp_path / "summary.csv"
    code, _ = run(
        capsys, "bench", "--bits", "7", "--methods", "heuristic,baseline,optimal",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("bits,modulus,multiplier,method,")
    assert summary.read_text().startswith("bits,method,count,")


def test_bench_writes_only_its_outputs(capsys, tmp_path):
    out, summary = tmp_path / "records.csv", tmp_path / "summary.csv"
    argv = ["bench", "--bits", "7", "--multiplier-cap", "3", "--out", str(out)]
    assert main([*argv, "--summary", str(summary)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["records.csv", "summary.csv"]


@pytest.mark.parametrize(
    "outputs",
    [["--out", "nodir/r.csv"], ["--out", "r.csv", "--summary", "nodir/r.csv"]],
    ids=["out", "summary"],
)
def test_bench_opens_outputs_before_sweep(capsys, tmp_path, monkeypatch, outputs):
    # an unwritable output is refused before any modulus is swept
    def sweep(cfg):
        raise AssertionError("swept before its outputs were opened")

    monkeypatch.setattr(bench, "bench_sweep", sweep)
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--bits", "8", "--methods", "heuristic,baseline,optimal", *outputs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "modmult bench: [Errno 2] No such file or directory: 'nodir/r.csv'\n"


def test_bench_moduli_file_and_cache(capsys, tmp_path):
    mods = tmp_path / "mods.txt"
    mods.write_text("21\n33\n")
    out = tmp_path / "r.csv"
    cache = tmp_path / "cache"
    args = [
        "bench", "--moduli", str(mods), "--methods", "heuristic",
        "--out", str(out), "--cache", str(cache),
    ]
    assert main(args) == 0
    first = out.read_text()
    assert main(args) == 0
    assert out.read_text() == first
    assert any(cache.iterdir())


def test_bits_range_spec(capsys, tmp_path):
    out = tmp_path / "r.csv"
    code, _ = run(
        capsys, "bench", "--bits", "7..8", "--methods", "heuristic",
        "--multiplier-cap", "3", "--out", str(out),
    )
    assert code == 0
    bits_seen = {line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]}
    assert bits_seen == {"7", "8"}


def test_optimal_free_op_exit_code(capsys, tmp_path):
    # NEG priced at 0 would give the search a zero-cost edge
    model = tmp_path / "free_neg.json"
    coeffs = {**CostModel().coeffs, NEG: (0, 0)}
    toffoli = {op: {"slope": s, "intercept": i} for op, (s, i) in coeffs.items()}
    model.write_text(json.dumps({"name": "free-neg", "toffoli": toffoli}))
    args = ["optimal", "--modulus", "21", "--multiplier", "13", "--cost-model", str(model)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "NEG" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("target", [["--all"], ["--multiplier", "5"]], ids=["all", "multiplier"])
def test_optimal_model_too_dear_exit_code(capsys, tmp_path, target):
    # distances past int32 rows' unreached value: refused, never printed as
    # costs or a failed reconstruction
    dear = {op: (300_000_000, 0) for op in ("ADD", "SUB", "DBL", "HLV")}
    toffoli = {op: {"slope": s, "intercept": i} for op, (s, i) in {**CostModel().coeffs, **dear}.items()}
    (tmp_path / "dear.json").write_text(json.dumps({"toffoli": toffoli}))
    args = ["optimal", "--modulus", "21", "--cost-model", str(tmp_path / "dear.json"), *target]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("modmult optimal: ") and err.count("\n") == 1


def _depth_file(path, **prices):
    """A model file whose depth section is ripple's with `prices` changed."""
    coeffs = {**DepthModel.ripple().coeffs, **prices}
    depth = {op: {"slope": s, "intercept": i} for op, (s, i) in coeffs.items()}
    path.write_text(json.dumps({"depth": depth}))
    return str(path)


def test_negative_depth_model_fails_its_records(capsys, tmp_path):
    model = _depth_file(tmp_path / "negative_add.json", ADD=(-5, 0))
    (tmp_path / "mods.txt").write_text("21\n")
    args = ["bench", "--moduli", str(tmp_path / "mods.txt"), "--methods", "baseline"]
    assert main([*args, "--cost-model", model, "--out", str(tmp_path / "r.csv")]) == 3
    assert capsys.readouterr().err.endswith(" records carry errors\n")


def test_bench_names_record_errors(capsys, tmp_path):
    # each distinct error with its count, most frequent first, then the total
    model = _depth_file(tmp_path / "negative_add.json", ADD=(-5, 0))
    (tmp_path / "mods.txt").write_text("21\n35\n")
    args = ["bench", "--moduli", str(tmp_path / "mods.txt"), "--methods", "baseline"]
    assert main([*args, "--cost-model", model, "--out", str(tmp_path / "r.csv")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "18 x InvariantViolation: negative depth for ADD at n=6",
        "7 x InvariantViolation: negative depth for ADD at n=5",
        "25 records carry errors",
    ]


def test_bench_caps_the_errors_it_names(capsys, tmp_path, monkeypatch):
    def broken(method, c, *args):
        raise RuntimeError(f"synthesis failed for {c}")

    monkeypatch.setattr(bench, "method_circuit", broken)
    (tmp_path / "mods.txt").write_text("21\n")
    args = ["bench", "--moduli", str(tmp_path / "mods.txt"), "--methods", "heuristic"]
    assert main([*args, "--out", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    units = [c for c in range(2, 21) if math.gcd(c, 21) == 1]  # each its own error
    assert err == [
        *(f"1 x RuntimeError: synthesis failed for {c}" for c in units[:5]),
        f"... {len(units) - 5} more distinct errors",
        f"{len(units)} records carry errors",
    ]


def _modexp_depth(capsys, *argv):
    code, out = run(capsys, "modexp", "--modulus", "21", *argv)
    assert code == 0
    return json.loads(out)["depth"]


def test_modexp_prices_depth_with_the_file(capsys, tmp_path):
    # M = 21's blocks double and halve, so the file prices them through DBL
    toffoli = {op: {"slope": s, "intercept": i} for op, (s, i) in CostModel().coeffs.items()}
    (tmp_path / "toffoli_only.json").write_text(json.dumps({"toffoli": toffoli}))
    (tmp_path / "lookahead.json").write_text(json.dumps({"adder_regime": "lookahead"}))
    ripple = _modexp_depth(capsys)
    lookahead = _modexp_depth(capsys, "--adder", "lookahead")
    assert (ripple, lookahead) == (499, 690)
    # no depth section: the file's regime, or --adder's built-in model
    assert _modexp_depth(capsys, "--cost-model", str(tmp_path / "toffoli_only.json")) == ripple
    assert _modexp_depth(capsys, "--cost-model", str(tmp_path / "lookahead.json")) == lookahead
    only = ["--cost-model", str(tmp_path / "toffoli_only.json")]
    assert _modexp_depth(capsys, *only, "--adder", "lookahead") == lookahead
    assert _modexp_depth(capsys, "--cost-model", _depth_file(tmp_path / "dear.json", DBL=(100, 0))) > ripple


def test_modexp_refuses_a_negative_file_depth(capsys, tmp_path):
    model = _depth_file(tmp_path / "negative_dbl.json", DBL=(-5, 0))
    assert main(["modexp", "--modulus", "21", "--cost-model", model]) == 2
    err = capsys.readouterr().err
    assert err == "modmult modexp: negative depth for DBL at n=5\n"


@pytest.mark.parametrize("adder", ["ripple", "lookahead"])
def test_modexp_refuses_adder_with_a_depth_section(capsys, tmp_path, adder):
    model = _depth_file(tmp_path / "depth.json")
    assert main(["modexp", "--modulus", "21", "--cost-model", model, "--adder", adder]) == 2
    err = capsys.readouterr().err
    assert err.startswith("modmult modexp: --adder and the depth section") and err.count("\n") == 1


def test_optimal_beyond_cap_exit_code(capsys):
    assert main(["optimal", "--modulus", "8191", "--all"]) == 2  # 13 bits, cap 12
    err = capsys.readouterr().err
    assert "cap" in err and len(err.strip().splitlines()) == 1


def test_bench_errors_exit_code(capsys, tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("synthesis failed")

    monkeypatch.setattr(bench, "method_circuit", broken)
    mods = tmp_path / "mods.txt"
    mods.write_text("21\n")
    out = tmp_path / "r.csv"
    assert main(["bench", "--moduli", str(mods), "--methods", "heuristic", "--out", str(out)]) == 3
    assert "carry errors" in capsys.readouterr().err


@pytest.mark.parametrize("modulus", ["22", "1"])
def test_bench_invalid_moduli_exit_code(capsys, tmp_path, modulus):
    # refused up front: no error records, no empty CSV
    mods = tmp_path / "mods.txt"
    mods.write_text(f"21\n{modulus}\n")
    out = tmp_path / "r.csv"
    assert main(["bench", "--moduli", str(mods), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("modmult bench: modulus must be") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("bits", ["5", "21", "7,5"])
def test_bench_invalid_width_writes_nothing(capsys, tmp_path, monkeypatch, bits):
    # refused by SweepConfig, before --out is opened: no empty CSV
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--bits", bits, "--out", "r.csv"]) == 2
    assert "outside practical range [6, 20]" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("c", [1, 13, 22])
def test_synth_euclid_matches_bench(capsys, c):
    # one rule for the euclid circuit: `synth` prints the circuit that
    # `bench` records, the empty one for C = 1 mod M included
    code, text = run(capsys, "synth", "--method", "euclid", "--modulus", "21", "--multiplier", str(c))
    circ = parse(text)
    cfg = bench.SweepConfig(moduli=(21,), multiplier_cap=1, multiplier_start=c % 21, methods=("euclid",))
    [rec] = bench.bench_sweep(cfg)
    assert code == 0 and not rec.error
    assert (rec.toffoli, rec.op_count) == (circuit_cost(circ, CostModel())[0], len(circ.ops))
    assert (c % 21 == 1) == (circ.ops == ())


def _units_and_sample():
    """Every unit of 21, and a seeded sample of the units of 1007."""
    units = {m: [c for c in range(1, m) if math.gcd(c, m) == 1] for m in (21, 1007)}
    return [(21, c) for c in units[21]] + [(1007, c) for c in random.Random(1007).sample(units[1007], 24)]


@pytest.mark.parametrize("method", ["heuristic", "baseline", "euclid"])
def test_synth_builds_the_circuit_for_c_mod_m(capsys, method):
    # C, C + M and C - M are one residue, so one circuit, byte for byte
    for m, c in _units_and_sample():
        texts = {
            run(capsys, "synth", "--method", method, "--modulus", str(m), "--multiplier", str(x))
            for x in (c, c + m, c - m)
        }
        assert len(texts) == 1 and {code for code, _ in texts} == {0}, (method, m, c)


@pytest.mark.parametrize("method", ["heuristic", "baseline", "euclid"])
@pytest.mark.parametrize("modulus", ["0", "1", "-21"])
def test_synth_modulus_below_3_refused(capsys, method, modulus):
    # refused before C is reduced mod M: no division by zero, no trace
    argv = ["synth", "--method", method, "--modulus", modulus, "--multiplier", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"modmult synth: modulus must be >= 3, got {modulus}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--modulus", "21", "--multiplier", "7"], "gcd(7, 21)"),
        (["synth", "--modulus", "22", "--multiplier", "3"], "modulus must be odd"),
        (["synth", "--modulus", "21", "--multiplier", "13", "--lookahead", "9"], "lookahead depth"),
        (["modexp", "--modulus", "21", "--base", "7"], "gcd(7, 21)"),
        (["bench", "--bits", "13", "--methods", "optimal", "--out", "unused.csv"], "bit cap"),
        (["bench", "--methods", "heuristic,heuristic", "--out", "unused.csv"], "duplicate methods"),
        (["bench", "--bits", "7,7", "--out", "unused.csv"], "duplicate moduli"),
        (["bench", "--bits", "9..7", "--out", "unused.csv"], "empty range 9..7"),
        (["bench", "--moduli", os.devnull, "--out", "unused.csv"], "no moduli"),
        (["bench", "--multiplier-cap", "0", "--out", "unused.csv"], "multiplier cap"),
        (["bench", "--bits", "5", "--out", "unused.csv"], "[6, 20]"),
        (["semiprimes", "--bits", "5"], "[6, 20]"),
        (["synth", "--modulus", "21", "--multiplier", "13", "--cost-model", "no-intercept.json"],
         "toffoli op 'ADD' has no 'intercept'"),
        (["optimal", "--modulus", "21", "--multiplier", "13", "--cost-model", "no-slope.json"],
         "depth op 'SUB' has no 'slope'"),
        (["modexp", "--modulus", "21", "--cost-model", "no-intercept.json"], "has no 'intercept'"),
        (["bench", "--cost-model", "no-slope.json", "--out", "unused.csv"], "has no 'slope'"),
        (["synth", "--modulus", "21", "--multiplier", "13", "--cost-model", "op-number.json"],
         "model file op-number.json: toffoli op 'ADD' is not an object"),
        (["synth", "--modulus", "21", "--multiplier", "13", "--cost-model", "section-list.json"],
         "model file section-list.json: toffoli is not a JSON object"),
        (["optimal", "--modulus", "21", "--multiplier", "13", "--cost-model", "doc-list.json"],
         "model file doc-list.json: the document is not a JSON object"),
        (["modexp", "--modulus", "21", "--cost-model", "null-slope.json"],
         "model file null-slope.json: toffoli op 'ADD' slope None is not an integer"),
        (["bench", "--cost-model", "missing.json", "--out", "unused.csv"],
         "model file missing.json: No such file or directory"),
        (["synth", "--modulus", "21", "--multiplier", "13", "--cost-model", "float-slope.json"],
         "model file float-slope.json: depth op 'ADD' slope 3.5 is not an integer"),
        (["verify", "--circuit", "missing.txt"], "No such file or directory: 'missing.txt'"),
        (["verify", "--circuit", "arabic.txt"], "line 1: MODULUS takes one decimal value"),
        (["bench", "--moduli", "missing.txt", "--out", "unused.csv"],
         "No such file or directory: 'missing.txt'"),
        (["bench", "--moduli", "mods.txt", "--out", "nodir/x.csv"],
         "No such file or directory: 'nodir/x.csv'"),
        (["synth", "--modulus", "21", "--multiplier", "13", "-o", "nodir/c.txt"],
         "No such file or directory: 'nodir/c.txt'"),
        (["bench", "--moduli", "mods.txt", "--cache", "mods.txt", "--out", "unused.csv"],
         "File exists: 'mods.txt'"),
    ],
    ids=[
        "synth-not-coprime",
        "synth-even-modulus",
        "synth-lookahead",
        "modexp-base",
        "bench-optimal-cap",
        "bench-duplicate-method",
        "bench-duplicate-bits",
        "bench-empty-bits",
        "bench-empty-moduli-file",
        "bench-multiplier-cap-0",
        "bench-width-5",
        "semiprimes-width-5",
        "synth-model-no-intercept",
        "optimal-model-no-slope",
        "modexp-model-no-intercept",
        "bench-model-no-slope",
        "synth-model-op-not-object",
        "synth-model-section-not-object",
        "optimal-model-document-not-object",
        "modexp-model-null-slope",
        "bench-model-missing-file",
        "synth-model-float-slope",
        "verify-missing-circuit",
        "verify-non-ascii-digits",
        "bench-missing-moduli-file",
        "bench-out-in-missing-dir",
        "synth-output-in-missing-dir",
        "bench-cache-is-a-file",
    ],
)
def test_invalid_input_exit_code(capsys, tmp_path, monkeypatch, argv, message):
    # refused with exit 2 and one line, not a traceback and exit 1
    # (verify's code for a mismatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no-intercept.json").write_text('{"toffoli": {"ADD": {"slope": 3}}}')
    (tmp_path / "no-slope.json").write_text('{"depth": {"SUB": {"intercept": 4}}}')
    (tmp_path / "op-number.json").write_text('{"toffoli": {"ADD": 3}}')
    (tmp_path / "section-list.json").write_text('{"toffoli": []}')
    (tmp_path / "doc-list.json").write_text("[]")
    (tmp_path / "null-slope.json").write_text(
        '{"toffoli": {"ADD": {"slope": null, "intercept": 0}}}'
    )
    (tmp_path / "float-slope.json").write_text('{"depth": {"ADD": {"slope": 3.5, "intercept": 4}}}')
    (tmp_path / "mods.txt").write_text("21\n")
    # "\u0662\u0661" is decimal to str.isdecimal and 21 to int()
    (tmp_path / "arabic.txt").write_text(
        "MODULUS \u0662\u0661\nMULTIPLIER 2\nWIDTH 5\nRESULT R1\nDBL R1\nEND\n", encoding="utf-8"
    )
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"modmult {argv[0]}: ") and message in err
    assert len(err.strip().splitlines()) == 1
