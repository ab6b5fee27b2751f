import json

import pytest

from modmult import bench
from modmult.cli import main
from modmult.circuit import NEG, CostModel, parse, save_model_file
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
    # a mismatch exits 1; a circuit the command will not check exits 2
    bad_width = tmp_path / "width.txt"
    bad_width.write_text("MODULUS 21\nMULTIPLIER 2\nWIDTH 3\nRESULT R1\nDBL R1\nEND\n")
    assert main(["verify", "--circuit", str(bad_width)]) == 2
    big = tmp_path / "big.txt"  # M = 2^21 + 1, past the exhaustive cap
    big.write_text("MODULUS 2097153\nMULTIPLIER 2\nWIDTH 22\nRESULT R1\nDBL R1\nEND\n")
    assert main(["verify", "--circuit", str(big), "--exhaustive"]) == 2
    assert "exhaustive" in capsys.readouterr().err
    assert main(["verify", "--circuit", str(big), "--samples", "50"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--circuit", str(big), "--exhaustive", "--samples", "50"])
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
    ratio = (tmp_path / "ratio_vs_bits.csv").read_text().strip().split("\n")
    assert ratio[0] == "bits,baseline_over_heuristic,heuristic_over_optimal"
    assert ratio[1].startswith("7,")


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
    save_model_file(str(model), CostModel("free-neg", {**CostModel().coeffs, NEG: (0, 0)}))
    args = ["optimal", "--modulus", "21", "--multiplier", "13", "--cost-model", str(model)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "NEG" in err and len(err.strip().splitlines()) == 1


def test_optimal_beyond_cap_exit_code(capsys):
    assert main(["optimal", "--modulus", "8191", "--all"]) == 2  # 13 bits, cap 12
    err = capsys.readouterr().err
    assert "cap" in err and len(err.strip().splitlines()) == 1


def test_bench_errors_exit_code(capsys, tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("synthesis failed")

    monkeypatch.setattr(bench, "_synthesize_method", broken)
    mods = tmp_path / "mods.txt"
    mods.write_text("21\n")
    out = tmp_path / "r.csv"
    assert main(["bench", "--moduli", str(mods), "--methods", "heuristic", "--out", str(out)]) == 3
    assert "carry errors" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--modulus", "21", "--multiplier", "7"], "gcd(7, 21)"),
        (["synth", "--modulus", "21", "--multiplier", "13", "--lookahead", "9"], "lookahead depth"),
        (["modexp", "--modulus", "21", "--base", "7"], "gcd(7, 21)"),
        (["bench", "--bits", "13", "--methods", "optimal", "--out", "unused.csv"], "bit cap"),
    ],
    ids=["synth-not-coprime", "synth-lookahead", "modexp-base", "bench-optimal-cap"],
)
def test_invalid_input_exit_code(capsys, argv, message):
    # refused with exit 2 and one line, not a traceback and exit 1
    # (verify's code for a mismatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"modmult {argv[0]}: ") and message in err
    assert len(err.strip().splitlines()) == 1
