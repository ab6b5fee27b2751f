"""Tests of the benchmark itself: the golden synthesis anchor, the
independent circuit interpreter, and toy-size runs of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracle  # noqa: E402
from modmult import DEFAULT_COST_MODEL, circuit_cost, serialize, synthesize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COEFFS = dict(DEFAULT_COST_MODEL.coeffs)


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seconds", "1", "--size", "toy", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    report, result = proc.stdout.splitlines()[-2:]
    return json.loads(report), json.loads(result)


def test_golden_anchor():
    """Running sha256 over serialize(synthesize(c, 1007)), ascending coprime c."""
    digest = hashlib.sha256()
    for c in range(2, 1007):
        if gcd(c, 1007) == 1:
            digest.update(serialize(synthesize(c, 1007)).encode())
    assert digest.hexdigest().startswith("483dfbf3053f0d1e")


def test_oracle_accepts_synthesized_circuits():
    for c in (2, 13, 20):
        circ = synthesize(c, 21)
        text = serialize(circ)
        assert oracle.problem(text, 21, c, list(range(21)), COEFFS, circuit_cost(circ)[0]) is None


@pytest.mark.parametrize(
    "edit, expected_toffoli, fault",
    [
        (lambda t: t.replace("\nADD R1 R2", "\nSUB R1 R2", 1), None, "x="),
        (lambda t: t, 1, "toffoli"),
        (lambda t: t.replace("WIDTH 10", "WIDTH 11"), None, "WIDTH"),
        (lambda t: t.replace("MULTIPLIER 100", "MULTIPLIER 101"), None, "header"),
        (lambda t: t.replace("END\n", ""), None, "unreadable"),
        (lambda t: t.replace("\nADD R1 R2", "\nADD R1", 1), None, "unreadable"),
    ],
)
def test_oracle_rejects_faulty_circuits(edit, expected_toffoli, fault):
    text = serialize(synthesize(100, 1007))
    assert "\nADD R1 R2" in text
    found = oracle.problem(edit(text), 1007, 100, list(range(64)), COEFFS, expected_toffoli)
    assert found is not None and found.startswith(fault)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    report, result = lines(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(type(m["value"]) in (int, float) for m in result["metrics"].values())
    provenance = report["provenance"]
    assert provenance["seed"] == 3 and provenance["circuits"] >= 1
    assert {"git_sha", "python", "numpy", "scipy", "nproc"} <= set(provenance)
    assert ("trace.overhead_frac" in provenance) == bool(trace)


def test_outputs_repeat_and_cache_is_transparent():
    """Same seed, same records; the warm sweep's records equal the cold one's."""
    runs = [lines(bench("--workload", w, "--seed", "5")) for w in ("sweep_n10", "sweep_n10", "sweep_n10_warm")]
    assert len({report["sha256"] for report, _ in runs}) == 1
    for name in ("toffoli_total", "depth_total"):
        assert len({result["metrics"][name]["value"] for _, result in runs}) == 1


def test_wrong_circuit_fails_the_run(tmp_path):
    """modexp has no in-program verification, so only the benchmark's own
    interpreter can catch a synthesis defect there."""
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    synth = tmp_path / "src" / "modmult" / "synth.py"
    text = synth.read_text()
    assert "Move.HALVE_A: (DBL, R1, None)," in text
    synth.write_text(text.replace("Move.HALVE_A: (DBL, R1, None),", "Move.HALVE_A: (HLV, R1, None),"))
    proc = bench("--workload", "modexp_n128", "--seed", "3", root=tmp_path)
    assert proc.returncode == 1, proc.stderr
    report, result = lines(proc)
    assert not result["correct"] and result["failed"] > 0 and report["problems"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sweep_n10", "--seed", "3", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
