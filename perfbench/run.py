"""The modmult benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload sweep_n10 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it needs nothing built or
installed. Workloads: sweep_n10, sweep_n10_warm, sweep_n16, modexp_n128
(see perfbench/README.md). The workload runs in a worker process of its
own; with --trace 0 two more workers only set up, so that setup_s is a
median of three. Times are scaled to a nominal machine speed (speed.py).
Workload names, metric names and units come from BENCHMARK.json.

stdout ends with a report line (checksum, provenance) and then the result
line {"correct", "attempted", "failed", "metrics"}. Exit status is 0 when
every output check passed, 1 when one failed, 2 when the workload could
not run; a run that could not finish prints no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, tmp: str, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--tmp", tmp,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with status {proc.returncode}")
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerFailed("worker printed no result") from exc
    # CLOCK_MONOTONIC is shared by all processes, so this spans interpreter
    # start, imports and input generation up to the first timed call. The
    # worker's closing kernel samples are removed and the rest is scaled by
    # them to nominal interpreter speed.
    out["setup_wall_s"] = out["ready"] - start
    out["setup_s"] = (out["setup_wall_s"] - out["setup_kernel_s"]) * out["setup_scale"]
    return out


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def src_sha256() -> str:
    """Checksum of the program's sources, which identifies the code where
    the checkout has no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time the timed passes may take")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer metrics")
    ap.add_argument("--size", choices=("full", "toy"), default="full", help="toy = smoke-test inputs")
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "modmult" / "__init__.py").is_file():
        print(f"no modmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workers = [
            run_worker(args, tmp, deadline, setup_only=True)
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        out = run_worker(args, tmp, deadline, setup_only=False)
        workers.append(out)
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    values = out["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(w["setup_s"] for w in workers)
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        print(f"{args.workload}: worker did not report {missing}", file=sys.stderr)
        return 2
    provenance = {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        **out["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "circuits": out["circuits"],
    }
    if args.trace:
        provenance["trace.overhead_frac"] = values["trace.overhead_frac"]
    report = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "sha256": out["sha256"],
        "passes": out["passes"],
        "wall_circuits_per_s": out.get("wall_circuits_per_s"),
        "setup_s_samples": [w["setup_s"] for w in workers],
        "setup_wall_s_samples": [w["setup_wall_s"] for w in workers],
        "problems": out["problems"],
        "provenance": provenance,
    }
    correct = out["failed"] == 0
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
