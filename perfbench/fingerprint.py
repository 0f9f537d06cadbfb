"""Behaviour fingerprint: outputs a speed-only change must leave as they are.

    python3 perfbench/fingerprint.py

Prints one JSON object:
  paper_bench_seed0_mean_fidelity
      mean_fidelity of `su4c benchmark --n 160 --seed 0 --shots 100
      --noise calibrated --method linear`
  process_tomo_entanglement_fidelity
      entanglement_fidelity of `su4c process-tomo --seed 0 --shots 1000
      --noise calibrated --method mle` on the first Haar draw of seed 0
  decompose_sha256
      sha256 over decompose() of the first 100 Haar draws of seed 0, every
      parameter rounded to 9 decimals so that last-digit noise does not count
  problems
      output checks of those two runs that failed
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from su4c.compiler import decompose  # noqa: E402
from su4c.haar import SeededRng, sample_su4  # noqa: E402

import workloads  # noqa: E402


def decompose_hash(n: int = 100) -> str:
    rng = SeededRng(0)
    digest = hashlib.sha256()
    for _ in range(n):
        p = decompose(sample_su4(rng))
        values = [p.class_params.alpha, p.class_params.beta, p.class_params.delta]
        for letter in (p.a, p.b, p.c, p.d):
            values += [letter.theta, letter.phi, letter.phiz, letter.sign]
        values += [p.global_phase.real, p.global_phase.imag]
        digest.update(" ".join(f"{round(v, 9) + 0.0:.9f}" for v in values).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def main() -> None:
    workdir = ROOT / ".perfbench-run" / "fingerprint"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rc, text, _ = workloads.run_cli([
            "benchmark", "--n", "160", "--seed", "0", "--shots", "100",
            "--noise", "calibrated", "--method", "linear",
        ])
        _, problems = workloads.bench_problems(rc, text, 160)
        bench = json.loads(text) if rc == 0 else {}

        path = workdir / "unitary-0.json"
        workloads.write_matrix(path, sample_su4(SeededRng(0)))
        rc, text, _ = workloads.run_cli([
            "process-tomo", "--unitary", str(path), "--seed", "0", "--shots", "1000",
            "--noise", "calibrated", "--method", "mle",
        ])
        problems += workloads.process_problems(rc, text)
        process = json.loads(text) if rc == 0 else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "paper_bench_seed0_mean_fidelity": bench.get("mean_fidelity"),
        "process_tomo_entanglement_fidelity": process.get("entanglement_fidelity"),
        "decompose_sha256": decompose_hash(),
        "problems": problems,
    }))


if __name__ == "__main__":
    main()
