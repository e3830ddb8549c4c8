"""Self-test of the benchmark itself (not of qdiscord).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
- two traced runs with one seed give identical deterministic counts
  (discord.evals_per_solve, discord.objective.calls,
  monogamy.solves_per_trial, entropy.hq.calls, measurement.apply_full.calls)
  and that every check passes;
- the metric names printed match BENCHMARK.json, traced and untraced;
- cli-e2e reads exactly SOLVES_PER_TRIAL solves per monogamy trial;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  command exits non-zero without printing a result.
Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DETERMINISTIC = (
    "discord.evals_per_solve",
    "discord.objective.calls",
    "monogamy.solves_per_trial",
    "entropy.hq.calls",
    "measurement.apply_full.calls",
)
SCRATCH = ".bench_selftest"
SEED = 3
# The verify suite re-solves the discords the monogamy report already
# computed: 8 solves per trial where 5 would do. Change this to 5 when it
# stops re-solving.
SOLVES_PER_TRIAL = 8


def _run(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def _result(done):
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _bare_directory_fails() -> bool:
    bare = ROOT / SCRATCH
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        return done.returncode != 0 and '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems = []
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        first, second = (_result(_run(workload, SEED, 1)) for _ in range(2))
        counts = {k: first["metrics"][k]["value"] for k in DETERMINISTIC}
        print(workload, json.dumps(counts))
        for res in (first, second):
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} operations failed")
            if set(res["metrics"]) != layer_names:
                problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        for k in DETERMINISTIC:
            if first["metrics"][k]["value"] != second["metrics"][k]["value"]:
                problems.append(f"{workload}: {k} differs between runs with one seed")
        if workload == "cli-e2e":
            if counts["monogamy.solves_per_trial"] != SOLVES_PER_TRIAL:
                problems.append(f"cli-e2e: monogamy.solves_per_trial reads {counts['monogamy.solves_per_trial']}")

    untraced = _result(_run("ledger-n4", SEED, 0))
    if set(untraced["metrics"]) != {m["name"] for m in SPEC["end_to_end"]}:
        problems.append("untraced metrics differ from BENCHMARK.json end_to_end")
    if not _bare_directory_fails():
        problems.append("the command did not fail in a directory without the sources")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
