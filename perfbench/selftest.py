"""Self-test of the benchmark; exits 0 when every check passes.

    python3 perfbench/selftest.py

For every workload it makes tiny runs and checks that

* an untraced run exits 0, is correct, and prints exactly the
  ``end_to_end`` metrics of ``BENCHMARK.json`` with their units;
* a traced run prints exactly the ``per_layer`` metrics;
* a run with ``--inject-fault`` reports ``failed > 0`` and exits non-zero;

and that the command, run from a directory that holds only
``BENCHMARK.json`` and the benchmark's own files, exits non-zero without
printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def invoke(cwd: Path, workload: str, *extra: str):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_result(result, names: dict, label: str) -> list:
    problems = []
    if result is None:
        return [f"{label}: no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted = {result.get('attempted')!r}")
    got = result.get("metrics", {})
    if set(got) != set(names):
        problems.append(
            f"{label}: missing {sorted(set(names) - set(got))}, "
            f"unexpected {sorted(set(got) - set(names))}")
    for name, unit in names.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{label}: {name} unit {m.get('unit')!r} != {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def main() -> int:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    problems = []
    for wl in WORKLOAD_NAMES:
        proc, result = invoke(ROOT, wl, "--seconds", "2", "--trace", "0", "--tiny")
        if proc.returncode != 0 or not (result or {}).get("correct"):
            problems.append(f"{wl} untraced: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        problems += check_result(result, e2e, f"{wl} untraced")
        for name in e2e:
            value = ((result or {}).get("metrics", {}).get(name) or {}).get("value")
            if isinstance(value, (int, float)) and value <= 0:
                problems.append(f"{wl} untraced: {name} = {value} (must be > 0)")

        proc, result = invoke(ROOT, wl, "--seconds", "3", "--trace", "1", "--tiny")
        if proc.returncode != 0 or not (result or {}).get("correct"):
            problems.append(f"{wl} traced: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        problems += check_result(result, layers, f"{wl} traced")

        proc, result = invoke(ROOT, wl, "--seconds", "2", "--trace", "0", "--tiny",
                              "--inject-fault")
        if proc.returncode == 0:
            problems.append(f"{wl} fault: exited 0")
        if result is None or result.get("correct") or not result.get("failed"):
            problems.append(f"{wl} fault: result {result!r} shows no failure")
        print(f"{wl}: checked", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = invoke(bare, "fib_actors", "--seconds", "1")
        if proc.returncode == 0 or result is not None:
            problems.append(f"bare directory: exit {proc.returncode}, result {result!r}")
    print("bare directory: checked")

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
