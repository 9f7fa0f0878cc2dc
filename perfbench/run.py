"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload fsg-serial --seed 20050405 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload process is a fresh
interpreter started with every ``REPRO_*`` variable removed,
``PYTHONHASHSEED`` pinned and ``src`` as its only extra import path, so
outside settings cannot change what is measured.  Untraced runs also start
:data:`SETUP_SAMPLES` - 1 set-up-only interpreters and report the median
set-up time of all of them.  The last line of standard output is the JSON
result; see ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
#: Set-up time is the median over this many fresh interpreters.
SETUP_SAMPLES = 5
#: Wall-clock budget of the whole run, inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


def workload_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def bench(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``bench.py`` with *args* in a workload process and wait for it."""
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        env=workload_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = bench([*common, "--setup-only"], timeout=60)
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                return 1
            setup_samples.append(json.loads(probe.stdout.strip().splitlines()[-1]))

    remaining = RUN_BUDGET_S - (time.monotonic() - started)
    try:
        main_run = bench(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        print(f"workload run exceeded {RUN_BUDGET_S:.0f} s", file=sys.stderr)
        return 1
    sys.stderr.write(main_run.stderr)
    if main_run.returncode != 0:
        sys.stdout.write(main_run.stdout)
        return 1
    lines = main_run.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    setup_samples.append(
        {key: result.pop(key) for key in ("setup_s", "setup_wall_s")}
    )
    if not args.trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(
            sample["setup_s"] for sample in setup_samples
        )
        print("set-up samples:", json.dumps(setup_samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
