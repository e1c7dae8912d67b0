#!/usr/bin/env python3
"""The repository benchmark: one workload, one JSON line of metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_accsat --seed 1 --seconds 30 --trace 0

The workload runs in a fresh interpreter (``perfbench/workload.py``) over
the sources in ``src/``.  With ``--trace 0`` the last line holds every
``end_to_end`` metric of ``BENCHMARK.json``; with ``--trace 1`` every
``per_layer`` metric.  The run exits non-zero when an output is wrong, when
its numbers would depend on host speed, or when the sources are missing.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench_state"
#: Extra interpreter starts that only set up, so setup_s is a median of seven.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
#: Every workload the benchmark implements.  BENCHMARK.json lists the ones a
#: regression check runs; serve_mix and serve_process are left out of it
#: (see README.md).
WORKLOADS = ("suite_accsat", "synth_cse", "serve_mix", "serve_process")


#: How BENCHMARK.json states the open-loop constants: at the very end of
#: exactly one workload's ``why``, ``... [12 req/s, SLO 750 ms]``.
CONSTANTS = re.compile(r"\[(\d+(?:\.\d+)?) req/s, SLO (\d+(?:\.\d+)?) ms\]$")


def _constants(spec: dict) -> tuple:
    """The offered rate and the latency limit, as written in BENCHMARK.json."""

    whys = [workload["why"] for workload in spec["workloads"]]
    found = [m for m in map(CONSTANTS.search, whys) if m]
    text = " ".join(whys)
    if len(found) != 1 or text.count("req/s") != 1 or text.count("SLO") != 1:
        raise SystemExit("one workload's why in BENCHMARK.json must end with "
                         "'[N req/s, SLO N ms]', and no other text may state either")
    return float(found[0].group(1)), float(found[0].group(2))


def _tree_hash() -> str:
    """Fingerprint of the code under test and of the benchmark itself."""

    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _child(args, rate: float, slo_ms: float, setup_only: bool) -> tuple:
    """Run the workload in a fresh interpreter; (scaled set-up seconds, payload)."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # the service's trip files and any other temporaries stay in the checkout
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, "-m", "perfbench.workload",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--slo-ms", str(slo_ms), "--rate", str(rate),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    payload = json.loads(lines[-1])
    return (payload["ready"] - spawned) * payload["setup_scale"], payload


def _check_determinism(args, code_hash: str, deterministic: dict) -> list:
    """Compare against an earlier run of this workload, seed and code."""

    path = STATE / f"{args.workload}-{args.seed}-{code_hash}.json"
    if not path.exists():
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(deterministic, sort_keys=True))
        os.replace(partial, path)
        return []
    earlier = json.loads(path.read_text())
    return [
        f"{name} was {earlier.get(name)} in an earlier run, now {value}"
        for name, value in sorted(deterministic.items())
        if earlier.get(name) != value
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print("run from a checkout holding BENCHMARK.json and src/repro", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    rate, slo_ms = _constants(spec)
    # hashed before the run, so the figures are filed under the code that ran
    code_hash = _tree_hash()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_child(args, rate, slo_ms, setup_only=True)[0])
    setup, payload = _child(args, rate, slo_ms, setup_only=False)
    setups.append(setup)

    metrics = dict(payload["metrics"])
    attempted, failed = payload["attempted"], payload["failed"]
    metrics["setup_s"] = statistics.median(setups)
    metrics["failed_ratio"] = failed / attempted if attempted else 1.0
    wrong = payload["wrong"] + _check_determinism(args, code_hash, payload["deterministic"])
    invalid = list(payload["invalid"])
    invalid += [f"{name} is not finite" for name, value in metrics.items()
                if not math.isfinite(value)]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "errors": payload["errors"],
        "wrong": wrong, "invalid": invalid, "details": payload["details"],
    }), file=sys.stderr)

    correct = not wrong and not invalid
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed + (len(wrong) - len(payload["wrong"])),
        "metrics": {} if invalid else {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
