"""One workload in a fresh interpreter: ``python -m perfbench.workload ...``.

Started by ``perfbench/run.py``, never by hand.  Prints one JSON line: the
monotonic instant the run became ready for its first timed operation
(``ready``, for ``setup_s``), the host-speed scale taken right after it
(``setup_scale``) and, unless ``--setup-only``, the outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Host-speed probes that scale this interpreter's set-up time.
SETUP_SCALE_PROBES = 30


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", type=float, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # imports are part of set-up, so they happen here, not at module load
    from perfbench.hostspeed import probe, scale
    from perfbench.pipeline import run_pipeline
    from perfbench.serve import run_serve

    ready_at = []
    setup_scale = []

    def ready() -> bool:
        ready_at.append(time.monotonic())
        setup_scale.append(scale([probe() for _ in range(SETUP_SCALE_PROBES)]))
        return not args.setup_only

    slo_s = args.slo_ms / 1e3
    trace = bool(args.trace)
    if args.workload in ("suite_accsat", "synth_cse"):
        outcome = run_pipeline(
            args.workload, args.seed, args.seconds, trace, slo_s, args.rate, ready
        )
    elif args.workload in ("serve_mix", "serve_process"):
        outcome = run_serve(
            args.workload, args.seed, args.seconds, trace, slo_s, args.rate, ready
        )
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    payload = {"ready": ready_at[0], "setup_scale": setup_scale[0]}
    if not args.setup_only:
        payload.update(outcome.as_dict())
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
