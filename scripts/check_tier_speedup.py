#!/usr/bin/env python3
"""Execution-tier speedup gate for CI (docs/PERFORMANCE.md, "Execution
tiers").

Reads a bench_throughput JSON report and enforces, within that one run:

  1. The threaded tier holds >= 2x over the interpreter on the same loop:
     BM_SwitchTrackFreqPacketDrain (interpreter) divided by
     BM_SwitchTrackFreqPacketThreaded.  Both run the same pipeline through
     the same process_into() drain loop, so the ratio cancels machine
     speed and measures only what the tier buys.
  2. Tier ordering on that loop: native <= threaded <= interpreter
     (BM_SwitchTrackFreqPacketJit <= ...Threaded <= ...Drain).  An
     inversion always means a real regression in a tier, never a slow
     runner.

Usage: check_tier_speedup.py BENCH_throughput.json
"""

import json
import sys

REQUIRED_SPEEDUP = 2.0


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        report = json.load(f)

    times = {
        b["name"]: float(b["cpu_time_ns_per_iter"])
        for b in report["benchmarks"]
    }
    try:
        interp = times["BM_SwitchTrackFreqPacketDrain"]
        threaded = times["BM_SwitchTrackFreqPacketThreaded"]
        native = times["BM_SwitchTrackFreqPacketJit"]
    except KeyError as missing:
        print(f"tier gate: benchmark {missing} missing from report",
              file=sys.stderr)
        return 1

    ok = True
    speedup = interp / threaded
    print(f"threaded {threaded:.1f} ns vs interpreter {interp:.1f} ns on "
          f"the same drain loop: {speedup:.2f}x "
          f"(required >= {REQUIRED_SPEEDUP}x)")
    if speedup < REQUIRED_SPEEDUP:
        print("tier gate: FAIL - threaded tier is under 2x the interpreter",
              file=sys.stderr)
        ok = False

    print(f"same-loop ordering: native {native:.1f} <= threaded "
          f"{threaded:.1f} <= interpreter {interp:.1f} ns "
          f"(native {interp / native:.1f}x vs the interpreter)")
    if not native <= threaded <= interp:
        print("tier gate: FAIL - tier ordering inverted", file=sys.stderr)
        ok = False

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
