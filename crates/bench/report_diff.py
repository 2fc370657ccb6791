#!/usr/bin/env python3
"""Compare a regenerated bench report with the committed one.

Usage: python3 crates/bench/report_diff.py COMMITTED REGENERATED

Bench reports (BENCH_E19.json, BENCH_E20.json) record deterministic
exploration counters next to wall-clock times. Every field must match
except the timings (keys ending in `_nanos`) and the timestamped event
log (`events`). A difference means the committed report is stale or the
exploration changed: the script lists every differing field and exits 1.
"""

import json
import sys


def skipped(key):
    return key.endswith("_nanos") or key == "events"


def diff(committed, fresh, path, out):
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            if skipped(key):
                continue
            if key not in committed or key not in fresh:
                out.append(f"{path}.{key}: only in the {'regenerated' if key in fresh else 'committed'} report")
            else:
                diff(committed[key], fresh[key], f"{path}.{key}", out)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            out.append(f"{path}: {len(committed)} entries committed, {len(fresh)} regenerated")
        for i, (a, b) in enumerate(zip(committed, fresh)):
            diff(a, b, f"{path}[{i}]", out)
    elif committed != fresh:
        out.append(f"{path}: committed {committed!r}, regenerated {fresh!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    committed_path, fresh_path = sys.argv[1:]
    with open(committed_path) as f:
        committed = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    out = []
    diff(committed, fresh, "", out)
    if out:
        print(f"{committed_path} differs from {fresh_path}:")
        for line in out:
            print("  " + line)
        sys.exit(1)
    print(f"{committed_path}: deterministic fields match")


if __name__ == "__main__":
    main()
