#!/usr/bin/env python3
"""End-to-end benchmark of the Figure 1c loop (see README.md beside this file).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --smoke       # every workload briefly, schema check
    python3 e2ebench/run.py --selftest    # the benchmark's own statistics
    python3 e2ebench/run.py compare BASE_DIR CAND_DIR

Run from the repository root.  The first call builds the benchmark and the
repository's libraries from source into $CARGO_TARGET_DIR (default
.bench_build).  Human-readable lines go first; the last line of standard
output is one JSON object: correct, attempted, failed and the metrics named
in BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
Every result is also saved, with a host and build fingerprint, under
<build dir>/results/.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 175.0  # a run must end within 180 s


def fail(msg, code=1):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def tmp_env():
    """Temporary files (compiler, native tier) stay in the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then build incrementally; returns the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; nothing to build", 2)
    out = os.path.join(build_dir(), "e2ebench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    env = tmp_env()
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT, env=env)
            if rc != 0:
                fail("cmake configure failed; see " + log_path)
        rc = subprocess.call(["cmake", "--build", out, "-j3"],
                             stdout=log, stderr=subprocess.STDOUT, env=env)
    if rc != 0:
        fail("build failed; see " + log_path)
    return out


def cache_value(tree, key):
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """The commit when run inside git, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def fingerprint(tree):
    cpu, mhz = platform.processor() or "unknown", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu in ("unknown", "", "x86_64"):
                    cpu = val.strip()
                if key == "cpu MHz" and not mhz:
                    mhz = val.strip()
    except OSError:
        pass
    compiler = cache_value(tree, "CMAKE_CXX_COMPILER")
    version = ""
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    build_type = cache_value(tree, "CMAKE_BUILD_TYPE")
    flags = " ".join(x for x in (
        cache_value(tree, "CMAKE_CXX_FLAGS"),
        cache_value(tree, "CMAKE_CXX_FLAGS_" + build_type.upper())) if x)
    return {
        "host": {"cpu": cpu, "nproc": len(os.sched_getaffinity(0))},
        "build": {"compiler": version or compiler, "flags": flags,
                  "build_type": build_type,
                  "telemetry": cache_value(tree, "STAT4_TELEMETRY")},
        "cpu_mhz": mhz,
        "source": source_digest(),
    }


def run_binary(tree, workload, seed, seconds, trace, deadline):
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    env = tmp_env()  # the native tier compiles there
    cmd = [os.path.join(tree, "e2ebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", results]
    left = deadline - time.monotonic()
    if left < 5:
        fail("no time left to run after the build")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=left)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %.0f s" % left)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("e2ebench exited with code %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("e2ebench printed no result")
    return json.loads(lines[-1])


def validate(raw, names):
    """Problems with a binary result against the metric names expected."""
    problems = []
    for name in names:
        m = raw["metrics"].get(name)
        if m is None:
            problems.append("missing metric " + name)
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            problems.append("non-finite metric " + name)
    for key in ("correct", "attempted", "failed"):
        if key not in raw:
            problems.append("missing " + key)
    return problems


def describe(raw):
    for name, m in raw["metrics"].items():
        note = ("; " + m["note"]) if m["note"] else ""
        print("%-46s %16.6g %-9s (n=%d%s)" % (name, m["value"], m["unit"],
                                              m["samples"], note))
    for c in raw["checks"]:
        print("check %-40s %s  %s" % (c["name"], "ok" if c["ok"] else "FAIL",
                                      c["detail"]))
    print("tiers (configured/active): " + ", ".join(raw["tiers"]))


def cmd_run(args):
    spec = load_spec()
    tree = build()  # the first run in a checkout may take longer: it builds
    deadline = time.monotonic() + RUN_BUDGET_S
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    raw = run_binary(tree, args.workload, args.seed, args.seconds, args.trace,
                     deadline)
    fp = fingerprint(tree)
    problems = validate(raw, names)
    describe(raw)
    for p in problems:
        print("schema: " + p)
    saved = os.path.join(build_dir(), "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(saved, "w") as f:
        json.dump({"fingerprint": fp, "result": raw}, f, indent=1)
    print("fingerprint: %s" % json.dumps(fp, sort_keys=True))
    print("saved: " + os.path.relpath(saved, ROOT))
    units = {m["name"]: m["unit"] for m in spec[key]}
    out = {
        "correct": bool(raw["correct"]) and not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]) + len(problems),
        "metrics": {n: {"value": raw["metrics"][n]["value"], "unit": units[n]}
                    for n in names if n in raw["metrics"]},
    }
    print(json.dumps(out))
    return 0


def cmd_smoke(_args):
    spec = load_spec()
    tree = build()
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            raw = run_binary(tree, w["name"], 1, 2, trace,
                             time.monotonic() + RUN_BUDGET_S)
            names = [m["name"] for m in spec[key]]
            problems = validate(raw, names)
            extra = sorted(set(raw["metrics"]) - set(names))
            if extra:
                problems.append("metrics not in BENCHMARK.json: " +
                                ", ".join(extra))
            if not raw["correct"]:
                problems.append("a correctness check failed")
            print("%-16s trace=%d %s" % (w["name"], trace,
                                         "ok" if not problems else
                                         "; ".join(problems)))
            ok = ok and not problems
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def cmd_selftest(_args):
    tree = build()
    proc = subprocess.run([os.path.join(tree, "e2ebench_selftest")],
                          capture_output=True, text=True, timeout=120)
    sys.stdout.write(proc.stdout)
    ok = proc.returncode == 0
    # The C++ quartiles must agree with Python's statistics.quantiles.
    for line in proc.stdout.splitlines():
        if not line.startswith("quartiles "):
            continue
        _, data, got = line.split(" ", 2)
        values = [float(x) for x in data.split(",")]
        want = statistics.quantiles(values, n=4)
        have = [float(x) for x in got.split(",")]
        if any(abs(a - b) > 1e-9 * max(1.0, abs(a)) for a, b in
               zip(want, have)):
            print("FAIL quartiles %s: python %s, c++ %s" % (data, want, have))
            ok = False
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


def cmd_compare(args):
    """Medians of two result directories, refused across hosts or builds."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def load(d):
        out = []
        for path in sorted(glob.glob(os.path.join(d, "*.json"))):
            with open(path) as f:
                out.append(json.load(f))
        if not out:
            fail("no results in " + d, 2)
        return out

    base, cand = load(args.base), load(args.cand)
    prints = {json.dumps([r["fingerprint"]["host"], r["fingerprint"]["build"]],
                         sort_keys=True) for r in base + cand}
    if len(prints) != 1:
        print("refusing to compare: host or build fingerprints differ:")
        for p in sorted(prints):
            print("  " + p)
        return 3
    worse = False
    for w in spec["workloads"]:
        for name, m in bounds.items():
            def med(rs):
                vals = [r["result"]["metrics"][name]["value"] for r in rs
                        if r["result"]["workload"] == w["name"]
                        and r["result"]["trace"] == 0
                        and name in r["result"]["metrics"]]
                return statistics.median(vals) if vals else None
            b, c = med(base), med(cand)
            if b is None or c is None or b == 0:
                continue
            change = (c - b) / b
            bad = change > m["bound"] if m["better"] == "lower" else \
                -change > m["bound"]
            worse = worse or bad
            print("%-16s %-24s base %-12.6g cand %-12.6g %+7.2f%% %s" % (
                w["name"], name, b, c, 100 * change,
                "WORSE" if bad else ""))
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("cand")
        return cmd_compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return cmd_smoke(args)
    if args.selftest:
        return cmd_selftest(args)
    if not args.workload:
        p.error("--workload is required")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
