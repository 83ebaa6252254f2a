#!/usr/bin/env python3
"""Build and run the GridTuner decision benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package from source (release, offline), runs one
workload in a fresh process with the worker pool at `GRIDTUNER_THREADS =
nproc`, stamps the result with the host and config fingerprint, writes it
to `perfbench/out/`, compares it with the previous result of the same
workload when the fingerprints match, and prints one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when any
decision failed or differed from its reference.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ["brute-nyc", "model-chengdu", "bootstrap-xian", "quadtree-chengdu"]
# The default seed: decisions at this seed must match expected.json.
DEFAULT_SEED = 7
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR")
    if not t:
        return HERE / "target"
    return Path(t) if os.path.isabs(t) else ROOT / t


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target_dir() / "release" / "gridtuner-perfbench"


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def fingerprint(program_fp):
    fp = dict(program_fp)
    fp["rustc"] = tool_output(["rustc", "-V"])
    fp["git_sha"] = (tool_output(["git", "rev-parse", "HEAD"])
                     if (ROOT / ".git").exists() else "unknown")
    return fp


def compare(previous, result):
    """Prints the change against the previous result when both ran on the
    same host and config; says why not otherwise."""
    if previous.get("fingerprint") != result["fingerprint"]:
        diff = sorted(k for k in set(previous.get("fingerprint", {})) | set(result["fingerprint"])
                      if previous.get("fingerprint", {}).get(k) != result["fingerprint"].get(k))
        log(f"INFO: fingerprint differs from the previous result ({', '.join(diff)}); not compared")
        return True
    for name, m in result["metrics"].items():
        old = previous["metrics"].get(name, {}).get("value")
        if old:
            log(f"  vs previous  {name:<26} {m['value'] / old:8.4f}x")
    if "exact_counts" not in result["detail"]:
        return True
    same = previous["detail"].get("exact_counts") == result["detail"]["exact_counts"]
    log("exact counts " + ("repeat" if same else "DIFFER") + " across the two traced runs")
    # Without a commit id the two runs may be of different programs.
    return same or result["fingerprint"]["git_sha"] == "unknown"


def run_one(binary, workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"{workload}-spans.jsonl")]
    env = dict(os.environ)
    env.setdefault("GRIDTUNER_THREADS", str(len(os.sched_getaffinity(0))))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {workload} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["fingerprint"] = fingerprint(result["fingerprint"])

    expected = json.loads((HERE / "expected.json").read_text())[workload]
    if seed == DEFAULT_SEED and result["detail"]["decision"] != expected:
        log(f"perfbench: {workload} decision differs from expected.json: "
            f"{result['detail']['decision']} != {expected}")
        result["failed"] = result["attempted"]
        result["correct"] = False

    path = OUT / f"{workload}-trace{trace}.json"
    if path.exists():
        if not compare(json.loads(path.read_text()), result):
            result["correct"] = False
    path.write_text(json.dumps(result, indent=1) + "\n")
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    binary = build()
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {w: run_one(binary, w, a.seed, a.seconds, a.trace) for w in names}
    line = {w: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
            for w, r in results.items()}
    print(json.dumps(line[a.workload] if a.workload != "all" else line))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
