"""contestlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  Set-up is timed over several fresh
interpreters (start to ``contestlab`` imported and inputs built) and
reported as their median.  The workload then runs in one more fresh
interpreter (perfbench/workload.py).  Every metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is non-zero, with no JSON line, when the
checkout has no contestlab sources or a workload process fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2        # fresh interpreters timed for setup_s, besides the workload's own
DEADLINE_S = 170        # a run must end within 180 s


def child(cmd, deadline):
    """Run ``cmd`` to completion; kill it if it outlives ``deadline``."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{' '.join(cmd[1:4])}: still running at the deadline")
    if code != 0:
        raise SystemExit(f"workload process exited with code {code}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="contestlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    package = ROOT / "src" / "contestlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no contestlab sources under {package.parent}")
    # byte-compile once so no timed import pays for it
    compileall.compile_dir(package, quiet=1)

    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    base = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        for k in range(SETUP_PROBES + 1):
            probe = k < SETUP_PROBES
            out = work / f"result-{k}.json"
            cmd = [*base, "--work", str(work / f"w{k}"), "--result", str(out),
                   "--trace", str(args.trace)]
            if probe:
                cmd.append("--setup-only")
            elif args.trace:
                cmd += ["--trace-out", str(scratch / f"trace-{args.workload}.json")]
            started = time.monotonic()
            child(cmd, deadline)
            result = json.loads(out.read_text())
            setups.append(result["ready"] - started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(result["job_s"]),
        "cpu_s": statistics.median(result["cpu_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "residual_max": result["residual_max"],
    }
    if args.trace:
        measured.update(result["layers"])

    for key, value in result["machine"].items():
        print(f"# {key}: {value}")
    print(f"# repetitions: {len(result['job_s'])}, job_s each: "
          + ", ".join(f"{v:.3f}" for v in result["job_s"]))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    listed = spec["end_to_end"] + spec["per_layer"]
    for m in listed:
        if m["name"] in measured:
            print(f"{m['name']} {measured[m['name']]} {m['unit']}")
    if not args.trace:
        for name, value in result["steps"].items():
            print(f"step.{name} {value} s")

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = [m["name"] for m in reported if m["name"] not in measured]
    if absent:
        raise SystemExit(f"metrics not measured: {absent}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
