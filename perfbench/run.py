"""The normdisc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (``worker.py``) from the root of the
checkout.  Several of them only set the workload up, so ``setup_s`` is the
median of several process starts; the last one also runs the workload's job
list in a closed loop, one job at a time, for ``--seconds`` and then checks
every output against the benchmark's oracles.

With ``--trace 0`` the result line holds the end-to-end metrics listed in
``BENCHMARK.json``.  Each job of the list is timed by the upper quartile of
its wall times over the passes (see ``worker.job_time``); ``jobs_per_s`` is
the list's length over the sum of those times and ``job_s.p50`` their
median.  ``setup_s`` is the median set-up, ``peak_rss_mb`` the measured
process's ``ru_maxrss`` at the end of the timed region, and
``attack_width`` the mean ``r_max - r_min`` of the falsifier panel
(``workloads.attack_panel``).  Failed jobs are reported as ``failed`` out
of ``attempted``, not as a metric.

With ``--trace 1`` it holds the per-layer metrics of a traced run, for one
set-up plus one pass of the job list, so that counts are exact; the spans
are written to ``perfbench/out/``.  The last line of stdout is the JSON
result; the lines before it are for people: machine facts, sample counts,
failures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # process starts per run; the last one is the measured run
DEADLINE_S = 170.0


def git_commit() -> str:
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to its end; return its start time and its parsed result line.

    The worker is killed and waited for if it outlives ``deadline`` or this
    process exits early, so no worker is ever left running.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: worker printed no result")
    return t0, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that a running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    if not (ROOT / "src" / "normdisc" / "__init__.py").is_file():
        sys.exit("perfbench: src/normdisc is missing; run from a checkout of the repository")

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        t0, res = run_worker(common + ["--setup-only"], deadline)
        setups.append(res["ready"] - t0)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(OUT / f"{stem}.spans.jsonl")]
    t0, res = run_worker(run_args, deadline)
    setups.append(res["ready"] - t0)

    values = {
        "jobs_per_s": res["jobs_per_s"],
        "job_s.p50": res["job_s_p50"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "attack_width": res["attack_width"],
    }
    if args.trace:
        values = res["layers"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": git_commit(), **res["facts"]}
    attempted, failed = res["attempted"], res["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(facts))
    print(f"jobs: {attempted} attempted in {res['passes']} passes of {res['jobs_per_pass']}, "
          f"{res['timed_s']:.2f} s timed; {failed} failed, fail_frac={failed / attempted:.4g}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for key, val in res["measured"].items():
        print(f"measured {key} = {val:.6g} (reported, not a failure)")
    if args.trace:
        print(f"tracing overhead: {values['trace.overhead_pct']:.2f}% of untraced jobs_per_s "
              f"({values['trace.untraced_jobs_per_s']:.4g} untraced, {values['trace.jobs_per_s']:.4g} traced)")
    else:
        print(f"job_s.p50: median over the {res['jobs_per_pass']} jobs of the list, "
              f"each timed over {res['untraced_passes']} passes")
    for msg in res["failures"]:
        print("FAIL " + msg)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    (OUT / f"{stem}.json").write_text(json.dumps({"facts": facts, "setup_samples": setups, "result": res, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": res["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
