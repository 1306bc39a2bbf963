"""One measured process: set up a workload, run it for a while, check it.

Started by ``run.py``; prints one JSON object on its last stdout line.  BLAS
is pinned before numpy is imported, because the thread count of OpenBLAS is
fixed when the library loads.  ``normdisc`` is imported from the ``src/``
directory next to this benchmark, never from an installed copy.

    python3 perfbench/worker.py --workload grid-exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --workload grid-exact --seed 1 --setup-only
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_normdisc():
    if not (SRC / "normdisc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no normdisc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import normdisc

    if Path(normdisc.__file__).resolve().parent != (SRC / "normdisc").resolve():
        sys.exit(f"perfbench: imported normdisc from {normdisc.__file__}, not from {SRC}")


def blas_facts() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        fact = {"library": Path(path).name}
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    fact["threads"] = threads()
                    fact["config"] = config().decode()
        facts.append(fact)
    return facts


def run_pass(jobs, outputs, durations, failures, tracer=None):
    """Run every job once; append each job's output and wall time to its list."""
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception:  # a failed job is counted, and the run goes on
            out = None
            failures.append(f"{job.name}: raised\n{traceback.format_exc(limit=4)}")
        durations[i].append(time.perf_counter() - t0)
        outputs[i].append(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = ap.parse_args(argv)

    import_normdisc()
    import numpy as np
    import scipy

    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.job = "setup"
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    jobs = wl.jobs
    outputs: list[list] = [[] for _ in jobs]
    # per job, its wall times in untraced [False] and traced [True] passes
    durations = {False: [[] for _ in jobs], True: [[] for _ in jobs]}
    failures: list[str] = []
    if tracer is not None:
        tracer.uninstall()
        setup_counts = dict(tracer.counts)
    # trace 0: every pass untraced.  trace 1: passes alternate untraced and
    # traced, so both throughputs come from the same process and inputs.
    passes = {False: 0, True: 0}
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and passes[False] > passes[True]
        if traced:
            tracer.install()
        run_pass(jobs, outputs, durations[traced], failures, tracer if traced else None)
        passes[traced] += 1
        if traced:
            tracer.uninstall()
        if time.perf_counter() - t_start >= args.seconds and (tracer is None or passes[True] > 0):
            break
    timed_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # oracle checks, outside the timed region
    failed = 0
    for job, outs in zip(jobs, outputs):
        for out in outs:
            if out is None:  # the job raised; run_pass recorded why
                failed += 1
                continue
            try:
                errs = job.check(out)
            except Exception:
                errs = ["its output could not be checked\n" + traceback.format_exc(limit=4)]
            if errs:
                failed += 1
                failures.append(f"{job.name}: " + "; ".join(errs))
    extra_failures = []
    if wl.final_check is not None:
        try:
            extra_failures += wl.final_check([outs[0] for outs in outputs])
        except Exception:
            extra_failures.append("final check raised\n" + traceback.format_exc(limit=4))
    panel = [outs[0] for job, outs in zip(jobs, outputs) if job.attack]
    if not panel:
        # the panel behind attack_width, run once and untimed
        for job in workloads.attack_panel(args.seed):
            try:
                cert = job.run()
            except Exception:
                extra_failures.append(f"{job.name}: raised\n{traceback.format_exc(limit=4)}")
                continue
            extra_failures += [f"{job.name}: {e}" for e in job.check(cert)]
            panel.append(cert)
    widths = [cert.r_max - cert.r_min for cert in panel if cert is not None]
    failures += extra_failures

    result = {
        "ready": ready,
        "attempted": sum(passes.values()) * len(jobs),
        "failed": failed,
        "correct": failed == 0 and not extra_failures,
        "failures": failures[:20],
        "jobs_per_pass": len(jobs),
        "passes": passes[False] + passes[True],
        "timed_s": timed_s,
        "jobs_per_s": jobs_per_s(durations[False]),
        "job_s_p50": statistics.median(job_time(ts) for ts in durations[False]),
        "untraced_passes": passes[False],
        "durations": {job.name: ts for job, ts in zip(jobs, durations[False])},
        "peak_rss_mb": peak_rss_mb,
        "attack_width": statistics.fmean(widths) if widths else 0.0,
        "measured": wl.measured,
        "facts": {"numpy": np.__version__, "scipy": scipy.__version__, "blas_threads_pinned": int(BLAS_THREADS), "blas": blas_facts()},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, setup_counts, passes[True])
        result["layers"]["trace.jobs_per_s"] = jobs_per_s(durations[True])
        result["layers"]["trace.untraced_jobs_per_s"] = result["jobs_per_s"]
        result["layers"]["trace.overhead_pct"] = 100.0 * (1.0 - result["layers"]["trace.jobs_per_s"] / result["jobs_per_s"])
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def job_time(ts: list[float]) -> float:
    """A job's time: the upper quartile of its wall times over the passes.

    Other tenants of a shared host make the same job run faster in bursts of
    seconds to minutes, by up to 1.7x for interpreter-bound jobs.  The upper
    quartile stays on the common, slower speed unless a burst covers most of
    the run, where the median and the mean follow every burst.
    """
    return ts[0] if len(ts) < 2 else statistics.quantiles(ts, n=4)[2]


def jobs_per_s(durations: list[list[float]]) -> float:
    """Jobs per second of one pass of the job list, from each job's time."""
    return len(durations) / sum(job_time(ts) for ts in durations)


def layer_metrics(tracer, setup_counts: dict, traced_passes: int) -> dict:
    """Per-layer values for one set-up plus one pass of the job list."""
    setup_s = tracer.self_times({"setup"})
    all_s = tracer.self_times()
    out = {}
    for name in set(all_s):
        out[name + ".s"] = setup_s.get(name, 0.0) + (all_s[name] - setup_s.get(name, 0.0)) / traced_passes
    for name, total in tracer.counts.items():
        base = setup_counts.get(name, 0.0)
        out[name] = base + (total - base) / traced_passes
    steps = out.get("l2disc.bss.steps", 0.0)
    out["l2disc.bss.support_per_step"] = out.get("l2disc.bss.support", 0.0) / steps if steps else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
