"""Command line interface: freqset / discretize / experiment."""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time

from . import __version__
from .l1disc import FalsifierEffort, certify_l1
from .l2disc import bss_weighted_sparsify, check_bss_d, check_m, frobenius_rga_pointset, l2_certificate, random_l2_pointset
from .spaces import MAX_RULE_NODES, FrequencySet, build_box, build_hyperbolic_cross, grid_P, real_trig_system

EXIT_OK = 0
EXIT_TARGET = 1  # ran fine but a requested target was not met
EXIT_USAGE = 2  # bad arguments or config

DISCRETIZE_M = 64  # discretize --m when not given
METHODS = ("random", "greedy", "bss", "grid")

CSV_COLUMNS = ("space", "N", "m", "method", "seed", "eps", "r_min", "r_max", "runtime_ms")
MAX_SPACE_ENTRIES = 2**18  # cap on |Q| * d of a parsed space, the entries of its frequency set's (|Q|, d) array
MAX_SEEDS = 2**16  # cap on the seeds of one experiment, each one job per method


def check_exact_grid(axis_sizes) -> None:
    """Refuse a space whose smallest exact grid, prod(2 max|k_j| + 1) over ``axis_sizes``, exceeds ``MAX_RULE_NODES``.

    The product stops at the first factor past the cap, so no huge number
    is formed.
    """
    nodes = 1
    for size in axis_sizes:
        nodes *= size
        if nodes > MAX_RULE_NODES:
            raise ValueError(f"its smallest exact grid has more than MAX_RULE_NODES = {MAX_RULE_NODES:,} nodes")


def check_space_entries(dim: int, counts) -> None:
    """Refuse a space whose |Q|, the sum of ``counts``, times ``dim`` exceeds ``MAX_SPACE_ENTRIES``; the sum stops past the cap."""
    if any(total * dim > MAX_SPACE_ENTRIES for total in itertools.accumulate(counts)):
        raise ValueError(f"its frequency set has more than MAX_SPACE_ENTRIES = {MAX_SPACE_ENTRIES:,} entries |Q| * d")


def parse_space(spec: str) -> FrequencySet:
    """cross:<n>:<dim> or box:<N1>x<N2>x..., refused before it is built when its exact grid or its frequency set is too large."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "cross":
            n_str, _, d_str = rest.partition(":")
            n, dim = int(n_str), int(d_str or "1")
            # max |k_j| = 2^n - 1 on each axis; from n = 24 on, one axis alone is past the cap, as are 25 axes of 3 nodes
            check_exact_grid(itertools.repeat(2 ** (min(n, 24) + 1) - 1, min(max(dim, 0), 25)))
            # the blocks with ||s||_1 = k hold 2^k frequencies each, and there are C(k + d - 1, d - 1) of them
            check_space_entries(dim, (2**k * math.comb(k + dim - 1, k) for k in range(n + 1 if dim > 0 else 0)))
            return build_hyperbolic_cross(n, dim)
        if kind == "box":
            n_vec = [int(v) for v in rest.split("x")]
            check_exact_grid(2 * max(v, 0) + 1 for v in n_vec)
            check_space_entries(len(n_vec), [math.prod(2 * max(v, 0) + 1 for v in n_vec)])
            return build_box(n_vec)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad space spec {spec!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown space kind {kind!r} (use cross:n:d or box:N1xN2)")


def parse_seeds(spec: str) -> list[int]:
    """'0..9' (inclusive) or '1,4,7', none negative; a range is counted before its list is built."""
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        seeds = range(int(lo), int(hi) + 1)
        if not seeds:
            raise ConfigError(f"empty seed range {spec!r}")
        if seeds.stop - seeds.start > MAX_SEEDS:
            raise ConfigError(f"seed range {spec!r} holds more than MAX_SEEDS = {MAX_SEEDS:,} seeds")
    else:
        seeds = [int(v) for v in spec.split(",")]
    if min(seeds) < 0:  # numpy's generators refuse it only once a job runs, and grid ignores its seed
        raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")
    return list(seeds)


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def build_pointset(system, method: str, m: int, seed: int, bss_d: float):
    """The point set of ``method`` and its L2 certificate (random and greedy return theirs)."""
    if method == "random":
        return random_l2_pointset(system, m, seed=seed)
    if method == "greedy":
        run = frobenius_rga_pointset(system, m)
        return run.pointset, run.certificate
    if method == "bss":
        ps = bss_weighted_sparsify(system, bss_d).pointset
    elif method == "grid":
        ps = grid_P(system.freqs.max_abs)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ps, l2_certificate(system, ps)


def run_job(job: tuple) -> dict:
    (spec, m, method, seed, do_l1, effort_name, bss_d, oversample) = job
    Q = parse_space(spec)
    system = real_trig_system(Q, oversample=oversample)
    t0 = time.perf_counter()
    ps, cert = build_pointset(system, method, m, seed, bss_d)
    r_min = r_max = None
    if do_l1:
        effort = FalsifierEffort.quick() if effort_name == "quick" else FalsifierEffort()
        l1 = certify_l1(ps, Q, effort=effort, seed=seed)
        r_min, r_max = l1.r_min, l1.r_max
    ms = 1000.0 * (time.perf_counter() - t0)
    return {
        "space": spec,
        "N": system.size,
        "m": ps.m,
        "method": method,
        "seed": seed,
        "eps": cert.eps,
        "r_min": r_min,
        "r_max": r_max,
        "runtime_ms": ms,
    }


L1_VALUES = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}


def parse_l1(spec: str) -> bool:
    """1/0, true/false or yes/no, in any case."""
    if spec.lower() not in L1_VALUES:
        raise ConfigError(f"l1 must be one of {'/'.join(L1_VALUES)}, got {spec!r}")
    return L1_VALUES[spec.lower()]


def parse_effort(spec: str) -> str:
    if spec not in ("quick", "full"):
        raise ConfigError(f"effort must be quick or full, got {spec!r}")
    return spec


EXPERIMENT_KEYS = {
    "space": str,
    "m": int,
    "methods": str,
    "seeds": str,
    "l1": parse_l1,
    "effort": parse_effort,
    "bss_d": float,
    "oversample": int,
    "eps_target": float,
}

EXPERIMENT_DEFAULTS = {
    "space": "cross:2:1",
    "m": 56,
    "methods": "random",
    "seeds": "0..4",
    "l1": False,
    "effort": "quick",
    "bss_d": 4.0,
    "oversample": 4,
    "eps_target": None,
}


class ConfigError(Exception):
    """Validation failure: maps to exit code 2."""


def config_methods(cfg: dict) -> list[str]:
    return [method.strip() for method in cfg["methods"].split(",")]


def parse_config(pairs: list[str]) -> dict:
    cfg = dict(EXPERIMENT_DEFAULTS)
    for pair in pairs:
        key, sep, val = pair.partition("=")
        if not sep:
            raise ConfigError(f"config entries must be key=value, got {pair!r}")
        if key not in EXPERIMENT_KEYS:
            raise ConfigError(f"unknown config key {key!r} (known: {', '.join(sorted(EXPERIMENT_KEYS))})")
        cfg[key] = EXPERIMENT_KEYS[key](val)
    check_m(cfg["m"])
    check_eps_target(cfg["eps_target"])
    methods = config_methods(cfg)
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r} (known: {', '.join(METHODS)})")
    if "bss" in methods:
        check_bss_d(cfg["bss_d"])
    return cfg


def check_eps_target(eps_target: float | None) -> None:
    # eps > nan is always False: a nan target could never fail
    if eps_target is not None and not math.isfinite(eps_target):
        raise ConfigError(f"eps target must be finite, got {eps_target}")


def config_sha(cfg: dict) -> str:
    import hashlib  # imported here: it loads OpenSSL, which nothing else at import needs

    canon = json.dumps({k: cfg[k] for k in sorted(cfg)}, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def cmd_freqset(args) -> int:
    Q = parse_space(args.space)
    print(f"space {args.space}: dim={Q.dim} size={len(Q)} max_abs={[int(v) for v in Q.max_abs]}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(Q.to_json())
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_discretize(args) -> int:
    m = args.m
    if m is None:
        m = DISCRETIZE_M
    elif args.method not in ("random", "greedy"):
        raise ConfigError(f"--m does not apply to --method {args.method}, which sets its own point count")
    check_m(m)
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    check_eps_target(args.eps_target)
    if args.method == "bss":
        check_bss_d(args.bss_d)
    Q = parse_space(args.space)
    system = real_trig_system(Q, oversample=args.oversample)
    ps, cert = build_pointset(system, args.method, m, args.seed, args.bss_d)
    print(f"space {args.space} N={system.size} method={args.method} m={ps.m}")
    print(f"eps={fmt(cert.eps)} lam_min={fmt(cert.lam_min)} lam_max={fmt(cert.lam_max)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(ps.to_json())
        print(f"wrote {args.out}")
    if args.eps_target is not None and cert.eps > args.eps_target:
        print(f"eps target {args.eps_target} not met", file=sys.stderr)
        return EXIT_TARGET
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = parse_config(args.config)
    jobs = []
    for method in config_methods(cfg):
        for seed in parse_seeds(cfg["seeds"]):
            jobs.append((cfg["space"], cfg["m"], method, seed, cfg["l1"], cfg["effort"], cfg["bss_d"], cfg["oversample"]))
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: only --workers > 1 needs it

        # with fork, the pool starts all its workers at once, however few the jobs
        with ProcessPoolExecutor(max_workers=min(args.workers, len(jobs))) as pool:
            rows = list(pool.map(run_job, jobs))
    else:
        rows = [run_job(j) for j in jobs]

    lines = [f"# normdisc={__version__} config_sha256={config_sha(cfg)}", ",".join(CSV_COLUMNS)]
    lines += [",".join(fmt(r[c]) for c in CSV_COLUMNS) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    failed = False
    for r in rows:
        why = []
        if cfg["eps_target"] is not None and r["eps"] > cfg["eps_target"]:
            why.append(f"eps {fmt(r['eps'])} > target {fmt(cfg['eps_target'])}")
        if cfg["l1"] and not (0.5 <= r["r_min"] and r["r_max"] <= 1.5):
            why.append(f"r outside [0.5, 1.5] (r_min {fmt(r['r_min'])}, r_max {fmt(r['r_max'])})")
        if why:
            failed = True
            print(f"failed: space {r['space']} method {r['method']} seed {r['seed']}: {'; '.join(why)}", file=sys.stderr)
    return EXIT_TARGET if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="normdisc", description="norm discretization point sets and certificates")
    ap.add_argument("--version", action="version", version=f"normdisc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("freqset", help="describe a frequency set")
    p.add_argument("--space", required=True)
    p.add_argument("--out", help="write the set as JSON")
    p.set_defaults(fn=cmd_freqset)

    p = sub.add_parser("discretize", help="build one point set and certify it in L2")
    p.add_argument("--space", required=True)
    p.add_argument("--method", default="random", choices=METHODS)
    p.add_argument("--m", type=int, help=f"point count of random and greedy (default {DISCRETIZE_M})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bss-d", dest="bss_d", type=float, default=4.0)
    p.add_argument("--oversample", type=int, default=4)
    p.add_argument("--eps-target", dest="eps_target", type=float)
    p.add_argument("--out", help="write the point set as JSON")
    p.set_defaults(fn=cmd_discretize)

    p = sub.add_parser("experiment", help="sweep methods x seeds, emit CSV")
    p.add_argument("--config", nargs="*", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
