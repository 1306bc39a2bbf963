"""The benchmark's workloads: seeded inputs, jobs and their oracle checks.

A workload is a list of jobs built once from the workload seed (this is the
set-up the benchmark times as ``setup_s``).  The measured loop runs the whole
list again and again, one job at a time, so every pass does the same work.
Each job's ``check`` compares one output with a reference computed by
:mod:`oracle` and returns the reasons it is wrong (empty when it is right);
checks run after the timed region.  Library calls go through module
attributes (``spaces.poly_norm``, not a name imported from it) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracle
from normdisc import cli, dictionaries, greedy, l1disc, l2disc, spaces


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    attack: bool = False  # a falsifier job of the panel behind attack_width


@dataclass
class Workload:
    jobs: list[Job]
    # called once with the first output of every job; returns failures
    final_check: Callable[[list], list[str]] | None = None
    measured: dict = field(default_factory=dict)  # values reported, never failed on


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _random_coeffs(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# grid-exact: criterion 1 on boxes with their exact grids

# (box, polynomials per pass); the counts put the median job inside the
# box:2x3 cluster, so job_s.p50 does not sit on a jump between job sizes
GRID_SPACES = (((4,), 10), ((3,), 10), ((4, 4), 20), ((2, 3), 21))


def _grid_certificate_job(Q, grid) -> Job:
    def run():
        return l2disc.l2_certificate(spaces.real_trig_system(Q), grid)

    def check(cert):
        lo, hi = oracle.spectrum(grid.points, np.full(grid.m, 1.0 / grid.m), Q.array)
        errs = []
        if not cert.eps <= 1e-10:
            errs.append(f"grid certificate eps={cert.eps:.3e} > 1e-10")
        if not abs(cert.eps - oracle.eps_of(lo, hi)) <= 1e-9:
            errs.append(f"certificate eps={cert.eps:.3e} but eigvalsh gives {oracle.eps_of(lo, hi):.3e}")
        return errs

    return Job(f"box:{'x'.join(map(str, Q.max_abs))} certificate", run, check)


def _grid_poly_job(name, f, ref, grid, measured) -> Job:
    def run():
        return spaces.poly_norm(f, 1.0, ref), spaces.poly_norm(f, 2.0, ref), f.evaluate(grid.points)

    @functools.cache
    def expected():
        vals = oracle.values(f.coeffs, grid.points, f.support.array)
        l1 = float(np.abs(oracle.values(f.coeffs, ref.nodes, f.support.array)).mean())
        return vals, l1

    def check(out):
        n1, n2, vals = out
        own_vals, own_l1 = expected()
        errs = []
        if np.abs(vals - own_vals).max() > 1e-9 * max(1.0, np.abs(own_vals).max()):
            errs.append("grid values differ from the direct sum")
        msd = float(np.mean(np.abs(vals) ** 2)) - n2**2
        if not abs(msd) <= 1e-10:
            errs.append(f"mean-square discrepancy {msd:.3e} exceeds 1e-10")
        mad = float(np.mean(np.abs(vals))) - n1
        own_mad = float(np.mean(np.abs(own_vals))) - own_l1
        if not abs(mad - own_mad) <= 1e-9:
            errs.append(f"mean-absolute discrepancy {mad:.6e} differs from the direct {own_mad:.6e}")
        # criterion 1's documented red: measured, not failed on
        measured["grid_mean_abs_disc_max"] = max(measured.get("grid_mean_abs_disc_max", 0.0), abs(mad))
        return errs

    return Job(name, run, check)


def grid_exact(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    wl = Workload([])
    for n_vec, count in GRID_SPACES:
        Q = spaces.build_box(list(n_vec))
        ref = spaces.Quadrature.tensor_torus(Q.max_abs, oversample=8)
        grid = spaces.grid_P(Q.max_abs)
        wl.jobs.append(_grid_certificate_job(Q, grid))
        label = "box:" + "x".join(map(str, n_vec))
        for i in range(count):
            f = spaces.TrigPolynomial(Q, _random_coeffs(rng, len(Q)))
            wl.jobs.append(_grid_poly_job(f"{label} poly {i}", f, ref, grid, wl.measured))
    return wl


# ---------------------------------------------------------------------------
# l1-attack: the falsifier on criterion-10 sets and on the item-3 panel


def _attack_job(name, pointset, Q, effort, seed, attack=False) -> Job:
    def run():
        return l1disc.certify_l1(pointset, Q, effort=effort, seed=seed)

    def check(cert):
        w = np.full(pointset.m, 1.0 / pointset.m)
        o = cert.effort.oversample
        errs = []
        for label, coeffs, reported in (("min", cert.argmin_coeffs, cert.r_min), ("max", cert.argmax_coeffs, cert.r_max)):
            own = oracle.l1_ratio(coeffs, pointset.points, w, Q.array, o)
            if not abs(own - reported) <= 1e-6:
                errs.append(f"r_{label}={reported:.9f} but its coefficients give {own:.9f}")
        if not (cert.r_min <= 1.0 + 1e-12 and cert.r_max >= 1.0 - 1e-12):
            errs.append(f"ratios [{cert.r_min:.6f}, {cert.r_max:.6f}] do not bracket 1")
        if pointset.m == 1 and not cert.r_min < 0.05:
            errs.append(f"one point but r_min={cert.r_min:.3e} >= 0.05")
        return errs

    return Job(name, run, check, attack=attack)


def attack_panel(seed: int) -> list[Job]:
    """Quick-effort falsifier jobs; their mean r_max - r_min is attack_width.

    The point sets are ROADMAP item 3's fixed panel (m=1, grid_P, small
    random sets, one 2-d set) and do not change with the seed; the attack's
    own seeds do.  So attack_width measures how strong the falsifier is,
    not how hard a seed's point sets happen to be, and every workload
    computes the same value for the same seed.
    """
    quick = l1disc.FalsifierEffort.quick()
    Q = spaces.build_hyperbolic_cross(2, 1)
    Q2 = spaces.build_hyperbolic_cross(2, 2)
    sets = [("cross:2:1 m=1", l1disc.random_l1_pointset(1, 1, seed=101), Q),
            ("cross:2:1 grid_P", spaces.grid_P(Q.max_abs), Q)]
    sets += [(f"cross:2:1 m=56 #{i}", l1disc.random_l1_pointset(1, 56, seed=200 + i), Q) for i in range(4)]
    sets.append(("cross:2:2 m=200", l1disc.random_l1_pointset(2, 200, seed=300), Q2))
    seeds = _seeds(np.random.default_rng([seed, 1]), len(sets))
    return [_attack_job(name + " quick", ps, q, quick, s, attack=True) for (name, ps, q), s in zip(sets, seeds)]


def l1_attack(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    jobs = []
    for n, m in ((2, 1120), (3, 5400)):
        Q = spaces.build_hyperbolic_cross(n, 1)
        ps_seed, attack_seed = _seeds(rng, 2)
        jobs.append(_attack_job(f"cross:{n}:1 m={m}", l1disc.random_l1_pointset(1, m, seed=ps_seed), Q, None, attack_seed))
    return Workload(jobs + attack_panel(seed))


# ---------------------------------------------------------------------------
# l2-build-2d: experiment-style jobs, step by step as cli.run_job does them

L2_JOBS = (("cross:5:2", "random"), ("cross:4:2", "random"), ("cross:4:2", "greedy"), ("cross:3:2", "bss"), ("cross:3:2", "greedy"))
BSS_D = 4.0
OVERSAMPLE = 4


def _l2_job(spec, method, m, seed) -> Job:
    def run():
        Q = cli.parse_space(spec)
        system = spaces.real_trig_system(Q, oversample=OVERSAMPLE)
        extra = None
        if method == "random":
            ps, _ = l2disc.random_l2_pointset(system, m, seed=seed)
        elif method == "greedy":
            extra = l2disc.frobenius_rga_pointset(system, m)
            ps = extra.pointset
        else:
            extra = l2disc.bss_weighted_sparsify(system, BSS_D)
            ps = extra.pointset
        cert = l2disc.l2_certificate(system, ps)
        row = {"space": spec, "N": system.size, "m": ps.m, "method": method, "seed": seed,
               "eps": cert.eps, "r_min": None, "r_max": None}
        return row, Q, ps, cert, extra, system.constants.t

    def check(out):
        row, Q, ps, cert, extra, t = out
        lo, hi = oracle.spectrum(ps.points, ps.effective_weights(), Q.array)
        errs = []
        if not abs(cert.eps - oracle.eps_of(lo, hi)) <= 1e-9:
            errs.append(f"certificate eps={cert.eps:.12g} but eigvalsh gives {oracle.eps_of(lo, hi):.12g}")
        n = len(Q)
        if method == "greedy":
            bounds = 2.0 * n * t**2 / np.sqrt(np.arange(1, len(extra.residuals) + 1))
            bad = int((extra.residuals > bounds + 1e-10).sum())
            if bad:
                errs.append(f"Frobenius residual above 2 N t^2 / sqrt(j) at {bad} steps")
        if method == "bss":
            if ps.m > math.ceil(BSS_D * n):
                errs.append(f"BSS support {ps.m} > ceil(dN) = {math.ceil(BSS_D * n)}")
            if not hi / lo <= oracle.bss_ratio_bound(BSS_D) + 1e-9:
                errs.append(f"BSS ratio {hi / lo:.6f} above {oracle.bss_ratio_bound(BSS_D):.6f}")
        return errs

    return Job(f"{spec} {method} m={m}", run, check)


def l2_build_2d(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    jobs = []
    for (spec, method), s in zip(L2_JOBS, _seeds(rng, len(L2_JOBS))):
        n = len(cli.parse_space(spec))
        jobs.append(_l2_job(spec, method, 4 * n, s))
    probe = 1  # cross:4:2 random: cheap and seed-dependent

    def final_check(first_outputs):
        row = first_outputs[probe][0]
        ref = cli.run_job((row["space"], 4 * row["N"], row["method"], row["seed"], False, "quick", BSS_D, OVERSAMPLE))
        diff = [k for k in cli.CSV_COLUMNS if k != "runtime_ms" and ref[k] != row[k]]
        return [f"cli.run_job differs from the mirrored job in {diff}"] if diff else []

    return Workload(jobs, final_check=final_check)


# ---------------------------------------------------------------------------
# sup-greedy: sup-norm refinement, m-term curves, orthogonal greedy

SUP_POLYS = 100  # per cross level, per pass
SIGMA_BALLS = ("coeff-l1", "kernel-l2", "basis-sup", "basis-sup-2stage")
SIGMA_M = (1, 2, 4, 8, 16, 32)
OGA_RUNS = 25  # per weakness, per pass


def _sup_job(name, f, quad) -> Job:
    def run():
        return (spaces.poly_norm(f, math.inf, quad), spaces.poly_norm(f, 1.0, quad), spaces.poly_norm(f, 2.0, quad))

    K, c, size = f.support.array, f.coeffs, len(f.support)

    @functools.cache
    def expected():
        fine = oracle.reference_grid(K, 4 * quad.meta["oversample"])
        fine_max = float(np.abs(oracle.values(c, fine, K)).max())
        own_l1 = float(np.abs(oracle.values(c, oracle.reference_grid(K, quad.meta["oversample"]), K)).mean())
        return fine_max, own_l1

    def check(out):
        sup, n1, n2 = out
        fine_max, own_l1 = expected()
        errs = []
        if sup > size * n1 * (1 + 1e-9) or sup > math.sqrt(size) * n2 * (1 + 1e-9):
            errs.append(f"Nikolskii violation: sup={sup:.6g}, L1={n1:.6g}, L2={n2:.6g}, N={size}")
        if sup < fine_max * (1 - 1e-9):
            errs.append(f"refined sup {sup:.12g} below the 4x finer grid maximum {fine_max:.12g}")
        if sup > float(np.abs(c).sum()) * (1 + 1e-12):
            errs.append("sup above the sum of |coefficients|")
        if not _close(n2, float(np.linalg.norm(c)), 1e-9) or not _close(n1, own_l1, 1e-9):
            errs.append("L1 or L2 norm differs from the direct sum")
        return errs

    return Job(name, run, check)


def _sigma_job(system, ball, seed) -> Job:
    def run():
        return greedy.sigma_m_curve(system, ball, SIGMA_M, n_samples=8, seed=seed)

    def check(points):
        if [p.m for p in points] != list(SIGMA_M):
            return ["sigma curve does not cover the requested m"]
        bad = [p.m for p in points if p.hard_bound is not None and p.max_residual > p.hard_bound + 1e-10]
        return [f"{ball}: residual above the hard bound at m={bad}"] if bad else []

    return Job(f"sigma_m_curve {ball}", run, check)


def _oga_job(name, target, d, weakness) -> Job:
    def run():
        return greedy.oga(target, d, steps=32, weakness=weakness, a1_mass=1.0)

    def check(run_):
        m = run_.m
        bounds = 1.0 / np.sqrt(1.0 + np.arange(1, m + 1) * weakness**2)
        errs = []
        bad = int((run_.residual_norms[1 : m + 1] > bounds + 1e-10).sum())
        if bad:
            errs.append(f"orthogonal greedy above mass/sqrt(1 + m t^2) at {bad} steps")
        resid = float(np.linalg.norm(target - d.atoms[:, run_.selected] @ run_.coefficients))
        if not abs(resid - run_.residual_norms[-1]) <= 1e-9 * max(1.0, float(np.linalg.norm(target))):
            errs.append(f"reported residual {run_.residual_norms[-1]:.12g} but the atoms give {resid:.12g}")
        return errs

    return Job(name, run, check)


def sup_greedy(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    jobs = []
    for n in (2, 3, 4):
        Q = spaces.build_hyperbolic_cross(n, 1)
        quad = spaces.Quadrature.tensor_torus(Q.max_abs, oversample=8)
        for i in range(SUP_POLYS):
            jobs.append(_sup_job(f"cross:{n}:1 sup {i}", spaces.TrigPolynomial(Q, _random_coeffs(rng, len(Q))), quad))
    system = spaces.real_trig_system(spaces.build_hyperbolic_cross(2, 1))
    for ball, s in zip(SIGMA_BALLS, _seeds(rng, len(SIGMA_BALLS))):
        jobs.append(_sigma_job(system, ball, s))
    d2 = dictionaries.shifted_kernel_dict(spaces.build_hyperbolic_cross(2, 1))
    for weakness in (1.0, 0.5):
        for i in range(OGA_RUNS):
            # an exact convex combination of atoms: a certified member of A1
            idx = rng.integers(0, d2.n_atoms, size=40)
            a = rng.dirichlet(np.ones(40)) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=40))
            jobs.append(_oga_job(f"oga t={weakness} #{i}", d2.atoms[:, idx] @ a, d2, weakness))
    return Workload(jobs)


WORKLOADS = {
    "grid-exact": grid_exact,
    "l1-attack": l1_attack,
    "l2-build-2d": l2_build_2d,
    "sup-greedy": sup_greedy,
}
