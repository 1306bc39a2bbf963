"""Acceptance suite: twelve numbered criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict line with
its measured numbers.  Criterion 1's L1 clause is expected to fail: a
uniform grid reproduces mean-square averages of trig polynomials exactly
but not mean-absolute averages (|f| is not a trig polynomial), and the
verdict line records the measured counterexample.  Everything else must
pass.
"""

import math
import time

import numpy as np
import pytest
from numpy.random import default_rng
from oracles import christoffel, quadrature_second_moment, random_trig_poly, rank_one_spectrum

from normdisc.cli import main as cli_main
from normdisc.dictionaries import (
    exponential_dict,
    scaled_basis_dict,
    scaled_kernel_dict,
    shifted_kernel_dict,
    symmetrize,
)
from normdisc.greedy import oga, rga
from normdisc.l1disc import (
    ChainingParams,
    FalsifierEffort,
    certify_l1,
    discrepancy,
    min_m_chaining,
    nikolskii_check,
    random_l1_pointset,
)
from normdisc.l2disc import (
    bss_ratio_bound,
    bss_weighted_sparsify,
    frobenius_rga_pointset,
    l2_certificate,
    random_l2_pointset,
)
from normdisc.spaces import (
    PointSet,
    Quadrature,
    TrigPolynomial,
    build_box,
    build_hyperbolic_cross,
    grid_P,
    poly_norm,
    real_trig_system,
)


def verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print("\n" + line)
    return line


def convex_mix(dictionary, rng, size=40, phases=False):
    """Exact convex combination of atoms: certified member of A1."""
    idx = rng.integers(0, dictionary.n_atoms, size=size)
    a = rng.dirichlet(np.ones(size))
    if phases:
        a = a * np.exp(1j * rng.uniform(0, 2 * math.pi, size=size))
    return dictionary.atoms[:, idx] @ a


def test_criterion_01_grid_spectral_and_l1():
    t0 = time.perf_counter()
    rng = default_rng(1)
    worst_eps = worst_q2 = worst_q1 = 0.0
    for n_vec in ([4], [3], [4, 4], [2, 3]):
        Q = build_box(n_vec)
        system = real_trig_system(Q)
        ps = grid_P(Q.max_abs)
        worst_eps = max(worst_eps, l2_certificate(system, ps).eps)
        ref = Quadrature.tensor_torus(Q.max_abs, oversample=8)
        for _ in range(100):
            f = random_trig_poly(Q, rng)
            worst_q2 = max(worst_q2, abs(discrepancy(f, ps, 2.0, ref)))
            worst_q1 = max(worst_q1, abs(discrepancy(f, ps, 1.0, ref)))
    # sharpest failure witness: f(x) = 1 + e^{ix} on the 3-point grid has
    # point mean of |f| equal to 4/3 while the true mean is 4/pi
    Q1 = build_box([1])
    f0 = TrigPolynomial(Q1, np.array([0.0, 1.0, 1.0]))  # freqs sorted: -1, 0, 1
    gap0 = abs(discrepancy(f0, grid_P(Q1.max_abs), 1.0, Quadrature.tensor_torus(Q1.max_abs, 64)))
    dt = time.perf_counter() - t0
    ok = worst_eps <= 1e-10 and worst_q1 <= 1e-10
    line = verdict(1, ok, f"spectral eps={worst_eps:.2e}, mean-square disc={worst_q2:.2e}, "
                           f"mean-abs disc={worst_q1:.2e}, witness |4/3-4/pi|~{gap0:.4f} ({dt:.1f}s)")
    assert dt < 5.0
    assert worst_eps <= 1e-10
    assert worst_q2 <= 1e-10
    assert worst_q1 <= 1e-10, (
        line + " -- uniform grids reproduce mean-square but not mean-absolute averages; "
        "|f| is not a trig polynomial, so no finite exactness argument applies"
    )


def test_criterion_02_oga_guarantee():
    t0 = time.perf_counter()
    Q = build_hyperbolic_cross(2, 1)
    assert len(Q) == 7
    d2 = shifted_kernel_dict(Q)
    rng = default_rng(2)
    violations = runs = 0
    for t in (1.0, 0.5):
        for _ in range(50):
            target = convex_mix(d2, rng, phases=True)
            run = oga(target, d2, steps=32, weakness=t, a1_mass=1.0)
            violations += run.bound_violations()
            runs += 1
    dt = time.perf_counter() - t0
    line = verdict(2, violations == 0, f"{runs} runs x 32 steps, t in (1, 0.5): "
                                       f"{violations} bound violations ({dt:.1f}s)")
    assert dt < 10.0
    assert violations == 0, line


def test_criterion_03_rga_guarantees():
    t0 = time.perf_counter()
    system = real_trig_system(build_hyperbolic_cross(2, 1))
    n, k2 = system.size, system.constants.k2
    rng = default_rng(3)
    basis_viol = kernel_viol = 0
    bdict = scaled_basis_dict(system)
    kdict = symmetrize(scaled_kernel_dict(system))
    scale = math.sqrt(k2 * n)
    for _ in range(50):
        run = rga(convex_mix(bdict, rng), bdict, steps=64, a1_certified=True)
        basis_viol += run.bound_violations()
        # scaled variant: f in scale * A1(kernel atoms), bound 2 sqrt(K2 N / m)
        f = scale * convex_mix(kdict, rng)
        run = rga(f / scale, kdict, steps=64, a1_certified=True)
        res = scale * run.residual_norms[1:]
        bound = 2.0 * np.sqrt(k2 * n / np.arange(1, 65))
        kernel_viol += int((res > bound + 1e-10).sum())
    dt = time.perf_counter() - t0
    ok = basis_viol == 0 and kernel_viol == 0
    line = verdict(3, ok, f"50 runs x 64 steps each: 2/sqrt(m) violations={basis_viol}, "
                          f"2 sqrt(K2 N/m) violations={kernel_viol} ({dt:.1f}s)")
    assert dt < 10.0
    assert ok, line


def test_criterion_04_frobenius_sparsification():
    t0 = time.perf_counter()
    system = real_trig_system(build_hyperbolic_cross(2, 1))
    n = system.size
    run = frobenius_rga_pointset(system, 256)
    fro_viol = run.bound_violations()
    # spectral certificate never exceeds the Frobenius residual at any prefix
    U = system.evaluate(run.pointset.points)
    M = np.zeros((n, n))
    spec_viol = 0
    for j in range(256):
        M += np.outer(U[j], U[j])
        lam = np.linalg.eigvalsh(M / (j + 1))
        eps = max(1.0 - lam[0], lam[-1] - 1.0)
        if eps > run.residuals[j] + 1e-10:
            spec_viol += 1
    dt = time.perf_counter() - t0
    ok = fro_viol == 0 and spec_viol == 0
    line = verdict(4, ok, f"m=1..256: Frobenius > 2N/sqrt(m) at {fro_viol} steps, "
                          f"spectral eps > Frobenius at {spec_viol} steps, "
                          f"final residual={run.residuals[-1]:.3e} ({dt:.1f}s)")
    assert dt < 30.0
    assert ok, line


def test_criterion_05_random_l2_scaling():
    t0 = time.perf_counter()
    ratios = {}
    for nn in (2, 3, 4):
        system = real_trig_system(build_hyperbolic_cross(nn, 1))
        m = 8 * system.size
        eps_m = [random_l2_pointset(system, m, seed=s)[1].eps for s in range(20)]
        eps_4m = [random_l2_pointset(system, 4 * m, seed=s)[1].eps for s in range(20)]
        ratios[system.size] = float(np.median(eps_m) / np.median(eps_4m))
    dt = time.perf_counter() - t0
    ok = all(r >= 1.6 for r in ratios.values())
    line = verdict(5, ok, "median eps(m)/eps(4m) at m=8N: "
                   + ", ".join(f"N={k}: {v:.2f}" for k, v in ratios.items())
                   + f" (need >= 1.6) ({dt:.1f}s)")
    assert dt < 120.0
    assert ok, line


def test_criterion_06_rank_one_spectra():
    t0 = time.perf_counter()
    system = real_trig_system(build_hyperbolic_cross(2, 1))
    n = system.size
    rng = default_rng(6)
    pts = rng.uniform(0, 2 * math.pi, size=(1000, 1))
    worst = 0.0
    for x in pts:
        lam = rank_one_spectrum(system, x)  # ascending: zeros then w(x)
        w = float(christoffel(system, x)[0])
        expected = np.concatenate([np.zeros(n - 1), [w]])
        worst = max(worst, float(np.max(np.abs(lam - expected))))
    moment = quadrature_second_moment(system)
    mom_lam = np.linalg.eigvalsh(moment)
    mom_err = float(np.max(np.abs(mom_lam - (n - 1))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and mom_err <= 1e-6
    line = verdict(6, ok, f"1000 points: max spectrum error={worst:.2e} (tol 1e-8); "
                          f"second-moment eigs within {mom_err:.2e} of N-1={n - 1} (tol 1e-6) ({dt:.1f}s)")
    assert dt < 60.0
    assert ok, line


def test_criterion_07_bss_support_and_ratio():
    t0 = time.perf_counter()
    details = []
    ok = True
    for nn in (2, 3):
        system = real_trig_system(build_hyperbolic_cross(nn, 1), oversample=8)
        n = system.size
        assert system.quadrature.size == 8 * n
        res = bss_weighted_sparsify(system, 4.0)
        cert = l2_certificate(system, res.pointset)
        ratio = cert.lam_max / cert.lam_min
        ok &= res.pointset.m <= math.ceil(4 * n) and ratio <= 9.0 + 1e-9
        details.append(f"N={n}: support={res.pointset.m}<= {math.ceil(4 * n)}, ratio={ratio:.3f}")
    dt = time.perf_counter() - t0
    assert bss_ratio_bound(4.0) == pytest.approx(9.0)
    line = verdict(7, ok, "; ".join(details) + f" (ratio bound 9) ({dt:.1f}s)")
    assert dt < 120.0
    assert ok, line


def test_criterion_08_chaining_budget_scaling():
    t0 = time.perf_counter()
    sizes, ms = [], []
    for nn in range(2, 7):
        size = len(build_hyperbolic_cross(nn, 1))
        m = min_m_chaining(ChainingParams(size=size, n=nn, eta=0.125, c4=1.0))
        assert math.isfinite(m)
        sizes.append(size)
        ms.append(m)
    xs = np.log([float(nn) for nn in range(2, 7)])
    ys = np.log([m / s for m, s in zip(ms, sizes)])
    slope = float(np.polyfit(xs, ys, 1)[0])
    size4 = len(build_hyperbolic_cross(4, 1))
    m_eta = min_m_chaining(ChainingParams(size=size4, n=4, eta=0.125))
    m_eta_half = min_m_chaining(ChainingParams(size=size4, n=4, eta=0.0625))
    inflation = m_eta_half / m_eta
    dt = time.perf_counter() - t0
    ok = abs(slope - 3.5) <= 0.5 and abs(inflation - 4.0) <= 1.0
    line = verdict(8, ok, f"min_m finite for n=2..6 (first={ms[0]}, last={ms[-1]}); "
                          f"slope of log(min_m/|Q_n|) vs log n = {slope:.3f} (want 3.5 +/- 0.5); "
                          f"eta-halving inflation = {inflation:.3f} (want 4 +/- 1) ({dt:.1f}s)")
    assert dt < 10.0
    assert ok, line


def test_criterion_09_falsifier_soundness():
    t0 = time.perf_counter()
    Q = build_hyperbolic_cross(2, 1)
    quick = FalsifierEffort.quick()
    single = certify_l1(random_l1_pointset(1, 1, seed=0), Q, effort=quick, seed=0)
    grid_ps = grid_P(Q.max_abs)
    cert = certify_l1(grid_ps, Q, effort=quick, seed=0)
    quad = Quadrature.tensor_torus(Q.max_abs, oversample=quick.oversample)
    w = grid_ps.effective_weights()

    def ratio(coeffs):
        f = TrigPolynomial(Q, coeffs)
        return float(w @ np.abs(f.evaluate(grid_ps.points))) / poly_norm(f, 1.0, quad)

    drift = max(abs(ratio(cert.argmin_coeffs) - cert.r_min),
                abs(ratio(cert.argmax_coeffs) - cert.r_max))
    dt = time.perf_counter() - t0
    ok = single.r_min < 0.05 and drift <= 1e-6
    line = verdict(9, ok, f"m=1 gives r_min={single.r_min:.2e} (<0.05); grid-reported extremes "
                          f"recompute within {drift:.2e} of quadrature truth (tol 1e-6) ({dt:.1f}s)")
    assert dt < 60.0
    assert ok, line


def test_criterion_10_l1_end_to_end():
    t0 = time.perf_counter()
    details = []
    ok = True
    for nn in (2, 3):
        Q = build_hyperbolic_cross(nn, 1)
        m = 40 * len(Q) * nn * nn
        passed = sum(
            certify_l1(random_l1_pointset(1, m, seed=s), Q, targets=(0.5, 1.5), seed=s).passed
            for s in range(10)
        )
        ok &= passed >= 9
        details.append(f"n={nn} (m={m}): {passed}/10 passed")
    dt = time.perf_counter() - t0
    line = verdict(10, ok, "; ".join(details) + f" (need >= 9/10) ({dt:.1f}s)")
    assert dt < 300.0
    assert ok, line


def test_criterion_11_nikolskii():
    t0 = time.perf_counter()
    worst = {}
    total_viol = 0
    for nn in (2, 3, 4):
        Q = build_hyperbolic_cross(nn, 1)
        out = nikolskii_check(Q, sample_size=1000, seed=nn)
        for p, rec in out.items():
            total_viol += rec["violations"]
            worst[(len(Q), p)] = rec["max_ratio"]
    dt = time.perf_counter() - t0
    peak = max(worst.values())
    line = verdict(11, total_viol == 0, f"1000 polynomials x N in (7,15,31) x p in (1,2): "
                                        f"{total_viol} violations, max ratio={peak:.3f} ({dt:.1f}s)")
    assert dt < 30.0
    assert total_viol == 0, line


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    ps_a, ps_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (ps_a, ps_b):
        code = cli_main(["discretize", "--space", "cross:2:1", "--method", "random",
                         "--m", "40", "--seed", "3", "--out", str(out)])
        assert code == 0
    points_identical = ps_a.read_bytes() == ps_b.read_bytes()

    def stripped(path):
        rows = []
        for line in path.read_text().strip().split("\n"):
            rows.append(line if line.startswith("#") else ",".join(line.split(",")[:-1]))
        return rows

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = ["space=cross:2:1", "m=40", "methods=random,greedy", "seeds=0..2", "l1=true", "effort=quick"]
    for out in (csv_a, csv_b):
        assert cli_main(["experiment", "--config", *cfg, "--out", str(out)]) == 0
    csv_identical = stripped(csv_a) == stripped(csv_b)
    dt = time.perf_counter() - t0
    ok = points_identical and csv_identical
    line = verdict(12, ok, f"point sets byte-identical={points_identical}, "
                           f"certificate CSV identical modulo runtime column={csv_identical} ({dt:.1f}s)")
    assert ok, line
