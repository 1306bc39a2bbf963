import math
import tracemalloc

import numpy as np
import pytest
from oracles import no_rule_table, quadrature_second_moment, rank_one_spectrum, table_forms

from normdisc import l2disc
from normdisc.l2disc import (
    _barrier_quadratic_forms,
    _fft_forms,
    _kernel_columns,
    bss_ratio_bound,
    bss_weighted_sparsify,
    concentration_budget,
    discretization_matrix,
    frobenius_rga_pointset,
    l2_certificate,
    min_m_concentration,
    random_l2_pointset,
)
from normdisc.spaces import (
    GRAM_BLOCK_ROWS,
    PointSet,
    build_box,
    build_hyperbolic_cross,
    grid_P,
    real_trig_system,
    weighted_gram,
)


class TestCertificates:
    def test_exact_grid_is_identity(self, trig7):
        cert = l2_certificate(trig7, grid_P([3]))
        assert cert.eps < 1e-12
        assert cert.frobenius_residual < 1e-12

    def test_single_point(self, trig7):
        cert = l2_certificate(trig7, PointSet(np.array([[0.4]])))
        # matrix is G(x)/1: eigenvalues {w(x)=7, 0}
        assert cert.lam_max == pytest.approx(7.0)
        assert cert.lam_min == pytest.approx(0.0, abs=1e-12)
        assert cert.ratio == math.inf

    def test_certificate_controls_sampling(self, trig7, rng):
        ps, cert = random_l2_pointset(trig7, 40, seed=2)
        w = ps.effective_weights()
        for _ in range(50):
            c = rng.standard_normal(7)
            q = (w * (trig7.evaluate(ps.points) @ c) ** 2).sum() / (c @ c)
            assert cert.lam_min - 1e-10 <= q <= cert.lam_max + 1e-10

    def test_weighted_matrix(self, trig7):
        ps = PointSet(np.array([[0.1], [1.3]]), np.array([0.25, 0.75]))
        M = discretization_matrix(trig7, ps)
        u = trig7.evaluate(ps.points)
        want = 0.25 * np.outer(u[0], u[0]) + 0.75 * np.outer(u[1], u[1])
        assert np.allclose(M, want)


class TestSpectraOracles:
    def test_rank_one_spectrum(self, trig7, rng):
        for x in rng.uniform(0, 2 * math.pi, size=8):
            spec = rank_one_spectrum(trig7, np.array([x]))
            assert spec[-1] == pytest.approx(7.0, abs=1e-8)
            assert np.abs(spec[:-1]).max() < 1e-8

    def test_second_moment_identity(self, trig7):
        sm = quadrature_second_moment(trig7)
        assert np.abs(sm - 6.0 * np.eye(7)).max() < 1e-10

    def test_second_moment_other_size(self):
        system = real_trig_system(build_box([2]))
        sm = quadrature_second_moment(system)
        assert np.abs(sm - 4.0 * np.eye(5)).max() < 1e-10

    def test_second_moment_over_row_blocks(self):
        system = real_trig_system(build_hyperbolic_cross(4, 2))
        U, om = system.evaluate(system.quadrature.nodes), system.quadrature.weights
        assert U.shape[0] > GRAM_BLOCK_ROWS
        w = (U * U).sum(axis=1)
        one_shot = (U * (om * (w - 2.0))[:, None]).T @ U + om.sum() * np.eye(system.size)
        assert np.abs(quadrature_second_moment(system) - one_shot).max() < 1e-10


class TestConcentration:
    def test_budget_formula(self):
        want = 7 * math.exp(-100 * 0.25 / (2 / math.log(2) * 7))
        assert concentration_budget(7, 1.0, 0.5, 100) == pytest.approx(want)

    def test_min_m_is_boundary(self):
        for N, eta, target in [(7, 0.5, 1.0), (31, 0.25, 0.5), (15, 0.125, 0.9)]:
            m = min_m_concentration(N, 1.0, eta, target)
            assert concentration_budget(N, 1.0, eta, m) < target
            assert concentration_budget(N, 1.0, eta, m - 1) >= target

    def test_budget_decreasing_in_m(self):
        b = [concentration_budget(15, 1.0, 0.25, m) for m in (10, 100, 1000)]
        assert b[0] > b[1] > b[2]


class TestRandomPointsets:
    def test_deterministic_in_seed(self, trig7):
        ps1, c1 = random_l2_pointset(trig7, 30, seed=9)
        ps2, c2 = random_l2_pointset(trig7, 30, seed=9)
        assert np.array_equal(ps1.points, ps2.points)
        assert c1.eps == c2.eps

    def test_more_points_tighter(self, trig7):
        # measured: the eps ratio between m and 4m exceeds 1.1 for all
        # tested seeds at every size; spot-check a few seeds here
        for seed in (0, 1, 2):
            _, c1 = random_l2_pointset(trig7, 56, seed=seed)
            _, c4 = random_l2_pointset(trig7, 224, seed=seed + 1000)
            assert c1.eps / c4.eps > 1.1


@pytest.mark.parametrize("m", [0, -2])
@pytest.mark.parametrize("build", [random_l2_pointset, frobenius_rga_pointset], ids=["random", "greedy"])
def test_point_count_below_one_rejected(trig7, build, m):
    with pytest.raises(ValueError, match="m must be a positive integer"):
        build(trig7, m)


class TestFrobeniusGreedy:
    def test_first_step_residual_exact(self, trig7):
        run = frobenius_rga_pointset(trig7, 1)
        assert run.residuals[0] == pytest.approx(math.sqrt(7**2 - 7), rel=1e-12)

    def test_bound_never_violated(self, trig7):
        run = frobenius_rga_pointset(trig7, 128)
        assert run.bound_violations() == 0
        for n, dim in ((3, 2), (2, 3)):  # at m = 4N
            system = real_trig_system(build_hyperbolic_cross(n, dim))
            assert frobenius_rga_pointset(system, 4 * system.size).bound_violations() == 0

    def test_incremental_matches_direct(self, trig7):
        for system, steps in ((trig7, (3, 7, 12)), (real_trig_system(build_hyperbolic_cross(3, 2)), (5, 49, 150))):
            run = frobenius_rga_pointset(system, steps[-1])
            for m in steps:
                sel = run.selected[:m]
                U = system.evaluate(system.quadrature.nodes[sel])
                direct = np.linalg.norm(np.eye(system.size) - U.T @ U / m)
                # the incremental formula cancels catastrophically only when the
                # true residual is ~0, leaving a sqrt(machine eps) floor
                assert run.residuals[m - 1] == pytest.approx(direct, rel=1e-9, abs=5e-8)

    def test_spectral_below_frobenius(self, trig7):
        run = frobenius_rga_pointset(trig7, 64)
        assert run.certificate.eps <= run.residuals[-1] + 1e-10

    @pytest.mark.parametrize(
        "Q, oversample",
        [
            (build_hyperbolic_cross(2, 1), 4),
            (build_hyperbolic_cross(3, 2), 4),
            (build_hyperbolic_cross(2, 3), 4),
            (build_box([2, 3, 1]), 4),
            (build_box([2, 3, 1]), 1),
            (build_hyperbolic_cross(3, 2), 1),
        ],
        ids=["cross:2:1", "cross:3:2", "cross:2:3", "box:2x3x1", "box:2x3x1-oversample1", "cross:3:2-oversample1"],
    )
    def test_shifted_dirichlet_column_is_the_kernel(self, Q, oversample):
        system = real_trig_system(Q, oversample=oversample)
        nodes, w, column = _kernel_columns(system)
        assert nodes is system.quadrature.nodes
        assert np.array_equal(w, np.full(system.quadrature.size, float(system.size)))
        U = system.evaluate(system.quadrature.nodes)
        for p in (0, 1, 5, U.shape[0] // 3, U.shape[0] - 1):
            assert np.abs(column(p) - U @ U[p]).max() < 1e-12

    def test_kernel_path_recorded(self, trig7):
        assert frobenius_rga_pointset(trig7, 3).meta["n_candidates"] == 28

    def test_first_pick_is_node_zero(self):
        for Q in (build_hyperbolic_cross(2, 1), build_hyperbolic_cross(4, 2), build_hyperbolic_cross(2, 3)):
            assert frobenius_rga_pointset(real_trig_system(Q), 1).selected == [0]


def with_table_forms(monkeypatch):
    """Make BSS read its forms off the nodes' value table, the reference of the fft forms."""
    monkeypatch.setattr(l2disc, "_fft_forms", lambda s: table_forms(s.evaluate(s.quadrature.nodes)))


class TestBarrierSparsify:
    def test_ratio_bound_value(self):
        assert bss_ratio_bound(4.0) == pytest.approx(9.0)

    def test_quadratic_forms_match_solve(self, rng):
        n = 6
        U = rng.standard_normal((30, n))
        V = U / math.sqrt(30)
        A = V[:10].T @ (rng.uniform(0.5, 2.0, 10)[:, None] * V[:10])
        lam, W = np.linalg.eigh(A)
        upper, lower = lam[-1] + 0.7, lam[0] - 0.4
        q1u, q2u, q1l, q2l, phi_u, phi_l = _barrier_quadratic_forms(lam, W, 1.0 / 30, upper, lower, table_forms(U))
        Ru = np.linalg.solve(upper * np.eye(n) - A, V.T)  # (uI - A)^{-1} v per column
        Rl = np.linalg.solve(A - lower * np.eye(n), V.T)
        assert np.abs(q1u - np.einsum("ij,ji->i", V, Ru)).max() < 1e-10
        assert np.abs(q2u - (Ru * Ru).sum(axis=0)).max() < 1e-10
        assert np.abs(q1l - np.einsum("ij,ji->i", V, Rl)).max() < 1e-10
        assert np.abs(q2l - (Rl * Rl).sum(axis=0)).max() < 1e-10
        assert phi_u == pytest.approx(np.trace(np.linalg.inv(upper * np.eye(n) - A)), abs=1e-10)
        assert phi_l == pytest.approx(np.trace(np.linalg.inv(A - lower * np.eye(n))), abs=1e-10)

    @pytest.mark.parametrize(
        "Q, oversample",
        [
            (build_hyperbolic_cross(3, 2), 4),
            (build_hyperbolic_cross(2, 3), 4),
            (build_box([3]), 8),
            (build_hyperbolic_cross(3, 2), 1),  # D = Q - Q aliases mod sizes
        ],
        ids=["cross:3:2", "cross:2:3", "box:3", "cross:3:2-oversample1"],
    )
    def test_fft_forms_match_table_and_solve(self, Q, oversample, rng):
        system = real_trig_system(Q, oversample=oversample)
        U = system.evaluate(system.quadrature.nodes)
        n, scale = system.size, 1.0 / len(U)
        V = U * math.sqrt(scale)
        picks = rng.choice(len(U), 3 * n, replace=False)
        A = V[picks].T @ (rng.uniform(0.5, 2.0, len(picks))[:, None] * V[picks])
        lam, W = np.linalg.eigh(A)
        upper, lower = lam[-1] + 0.7, lam[0] - 0.4
        fft = _barrier_quadratic_forms(lam, W, scale, upper, lower, _fft_forms(system))
        table = _barrier_quadratic_forms(lam, W, scale, upper, lower, table_forms(U))
        for a, b in zip(fft, table):
            assert np.abs(np.asarray(a) - b).max() < 1e-10
        Ru = np.linalg.solve(upper * np.eye(n) - A, V.T)
        Rl = np.linalg.solve(A - lower * np.eye(n), V.T)
        q1u, q2u, q1l, q2l = fft[:4]
        assert np.abs(q1u - np.einsum("ij,ji->i", V, Ru)).max() < 1e-10
        assert np.abs(q2u - (Ru * Ru).sum(axis=0)).max() < 1e-10
        assert np.abs(q1l - np.einsum("ij,ji->i", V, Rl)).max() < 1e-10
        assert np.abs(q2l - (Rl * Rl).sum(axis=0)).max() < 1e-10

    @pytest.mark.parametrize(
        "Q, oversample",
        [(build_hyperbolic_cross(3, 2), 4), (build_hyperbolic_cross(2, 3), 4), (build_box([3, 3]), 4), (build_box([7]), 8)],
        ids=["cross:3:2", "cross:2:3", "box:3x3", "box:7"],
    )
    def test_fft_path_picks_the_table_path_points(self, Q, oversample, monkeypatch):
        system = real_trig_system(Q, oversample=oversample)
        fft = bss_weighted_sparsify(system, 4.0)
        with_table_forms(monkeypatch)
        table = bss_weighted_sparsify(system, 4.0)
        assert np.array_equal(fft.pointset.points, table.pointset.points)
        assert np.allclose(fft.pointset.weights, table.pointset.weights, rtol=1e-9, atol=0)

    def test_guarantees_hold(self):
        system = real_trig_system(build_box([3]), oversample=8)  # 56 candidates
        res = bss_weighted_sparsify(system, 4.0)
        assert res.support <= math.ceil(4 * 7)
        assert res.ratio <= 9.0 + 1e-9
        assert res.steps == 28

    def test_lower_constant_is_one(self, rng):
        system = real_trig_system(build_box([3]), oversample=8)
        res = bss_weighted_sparsify(system, 4.0)
        M = discretization_matrix(system, PointSet(res.pointset.points, res.pointset.weights * res.pointset.m))
        # PointSet weights are absolute here: undo the effective convention
        vals = np.linalg.eigvalsh(
            sum(w * np.outer(u, u) for w, u in zip(res.pointset.weights, system.evaluate(res.pointset.points)))
        )
        assert vals[0] == pytest.approx(1.0, rel=1e-9)
        assert vals[-1] <= 9.0 + 1e-9

    def test_empirical_window(self, rng):
        system = real_trig_system(build_box([3]), oversample=8)
        res = bss_weighted_sparsify(system, 4.0)
        for _ in range(100):
            c = rng.standard_normal(7)
            vals = system.evaluate(res.pointset.points) @ c
            q = (res.pointset.weights * vals**2).sum() / (c @ c)
            assert 1.0 - 1e-9 <= q <= res.ratio + 1e-9

    def test_fast_path(self):
        system = real_trig_system(build_box([3]), oversample=4)  # 28 == ceil(4*7)
        res = bss_weighted_sparsify(system, 4.0)
        assert res.steps == 0
        assert res.ratio == 1.0
        assert res.support == 28

    def test_larger_system(self):
        system = real_trig_system(build_box([7]), oversample=8)  # N=15, 120 candidates
        res = bss_weighted_sparsify(system, 4.0)
        assert res.support <= math.ceil(4 * 15)
        assert res.ratio <= 9.0 + 1e-9

    def test_d_must_exceed_one(self, trig7):
        with pytest.raises(ValueError):
            bss_weighted_sparsify(trig7, 1.0)

    @pytest.mark.parametrize("d", [math.inf, math.nan, float("1e400")], ids=["inf", "nan", "1e400"])
    def test_d_must_be_finite(self, trig7, d):
        with pytest.raises(ValueError, match="1 < d < inf"):
            bss_weighted_sparsify(trig7, d)

    def test_point_set_does_not_follow_table_rounding(self, monkeypatch):
        # forms read off the nodes' table from evaluate differ from the fft forms by ~1e-14
        system = real_trig_system(build_hyperbolic_cross(3, 2), oversample=1)  # D = Q - Q aliases mod sizes
        a = bss_weighted_sparsify(system, 4.0).pointset
        with_table_forms(monkeypatch)
        b = bss_weighted_sparsify(system, 4.0).pointset
        assert np.array_equal(a.points, b.points)
        assert np.allclose(a.weights, b.weights, rtol=1e-9, atol=0)

    def test_default_candidates_are_not_rechecked(self, monkeypatch):
        system = real_trig_system(build_box([3]), oversample=8)
        calls = []
        monkeypatch.setattr(l2disc, "weighted_gram", lambda *a: calls.append(a) or weighted_gram(*a))
        bss_weighted_sparsify(system, 4.0)
        assert calls == []  # the system's own nodes: its construction proved them exact

    def test_default_candidates_build_no_table(self):
        for Q in (build_box([3]), build_hyperbolic_cross(3, 2)):
            system = real_trig_system(Q, oversample=8)
            with no_rule_table(system.quadrature.size):  # the forms are polynomials on Q - Q, valued by one FFT each
                assert bss_weighted_sparsify(system, 4.0).steps > 0
        # cross:6:2: 769 functions on 258,064 nodes, where the nodes x N table alone would take 1.6 GB
        tracemalloc.start()
        try:
            system = real_trig_system(build_hyperbolic_cross(6, 2))
            with no_rule_table(system.quadrature.size):  # the kernel columns are shifts of one FFT of D_Q
                run = frobenius_rga_pointset(system, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.bound_violations() == 0
        assert peak < 50e6  # 31 MB measured

    def test_other_d_values(self):
        system = real_trig_system(build_box([3]), oversample=12)
        for d in (2.0, 9.0):
            res = bss_weighted_sparsify(system, d)
            assert res.ratio <= bss_ratio_bound(d) + 1e-9
            assert res.support <= math.ceil(d * 7)
