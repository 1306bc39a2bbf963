import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import no_rule_table

from normdisc.dictionaries import (
    exponential_dict,
    scaled_basis_dict,
    scaled_kernel_dict,
    shifted_kernel_dict,
    symmetrize,
)
from normdisc.greedy import (
    GreedyStepInfeasible,
    Schedule,
    _sample_coeff_ball,
    ia,
    oga,
    oga_bound,
    rga,
    rga_bound,
    sigma_m_curve,
    sup_norm_sparsify,
    two_stage_sup_approx,
)
from normdisc.spaces import build_box, build_hyperbolic_cross, real_trig_system


def certified_mix(dictionary, rng, size, complex_phases=False):
    """Exact convex combination of (phase-rotated) atoms: A1 mass one."""
    a = rng.dirichlet(np.ones(size))
    idx = rng.integers(0, dictionary.n_atoms, size=size)
    if complex_phases:
        coef = a * np.exp(1j * rng.uniform(0, 2 * math.pi, size=size))
    else:
        coef = a
    return dictionary.atoms[:, idx] @ coef


class TestOGA:
    def test_one_sparse_recovered_in_one_step(self, cross2):
        d = exponential_dict(cross2)
        target = 0.3 * d.atoms[:, 4]
        run = oga(target, d, steps=5)
        assert run.selected[0] == 4
        # the 1e-12 ridge leaves a bias of that order
        assert run.residual_norms[-1] < 1e-10

    def test_thresholding_over_orthonormal_dict(self, cross2, rng):
        # over an orthonormal dictionary OGA keeps the largest coefficients
        d = exponential_dict(cross2)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        run = oga(c, d, steps=3)
        kept = set(run.selected)
        top3 = set(np.argsort(np.abs(c))[-3:])
        assert kept == top3
        tail = np.linalg.norm(np.sort(np.abs(c))[:-3])
        assert run.residual_norms[-1] == pytest.approx(tail, rel=1e-10)

    def test_residuals_monotone(self, cross2, rng):
        d = shifted_kernel_dict(cross2)
        f = certified_mix(d, rng, 12, complex_phases=True)
        run = oga(f, d, steps=7)
        assert (np.diff(run.residual_norms) <= 1e-12).all()

    @pytest.mark.parametrize("weakness", [1.0, 0.5])
    def test_certified_bound_never_violated(self, cross2, rng, weakness):
        d = shifted_kernel_dict(cross2)
        for _ in range(25):
            f = certified_mix(d, rng, 10, complex_phases=True)
            run = oga(f, d, steps=7, weakness=weakness, a1_mass=1.0)
            assert run.bound_violations() == 0

    def test_bound_formula(self):
        assert oga_bound(2.0, 4, 0.5) == pytest.approx(2.0 / math.sqrt(2.0))

    def test_zero_target_stops(self, cross2):
        d = exponential_dict(cross2)
        run = oga(np.zeros(7, dtype=complex), d, steps=5)
        assert run.m == 0


class TestRGA:
    def test_rejects_complex_dict(self, cross2):
        d = exponential_dict(cross2)
        with pytest.raises(ValueError):
            rga(np.zeros(7), d, steps=2)

    def test_output_is_average_of_selected(self, trig7, rng):
        d = symmetrize(scaled_kernel_dict(trig7))
        f = certified_mix(d, rng, 8)
        run = rga(f, d, steps=10)
        avg = d.atoms[:, run.selected].mean(axis=1)
        assert np.allclose(run.approximant, avg, atol=1e-12)
        assert np.allclose(run.coefficients, 0.1)

    def test_certified_bound_never_violated(self, trig7, rng):
        d = symmetrize(scaled_kernel_dict(trig7))
        for _ in range(25):
            f = certified_mix(d, rng, 12)
            run = rga(f, d, steps=40, a1_certified=True)
            assert run.bound_violations() == 0

    def test_bound_formula(self):
        assert rga_bound(16) == pytest.approx(0.5)


class TestSchedule:
    def test_epsilon_formula(self):
        s = Schedule(beta=2.0, gamma=4.5, q=2.0)
        assert s.epsilon(9) == pytest.approx(2.0 * math.sqrt(4.5) / 3.0)

    def test_for_lp(self):
        s = Schedule.for_lp(4.0, beta=0.5)
        assert s.gamma == pytest.approx(1.5)
        with pytest.raises(ValueError):
            Schedule.for_lp(1.5)


class TestIA:
    def test_decay_rate_and_bound(self):
        # heavy-tailed mass across all signed atoms: the generic hard case
        rng = np.random.default_rng(42)
        system = real_trig_system(build_box([15]))
        d = scaled_basis_dict(system)
        a = 1.0 / np.arange(1, d.n_atoms + 1) ** 0.5
        a /= a.sum()
        f = d.atoms[:, rng.permutation(d.n_atoms)] @ a
        run = ia(system, f, p=4.0, steps=256)
        ms = np.array([8, 16, 32, 64, 128, 256])
        rs = run.residual_norms[ms]
        slope = np.polyfit(np.log(ms), np.log(rs), 1)[0]
        assert -1.8 <= slope <= -0.35
        # empirical margin under the sqrt((p-1)/2)/sqrt(m) decay is >10x
        assert (rs <= 3.0 * math.sqrt(1.5) / np.sqrt(ms)).all()

    def test_infeasible_target_raises(self, trig7):
        d = scaled_basis_dict(trig7)
        # mass badly undercertified: no atom can satisfy the tolerance
        f = 5.0 * d.atoms[:, 0]
        with pytest.raises(GreedyStepInfeasible):
            ia(trig7, f, p=4.0, steps=4, schedule=Schedule.for_lp(4.0, beta=0.5))

    def test_exact_atom_recovered(self, trig7):
        d = scaled_basis_dict(trig7)
        # stops after one step because the residual is already zero
        run = ia(trig7, d.atoms[:, 3].copy(), p=2.0, steps=8)
        assert run.selected == [3] and run.m == 1
        assert run.residual_norms[-1] < 1e-12

    def test_record_sup(self, trig7, rng):
        d = scaled_basis_dict(trig7)
        f = certified_mix(d, rng, 6)
        run = ia(trig7, f, p=4.0, steps=8)
        assert len(run.meta["sup_norms"]) == 9


class TestSupSparsify:
    def test_mass_conserved_in_representation(self, rng):
        system = real_trig_system(build_box([7]))
        d = scaled_basis_dict(system)
        f = 3.7 * certified_mix(d, rng, 10)
        out = sup_norm_sparsify(system, f, steps=24)
        assert out.mass_in == pytest.approx(math.sqrt(2.0) * np.abs(f).sum())
        assert out.mass_representation == pytest.approx(out.mass_in, rel=1e-12)
        assert out.mass_combined <= out.mass_in + 1e-12
        assert out.run.m <= 24

    def test_default_p_grows_with_n(self):
        small = real_trig_system(build_box([2]))
        big = real_trig_system(build_box([30]))
        from normdisc.greedy import default_sup_p

        assert default_sup_p(small) == 2.0
        assert default_sup_p(big) == 4.0

    def test_zero_target(self, trig7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 on the way
            out = sup_norm_sparsify(trig7, np.zeros(7), steps=4)
            two = two_stage_sup_approx(trig7, np.zeros(7), steps=4)
        assert out.sup_residual == 0.0 and out.mass_in == 0.0
        assert two.sup_residual == 0.0 and two.terms == 0 and not two.approx.any()
        assert np.isfinite(two.stage1.residual_norms).all()

    def test_uniform_norm_pipelines_build_no_table(self):
        # cross:6:2: 769 functions on 258,064 nodes, where the nodes x N table alone would take 1.6 GB
        tracemalloc.start()
        try:
            system = real_trig_system(build_hyperbolic_cross(6, 2))
            with no_rule_table(system.quadrature.size):
                f = _sample_coeff_ball(system, np.random.default_rng(0), 40)
                one = sup_norm_sparsify(system, f, steps=8)
                two = two_stage_sup_approx(system, f, steps=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert one.run.m == 8 and two.terms == 8
        assert 0.0 < two.sup_residual and 0.0 < one.sup_residual
        assert peak < 100e6


class TestTwoStage:
    def test_beats_single_stage(self):
        rng = np.random.default_rng(42)
        system = real_trig_system(build_box([15]))
        d = scaled_basis_dict(system)
        a = 1.0 / np.arange(1, d.n_atoms + 1) ** 0.5
        a /= a.sum()
        f = math.sqrt(2 * system.size) * (d.atoms[:, rng.permutation(d.n_atoms)] @ a)
        ms = [16, 32, 64, 128, 256]
        single = [sup_norm_sparsify(system, f, steps=m).sup_residual for m in ms]
        double = [two_stage_sup_approx(system, f, steps=m).sup_residual for m in ms]
        s1 = np.polyfit(np.log(ms), np.log(single), 1)[0]
        s2 = np.polyfit(np.log(ms), np.log(double), 1)[0]
        assert s2 <= s1 - 0.3  # measured: about -1.7 vs -0.9
        assert double[-1] < single[-1]
        assert -2.3 <= s2 <= -0.8

    def test_term_budget_respected(self, trig7, rng):
        d = scaled_basis_dict(trig7)
        f = certified_mix(d, rng, 5)
        out = two_stage_sup_approx(trig7, f, steps=10)
        assert out.terms <= 10


class TestSigmaCurves:
    def test_coeff_l1_ball(self, trig7):
        pts = sigma_m_curve(trig7, "coeff-l1", [1, 4, 16], n_samples=5, seed=3)
        assert [p.m for p in pts] == [1, 4, 16]
        for p in pts:
            assert p.max_residual <= p.hard_bound + 1e-10
            assert p.max_residual <= p.curve + 1e-10

    def test_kernel_l2_ball(self, trig7):
        pts = sigma_m_curve(trig7, "kernel-l2", [2, 8, 32], n_samples=4, seed=5)
        for p in pts:
            assert p.max_residual <= p.hard_bound + 1e-10
            assert p.hard_bound <= p.curve

    def test_sup_balls_under_curve(self, trig7):
        for ball in ("basis-sup", "basis-sup-2stage"):
            pts = sigma_m_curve(trig7, ball, [4, 16], n_samples=3, seed=7)
            for p in pts:
                assert p.hard_bound is None
                assert p.median_residual <= p.curve

    def test_unknown_ball(self, trig7):
        with pytest.raises(ValueError, match="unknown ball 'nope'"):
            sigma_m_curve(trig7, "nope", [1])

    def test_unknown_ball_with_no_work(self, trig7):
        # checked before any m is run, so an empty m list is no way round it
        with pytest.raises(ValueError, match="unknown ball 'bogus'"):
            sigma_m_curve(trig7, "bogus", [])
