import math

import numpy as np
import pytest
from oracles import random_trig_poly

from normdisc.dictionaries import (
    DeltaNet,
    argmax_inner_product,
    choose_delta0,
    exponential_dict,
    kernel_shift_dict,
    scaled_basis_dict,
    scaled_kernel_dict,
    shifted_kernel_dict,
    symmetrize,
)
from normdisc.spaces import grid_P


def test_exponential_dict_is_identity(cross2):
    d = exponential_dict(cross2)
    assert d.n_atoms == 7
    assert np.allclose(d.atoms, np.eye(7))


class TestShiftedKernelDict:
    def test_reproduction_property(self, cross2, rng):
        # <f, w_Q(.-y)> == |Q|^{-1/2} f(y)
        pts = grid_P([3]).points
        d = shifted_kernel_dict(cross2, pts)
        f = random_trig_poly(cross2, rng)
        ips = d.inner_products(f.coeffs)
        expected = f.evaluate(pts) / math.sqrt(7)
        assert np.allclose(ips, expected, atol=1e-12)

    def test_unit_norms(self, cross2):
        d = shifted_kernel_dict(cross2)
        assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0)

    def test_default_grid(self, cross2):
        d = shifted_kernel_dict(cross2)
        assert d.n_atoms == grid_P([3]).m == 7


class TestSystemDicts:
    def test_kernel_shift_unit_norm_and_reproduction(self, trig7, rng):
        pts = rng.uniform(0, 2 * math.pi, size=(5, 1))
        d = kernel_shift_dict(trig7, pts)
        assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0)
        c = rng.standard_normal(7)
        ips = d.inner_products(c)
        assert np.allclose(ips, trig7.evaluate(pts) @ c / math.sqrt(7))

    def test_scaled_kernel_reproduction(self, trig7, rng):
        pts = rng.uniform(0, 2 * math.pi, size=(4, 1))
        d = scaled_kernel_dict(trig7, pts)
        c = rng.standard_normal(7)
        ips = d.inner_products(c)
        assert np.allclose(ips, trig7.evaluate(pts) @ c / math.sqrt(2 * 7))

    def test_scaled_kernel_default_net(self, trig7):
        d = scaled_kernel_dict(trig7)
        assert d.n_atoms >= 7
        assert np.linalg.norm(d.atoms, axis=0).max() <= 1 / math.sqrt(2) + 1e-12

    def test_scaled_basis_signed(self, trig7):
        d = scaled_basis_dict(trig7)
        assert d.n_atoms == 14
        assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1 / math.sqrt(2))
        # interleave: column 1 is the negation of column 0
        assert np.allclose(d.atoms[:, 1], -d.atoms[:, 0])


class TestCombinators:
    def test_symmetrize(self, trig7):
        base = kernel_shift_dict(trig7, np.array([[0.0], [1.0]]))
        d = symmetrize(base)
        assert d.n_atoms == 4
        assert np.allclose(d.atoms[:, 2:], -d.atoms[:, :2])


class TestNets:
    def test_delta_net_spacing(self):
        net = DeltaNet.build(1, 1.0)
        assert net.size == 7
        assert net.delta <= 1.0
        gaps = np.diff(np.sort(net.points[:, 0]))
        assert gaps.max() <= net.delta + 1e-12

    def test_delta_net_2d(self):
        net = DeltaNet.build(2, 2.0)
        assert net.size == 16

    def test_delta0_formula(self, trig7):
        k1 = math.sqrt(2) * 3 / 7
        want = (1 / k1) * 7 ** (-1.5)
        assert choose_delta0(trig7) == pytest.approx(want)


class TestSelection:
    def test_argmax_abs(self, cross2):
        d = exponential_dict(cross2)
        v = np.zeros(7, dtype=complex)
        v[3] = 2.0
        v[5] = -1.0
        sel = argmax_inner_product(d, v)
        assert sel.index == 3 and sel.score == pytest.approx(2.0)

    def test_tie_lowest_index(self, cross2):
        d = exponential_dict(cross2)
        v = np.ones(7, dtype=complex)
        assert argmax_inner_product(d, v).index == 0

    def test_weak_selection_takes_first_qualifying(self, cross2):
        d = exponential_dict(cross2)
        v = np.array([0.6, 0.1, 1.0, 0.9, 0, 0, 0], dtype=complex)
        sel = argmax_inner_product(d, v, weakness=0.5)
        assert sel.index == 0  # 0.6 >= 0.5 * 1.0
        sel = argmax_inner_product(d, v, weakness=0.8)
        assert sel.index == 2

    def test_real_mode(self, trig7):
        d = symmetrize(kernel_shift_dict(trig7, np.array([[0.5], [2.0]])))
        r = np.random.default_rng(7).standard_normal(7)
        sel = argmax_inner_product(d, r, mode="real")
        ips = d.inner_products(r).real
        assert sel.score == pytest.approx(ips.max())


def test_atom_norm_guard():
    from normdisc.dictionaries import Dictionary

    with pytest.raises(ValueError):
        Dictionary(kind="bad", field="real", atoms=np.array([[2.0]]))
