"""Reference implementations that the tests check the library against.

The library reaches none of these: each one recomputes by a value table,
or samples, what the library proves or computes another way.
:func:`no_rule_table` checks that a block builds no such table.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from normdisc.spaces import FrequencySet, OrthonormalSystem, TrigBasis, TrigPolynomial, weighted_gram


def random_trig_poly(Q: FrequencySet, rng: np.random.Generator, real: bool = False) -> TrigPolynomial:
    """Standard complex Gaussian coefficients; conjugate-symmetrized if real."""
    c = rng.standard_normal(len(Q)) + 1j * rng.standard_normal(len(Q))
    if real:
        if not Q.symmetric:
            raise ValueError("real polynomials need a symmetric support")
        c = 0.5 * (c + np.conj(c[::-1]))  # -Q is Q reversed
    return TrigPolynomial(Q, c)


def christoffel(system: OrthonormalSystem, points) -> np.ndarray:
    """w(x) = sum_i u_i(x)^2 at each point, from the system's values there."""
    u = system.evaluate(points)
    return (u * u).sum(axis=1)


def rank_one_spectrum(system: OrthonormalSystem, x) -> np.ndarray:
    """Eigenvalues of G(x) = u(x) u(x)^T: christoffel value and zeros."""
    u = system.evaluate(x).reshape(-1)
    return np.linalg.eigvalsh(np.outer(u, u))


def quadrature_second_moment(system: OrthonormalSystem) -> np.ndarray:
    """E_quad[(G(x) - I)^2]; equals (N - 1) I under condition D.

    Since G(x)^2 = w(x) G(x), the moment is
    sum_nu omega_nu (w(x_nu) - 2) G(x_nu) + (sum_nu omega_nu) I, with the
    christoffel values w(x_nu) computed from the table rather than assumed.
    """
    U = system.evaluate(system.quadrature.nodes)
    om = system.quadrature.weights
    w = np.einsum("ij,ij->i", U, U)
    return weighted_gram(U, om * (w - 2.0)) + om.sum() * np.eye(system.size)


def table_forms(U: np.ndarray):
    """The barrier forms read off the candidates x N value table ``U``, through one buffer per run."""
    buffer = np.empty(U.shape)

    def forms(W, factors):
        UW = np.matmul(U, W, out=buffer)
        UW *= UW  # squared once, in place, for the four forms
        return [UW @ f for f in factors]

    return forms


@contextmanager
def no_rule_table(rule_size: int):
    """Assert that no ``TrigBasis.evaluate`` call inside the block values ``rule_size`` rows or more.

    A construction on a tensor rule of ``rule_size`` nodes that values the
    basis at all of them builds the nodes x N table.  Yields the row count
    of each call.
    """
    rows = []
    evaluate = TrigBasis.evaluate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TrigBasis, "evaluate", lambda self, points: rows.append(len(points)) or evaluate(self, points))
        yield rows
    assert max(rows, default=0) < rule_size, f"a call valued {max(rows)} rows of a {rule_size}-node rule"
