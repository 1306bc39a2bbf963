"""L2 norm discretization: certificates, random sets, greedy and barrier methods.

For a point set (xi_1..xi_m, weights lam) and a system u_1..u_N, the matrix

    M = sum_nu lam_nu u(xi_nu) u(xi_nu)^T

controls the discretization quality of every f = <c, u> in the span:

    lam_min(M) ||f||_2^2 <= sum_nu lam_nu f(xi_nu)^2 <= lam_max(M) ||f||_2^2.

:class:`SpectralCertificate` records those extremal eigenvalues, which makes
every claim this module produces checkable by direct eigenvalue computation.
Constructions:

* :func:`random_l2_pointset`   iid uniform points with their certificate;
  :func:`concentration_budget` gives the matching failure-probability
  budget and :func:`min_m_concentration` inverts it,
* :func:`frobenius_rga_pointset` greedy point selection with the guaranteed
  Frobenius bound ``||(1/m) sum G(xi_k) - I||_F <= 2 N t^2 / sqrt(m)``,
* :func:`bss_weighted_sparsify` barrier-potential weighted sparsification
  with support ceil(d N) and condition-number ratio at most
  ``(d + 1 + 2 sqrt(d)) / (d + 1 - 2 sqrt(d))``.

Both constructions pick among the nodes of the system's tensor rule.  The
greedy's kernel columns are shifts of the Dirichlet kernel and BSS's
barrier forms are polynomials on Q - Q, both valued by
``TrigPolynomial.values_on``, so neither builds the nodes x N value table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import MAX_RULE_NODES, OrthonormalSystem, PointSet, TrigPolynomial, dirichlet_poly, weighted_gram

LOG2 = math.log(2.0)
SUBGAUSS_C = 2.0 / LOG2  # constant in the exponent of the deviation bound
BOUND_SLACK = 1e-10  # rounding allowance of FrobeniusRun.bound_violations
BSS_TIE_TOL = 1e-9  # relative gap within which BSS candidates count as tied


@dataclass
class SpectralCertificate:
    """Extremal eigenvalues of the discretization matrix of a point set."""

    lam_min: float
    lam_max: float
    n_points: int
    frobenius_residual: float
    meta: dict = field(default_factory=dict)

    @property
    def eps(self) -> float:
        """Smallest eps with 1-eps <= M <= 1+eps (in the spectral order)."""
        return max(1.0 - self.lam_min, self.lam_max - 1.0)

    @property
    def ratio(self) -> float:
        return self.lam_max / self.lam_min if self.lam_min > 0 else math.inf


def discretization_matrix(system: OrthonormalSystem, pointset: PointSet) -> np.ndarray:
    return weighted_gram(system.evaluate(pointset.points), pointset.effective_weights())


def l2_certificate(system: OrthonormalSystem, pointset: PointSet) -> SpectralCertificate:
    M = discretization_matrix(system, pointset)
    vals = np.linalg.eigvalsh(M)
    frob = float(np.linalg.norm(M - np.eye(system.size)))
    return SpectralCertificate(
        lam_min=float(vals[0]),
        lam_max=float(vals[-1]),
        n_points=pointset.m,
        frobenius_residual=frob,
    )


# ---------------------------------------------------------------------------
# random points with concentration budgets


def concentration_budget(N: int, t: float, eta: float, m: int) -> float:
    """Failure-probability budget N * exp(-m eta^2 / (c N t^2)), c = ``SUBGAUSS_C``.

    Valid for systems with christoffel function bounded by N t^2; when the
    budget is below one, m iid uniform points give spectral deviation at
    most eta with positive probability.
    """
    if not (0 < eta):
        raise ValueError("eta must be positive")
    return N * math.exp(-m * eta**2 / (SUBGAUSS_C * N * t**2))


def min_m_concentration(N: int, t: float, eta: float, target: float = 1.0) -> int:
    """Smallest m whose budget is strictly below ``target``."""
    if not (0 < target):
        raise ValueError("target must be positive")
    m = math.floor(SUBGAUSS_C * N * t**2 * math.log(N / target) / eta**2) + 1
    m = max(m, 1)
    while concentration_budget(N, t, eta, m) >= target:  # guard rounding
        m += 1
    return m


def check_m(m: int) -> None:
    """Reject a point count below one, or above ``MAX_RULE_NODES``: no point set outgrows the largest rule."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m > MAX_RULE_NODES:
        raise ValueError(f"m = {m:,} exceeds MAX_RULE_NODES = {MAX_RULE_NODES:,}")


def random_l2_pointset(system: OrthonormalSystem, m: int, seed: int = 0) -> tuple[PointSet, SpectralCertificate]:
    """m iid uniform points on the torus and their certificate."""
    check_m(m)
    rng = np.random.default_rng(seed)
    ps = PointSet(rng.uniform(0.0, 2.0 * math.pi, size=(m, system.dim)))
    return ps, l2_certificate(system, ps)


# ---------------------------------------------------------------------------
# greedy point selection over the rank-one atoms G(x) = u(x) u(x)^T


@dataclass
class FrobeniusRun:
    pointset: PointSet
    selected: list[int]
    residuals: np.ndarray  # ||I - (1/j) sum G(xi_k)||_F after each step
    bounds: np.ndarray  # 2 N t^2 / sqrt(j)
    certificate: SpectralCertificate
    meta: dict = field(default_factory=dict)

    def bound_violations(self) -> int:
        return int((self.residuals > self.bounds + BOUND_SLACK).sum())


def _kernel_columns(system: OrthonormalSystem):
    """The candidates, the christoffel values w on them, and pick -> D_N(x_pick, .) over them.

    The candidates are the nodes of the system's tensor rule.  There the
    kernel is translation invariant, D_N(xi, x) = D_Q(x - xi), so every
    column is a cyclic shift of D_Q on the grid (one FFT), and w = N exactly.
    """
    sizes = system.quadrature.tensor_sizes(system.dim)
    D = dirichlet_poly(system.freqs).values_on(system.quadrature).real.reshape(sizes)
    axes = tuple(range(D.ndim))

    def shifted(pick: int) -> np.ndarray:
        return np.roll(D, np.unravel_index(pick, sizes), axis=axes).reshape(-1)

    return system.quadrature.nodes, np.full(D.size, float(system.size)), shifted


def frobenius_rga_pointset(system: OrthonormalSystem, m: int) -> FrobeniusRun:
    """Relaxed greedy on rank-one atoms G(x) = u(x) u(x)^T targeting I.

    The candidates are the system quadrature nodes, over which
    I = sum_nu omega_nu G(x_nu) exactly; the target is therefore a convex
    combination of atoms and the relaxed greedy guarantee applies verbatim:

        ||I - (1/j) sum_{k<=j} G(xi_k)||_F <= 2 N t^2 / sqrt(j).

    Selection maximizes w(x) - S(x)/(j-1) with S(x) = sum_k D_N(xi_k, x)^2,
    which is the Frobenius inner product of the residual with G(x) up to
    positive scaling; S is updated incrementally from kernel columns, and
    ties go to the lowest candidate index.  The columns are cyclic shifts of
    the Dirichlet kernel D_Q on the tensor grid and w = N exactly, so the
    first pick is node 0.
    """
    check_m(m)
    candidates, w, column = _kernel_columns(system)
    n = system.size
    t = system.constants.t

    S = np.zeros(len(w))  # S[x] = sum over selected k of D_N(xi_k, x)^2
    selected: list[int] = []
    residuals = []
    tr_B = 0.0
    frob2_B = 0.0  # ||sum_k G(xi_k)||_F^2
    for j in range(1, m + 1):
        score = w if j == 1 else w - S / (j - 1)
        pick = int(np.argmax(score))
        frob2_B += 2.0 * S[pick] + w[pick] ** 2
        tr_B += w[pick]
        S += column(pick) ** 2
        selected.append(pick)
        # ||I - B/j||_F^2 = N - 2 tr(B)/j + ||B||_F^2 / j^2
        res2 = n - 2.0 * tr_B / j + frob2_B / j**2
        residuals.append(math.sqrt(max(res2, 0.0)))
    bounds = 2.0 * n * t**2 / np.sqrt(np.arange(1, m + 1))
    ps = PointSet(candidates[selected])
    cert = l2_certificate(system, ps)
    return FrobeniusRun(
        pointset=ps,
        selected=selected,
        residuals=np.array(residuals),
        bounds=bounds,
        certificate=cert,
        meta={"n_candidates": len(w)},
    )


# ---------------------------------------------------------------------------
# barrier-potential weighted sparsification


@dataclass
class BssResult:
    pointset: PointSet  # weights normalized so the lower constant is one
    support: int
    lam_min: float
    lam_max: float
    ratio: float
    ratio_bound: float
    steps: int  # 0 when the candidate set was small enough to return whole
    meta: dict = field(default_factory=dict)


def check_bss_d(d_param: float) -> None:
    """Reject an oversampling parameter outside 1 < d < inf (nan included)."""
    if not (1.0 < d_param < math.inf):
        raise ValueError(f"the oversampling parameter d must satisfy 1 < d < inf, got {d_param}")


def bss_ratio_bound(d: float) -> float:
    rd = math.sqrt(d)
    return (d + 1 + 2 * rd) / (d + 1 - 2 * rd)


def _barrier_quadratic_forms(lam: np.ndarray, W: np.ndarray, scale: float, upper: float, lower: float, forms):
    """Quadratic forms v^T (uI-A)^{-p} v and v^T (A-lI)^{-p} v, p = 1, 2, from A = W diag(lam) W^T.

    The vectors are v = sqrt(scale) u(x) over the candidates x.  ``forms(W,
    factors)`` returns sum_i f_i (u(x)^T w_i)^2 over the candidates for each
    length-N factor f (see :func:`_fft_forms`); the scale goes into the
    four factors, so no scaled copy of the candidates' values is made.
    """
    du = upper - lam
    dl = lam - lower
    q1u, q2u, q1l, q2l = forms(W, (scale / du, scale / du**2, scale / dl, scale / dl**2))
    phi_u = float((1.0 / du).sum())
    phi_l = float((1.0 / dl).sum())
    return q1u, q2u, q1l, q2l, phi_u, phi_l


def _fft_forms(system: OrthonormalSystem):
    """The barrier forms as trigonometric polynomials on D = Q - Q, valued on the system's tensor rule.

    For u = T e with e(x) = (exp(i <k, x>))_{k in Q}, the form
    sum_i f_i (u(x)^T w_i)^2 is sum_{k,l} P_kl exp(i <l - k, x>) with
    P = conj(C) diag(f) C^T, where column i of C = ``exp_coeffs(W)`` holds
    the coefficients of u^T w_i over Q.  P is folded onto D and valued by
    ``TrigPolynomial.values_on``; the real and imaginary parts of one
    complex factor f + i g carry the forms of f and of g.
    """
    D, pair = system.freqs.differences()

    def forms(W, factors):
        C = system.basis.exp_coeffs(W)
        out = []
        for f, g in (factors[:2], factors[2:]):
            P = ((C.conj() * (f + 1j * g)) @ C.T).reshape(-1)
            coeffs = np.bincount(pair, P.real, len(D)) + 1j * np.bincount(pair, P.imag, len(D))
            values = TrigPolynomial(D, coeffs).values_on(system.quadrature)
            out += [values.real, values.imag]
        return out

    return forms


def bss_weighted_sparsify(system: OrthonormalSystem, d_param: float) -> BssResult:
    """Deterministic weighted point selection with spectral-ratio guarantee.

    Works on candidate vectors v_j = u(x_j)/sqrt(M) over the M nodes of the
    system's equal-weight tensor rule, which resolve the identity
    (sum_j v_j v_j^T = I) by construction of the system.  Runs
    ceil(d N) barrier steps keeping all eigenvalues of the running matrix
    between moving barriers l and u; each step adds one reweighted rank-one
    candidate chosen so both barrier potentials stay controlled, and
    candidates whose gaps agree to ``BSS_TIE_TOL`` go to the lowest index.
    Output weights are normalized so the lower discretization constant is
    exactly one, the upper at most
    ``(d + 1 + 2 sqrt(d)) / (d + 1 - 2 sqrt(d))`` (9 at d = 4), and the
    support at most ceil(d N).

    Each step needs the forms v^T (uI-A)^{-p} v and v^T (A-lI)^{-p} v,
    p = 1, 2, at every candidate.  They are trigonometric polynomials on
    Q - Q, two inverse FFTs per step, and the rank-one update evaluates the
    basis at the one node it picks, so no value table is built.

    When the candidate set is already no larger than ceil(d N), the full
    set (which realizes the identity exactly) is returned unchanged, with
    ``steps == 0``.
    """
    check_bss_d(d_param)
    # the system's equal-weight nodes, which construction proved exact
    candidates = system.quadrature.nodes
    M_cand = candidates.shape[0]
    n = system.size

    steps = math.ceil(d_param * n)
    bound = bss_ratio_bound(d_param)
    if M_cand <= steps:
        # the full candidate set is small enough already: ratio one
        ps = PointSet(candidates, np.full(M_cand, 1.0 / M_cand))
        return BssResult(
            pointset=ps,
            support=M_cand,
            lam_min=1.0,
            lam_max=1.0,
            ratio=1.0,
            ratio_bound=bound,
            steps=0,
        )

    rd = math.sqrt(d_param)
    delta_l = 1.0
    delta_u = (rd + 1.0) / (rd - 1.0)
    eps_l = 1.0 / rd
    eps_u = (rd - 1.0) / (d_param + rd)
    lower = -n * rd
    upper = n * (d_param + rd) / (rd - 1.0)

    forms = _fft_forms(system)
    A = np.zeros((n, n))
    lamA, W = np.linalg.eigh(A)  # carried over: each step decomposes A once
    acc_weights: dict[int, float] = {}
    # initial potentials: exactly eps_u and eps_l by the choice of l0, u0
    phi_u_prev = eps_u
    phi_l_prev = eps_l
    for step in range(steps):
        upper_next = upper + delta_u
        lower_next = lower + delta_l
        if not (lamA[0] > lower_next and lamA[-1] < upper_next):
            raise RuntimeError("barrier invariant violated: eigenvalue escaped the window")
        q1u, q2u, q1l, q2l, phi_u, phi_l = _barrier_quadratic_forms(lamA, W, 1.0 / M_cand, upper_next, lower_next, forms)
        phi_u_cur = float((1.0 / (upper - lamA)).sum())
        phi_l_cur = float((1.0 / (lamA - lower)).sum())
        denom_u = phi_u_cur - phi_u  # potential drop from shifting the upper barrier
        denom_l = phi_l - phi_l_cur  # potential rise from shifting the lower barrier
        if denom_u <= 0 or denom_l <= 0:
            raise RuntimeError("degenerate barrier shift")
        Uv = q2u / denom_u + q1u
        Lv = q2l / denom_l - q1l
        gap = Lv - Uv
        best = float(gap.max())
        if best < -1e-7:
            raise RuntimeError(f"step {step}: no feasible candidate (best gap {best:.3e})")
        # ties within rounding go to the lowest index, so rounding in the forms does not pick the point
        j = int(np.argmax(gap >= best - BSS_TIE_TOL * max(1.0, abs(best))))
        w_j = 2.0 / (Uv[j] + Lv[j])
        u_j = system.evaluate(candidates[j]).reshape(-1)
        A = A + (w_j / M_cand) * np.outer(u_j, u_j)
        acc_weights[j] = acc_weights.get(j, 0.0) + w_j
        upper, lower = upper_next, lower_next
        lamA, W = np.linalg.eigh(A)
        phi_u_new = float((1.0 / (upper - lamA)).sum())
        phi_l_new = float((1.0 / (lamA - lower)).sum())
        if phi_u_new > phi_u_prev + 1e-7 or phi_l_new > phi_l_prev + 1e-7:
            raise RuntimeError("barrier potentials increased")
        phi_u_prev, phi_l_prev = phi_u_new, phi_l_new

    lam_min, lam_max = float(lamA[0]), float(lamA[-1])
    if not (lower < lam_min and lam_max < upper):
        raise RuntimeError("final eigenvalues escaped the barrier window")
    if lam_max / lam_min > bound + 1e-7:
        raise RuntimeError("final ratio exceeds the guarantee")
    idx = sorted(acc_weights)
    # discretization weights: sum_j lam_j f(x_j)^2 >= ||f||^2 with constant one
    lam_w = np.array([acc_weights[j] for j in idx]) / (M_cand * lam_min)
    ps = PointSet(candidates[idx], lam_w)
    return BssResult(
        pointset=ps,
        support=len(idx),
        lam_min=lam_min,
        lam_max=lam_max,
        ratio=lam_max / lam_min,
        ratio_bound=bound,
        steps=steps,
        meta={"barriers": (lower, upper)},
    )
