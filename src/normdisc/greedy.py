"""Greedy solvers with hard per-step guarantees.

Three engines, all selecting from finite dictionaries of atoms:

* :func:`oga` orthogonal greedy with optional weak selection.  For a target
  whose membership in ``mass * A1(D)`` is certified, the residual after m
  steps with weakness t obeys ``mass * (1 + m t^2)^(-1/2)``.
* :func:`rga` relaxed greedy, G_m = (1 - 1/m) G_{m-1} + phi_m / m.  For a
  target in A1(D) the L2 residual obeys ``2 / sqrt(m)``; by telescoping the
  output is the plain average of the selected atoms, so its A1 mass is
  conserved in the representation sense.
* :func:`ia` incremental greedy in L_p over the signed scaled basis, driven
  by norming functionals and a tolerance schedule, with no value table; used
  to sparsify in the uniform norm via moderate p.

The bounds recorded in a :class:`GreedyRun` are *guarantees*, not estimates:
tests assert ``residual <= bound + BOUND_SLACK`` with zero violations.  The
composite routines :func:`sup_norm_sparsify`, :func:`two_stage_sup_approx`
and :func:`sigma_m_curve` chain the engines into the m-term approximation
pipelines used by the experiment scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dictionaries import (
    SCALED_BASIS,
    Dictionary,
    argmax_inner_product,
    exponential_dict,
    scaled_basis_dict,
    scaled_kernel_dict,
    symmetrize,
)
from .spaces import OrthonormalSystem, TrigPolynomial, norm_values_lp

STOP_TOL = 1e-14
BOUND_SLACK = 1e-10  # rounding allowance of GreedyRun.bound_violations
OGA_RIDGE = 1e-12  # diagonal added to the Gram of oga's normal equations
SIGMA_MIX = 40  # atoms in each convex combination sampled by sigma_m_curve
SIGMA_BALLS = ("coeff-l1", "kernel-l2", "basis-sup", "basis-sup-2stage")  # the balls of sigma_m_curve


class GreedyStepInfeasible(RuntimeError):
    """No atom satisfies the incremental tolerance condition.

    For a correctly certified target (a true convex combination of atoms)
    the condition is always satisfiable, so this signals a bad certificate.
    """


@dataclass
class GreedyRun:
    """Trace of one greedy solve, in ambient coefficient coordinates."""

    algorithm: str
    dictionary_kind: str
    m: int
    residual_norms: np.ndarray  # length m+1, residual_norms[0] = ||target||
    selected: list[int]
    coefficients: np.ndarray  # weight of each selected atom in the approximant
    approximant: np.ndarray
    bounds: np.ndarray | None = None  # length m, guaranteed residual bound per step
    meta: dict = field(default_factory=dict)

    def bound_violations(self) -> int:
        if self.bounds is None:
            return 0
        return int((self.residual_norms[1 : self.m + 1] > self.bounds[: self.m] + BOUND_SLACK).sum())


def oga_bound(mass: float, m: int, weakness: float = 1.0) -> float:
    return mass / math.sqrt(1.0 + m * weakness**2)


def rga_bound(m: int) -> float:
    return 2.0 / math.sqrt(m)


def oga(target: np.ndarray, dictionary: Dictionary, steps: int, weakness: float = 1.0, a1_mass: float | None = None) -> GreedyRun:
    """Weak orthogonal greedy over a finite dictionary.

    Each step selects by |<residual, atom>| (lowest qualifying index when
    ``weakness < 1``) and re-projects the target onto the span of all
    selected atoms via ridge-stabilized normal equations.
    """
    target = np.asarray(target)
    norms = [float(np.linalg.norm(target))]
    selected: list[int] = []
    residual = target.astype(complex if dictionary.field == "complex" else float).copy()
    coef = np.zeros(0)
    for j in range(steps):
        sel = argmax_inner_product(dictionary, residual, weakness=weakness, mode="abs")
        if sel.score <= STOP_TOL * max(1.0, norms[0]):
            break
        selected.append(sel.index)
        A = dictionary.atoms[:, selected]
        G = np.conj(A).T @ A
        G[np.diag_indices_from(G)] += OGA_RIDGE
        coef = np.linalg.solve(G, np.conj(A).T @ target)
        residual = target - A @ coef
        norms.append(float(np.linalg.norm(residual)))
    m = len(selected)
    bounds = None
    if a1_mass is not None:
        bounds = np.array([oga_bound(a1_mass, j + 1, weakness) for j in range(m)])
    approx = target - residual
    return GreedyRun(
        algorithm="oga",
        dictionary_kind=dictionary.kind,
        m=m,
        residual_norms=np.array(norms),
        selected=selected,
        coefficients=np.asarray(coef),
        approximant=approx,
        bounds=bounds,
        meta={"weakness": weakness, "a1_mass": a1_mass},
    )


def rga(target: np.ndarray, dictionary: Dictionary, steps: int, a1_certified: bool = False) -> GreedyRun:
    """Relaxed greedy: G_m = (1 - 1/m) G_{m-1} + phi_m / m.

    Selection maximizes the real inner product with the residual, so pass a
    signed (symmetrized) dictionary when the target's convex representation
    needs negative weights.  The ``2/sqrt(m)`` bound is recorded only when
    the caller certifies that the target is a convex combination of the
    atoms (``a1_certified``); the engine does not verify the certificate.
    """
    if dictionary.field != "real":
        raise ValueError("relaxed greedy needs a real dictionary")
    target = np.asarray(target, dtype=float)
    G = np.zeros_like(target)
    norms = [float(np.linalg.norm(target))]
    selected: list[int] = []
    for j in range(1, steps + 1):
        sel = argmax_inner_product(dictionary, target - G, mode="real")
        selected.append(sel.index)
        G = (1.0 - 1.0 / j) * G + dictionary.atoms[:, sel.index] / j
        norms.append(float(np.linalg.norm(target - G)))
    m = len(selected)
    bounds = np.array([rga_bound(j + 1) for j in range(m)]) if a1_certified else None
    return GreedyRun(
        algorithm="rga",
        dictionary_kind=dictionary.kind,
        m=m,
        residual_norms=np.array(norms),
        selected=selected,
        coefficients=np.full(m, 1.0 / m) if m else np.zeros(0),
        approximant=G,
        bounds=bounds,
        meta={"a1_certified": a1_certified},
    )


@dataclass(frozen=True)
class Schedule:
    """Tolerance schedule eps_n = beta * gamma^(1/q) * n^(-(1 - 1/q)).

    ``gamma`` and ``q`` are the modulus-of-smoothness parameters of the
    ambient norm; for L_p with p >= 2 use q = 2 and gamma = (p - 1) / 2.
    """

    beta: float = 1.0
    gamma: float = 0.5
    q: float = 2.0

    def epsilon(self, n: int) -> float:
        return self.beta * self.gamma ** (1.0 / self.q) * n ** (-(1.0 - 1.0 / self.q))

    @classmethod
    def for_lp(cls, p: float, beta: float = 1.0) -> "Schedule":
        if p < 2:
            raise ValueError("schedule defined for p >= 2")
        return cls(beta=beta, gamma=(p - 1.0) / 2.0, q=2.0)


def ia(system: OrthonormalSystem, target: np.ndarray, p: float, steps: int, schedule: Schedule | None = None) -> GreedyRun:
    """Incremental greedy in L_p over the signed scaled basis ±u_i/sqrt(K2), driven by norming functionals.

    The target (ambient coefficients, certified inside A1 of those atoms) is
    approximated by averages G_m = (1/m) sum phi_k where each phi_m must
    satisfy F_{f - G_{m-1}}(phi_m - f) >= -eps_m; we select the atom
    maximizing F and verify the condition, raising
    :class:`GreedyStepInfeasible` on failure.  Each step values the residual
    at the quadrature nodes by one inverse FFT, and F at every atom by one
    forward FFT of the density: dens . u_i = Re sum_k E_ki conj(fftn(dens)[k
    mod sizes]), E = ``basis.exp_coeffs``.  The grid sup-norm of every
    residual is recorded in ``meta["sup_norms"]``.
    """
    if p < 2:
        raise ValueError("incremental greedy implemented for p >= 2")
    if schedule is None:
        schedule = Schedule.for_lp(p)
    target = np.asarray(target, dtype=float)
    quad, n = system.quadrature, system.size
    sizes = quad.tensor_sizes(system.dim)
    cells = np.ravel_multi_index(tuple((system.freqs.array % sizes).T), sizes)  # where fftn puts each k of Q
    E = system.basis.exp_coeffs(np.eye(n))  # column i: the exponential coefficients of u_i
    scale = 1.0 / math.sqrt(system.constants.k2)
    w = quad.weights
    tv = TrigPolynomial(system.freqs, E @ target).values_on(quad).real
    Gc = np.zeros_like(target)
    hv = tv  # the residual's values at the nodes
    a = np.abs(hv)
    norms = [norm_values_lp(a, w, p)]
    sups = [float(a.max())]
    selected: list[int] = []
    Fvals = np.empty(2 * n)  # the functional at the atoms +u_i/sqrt(K2), -u_i/sqrt(K2), interleaved
    for j in range(1, steps + 1):
        nh = norms[-1]
        if nh < STOP_TOL * max(1.0, norms[0]):
            break
        dens = w * (a / nh) ** (p - 1.0) * np.sign(hv)
        Fvals[0::2] = scale * (np.conj(np.fft.fftn(dens.reshape(sizes)).reshape(-1)[cells]) @ E).real
        Fvals[1::2] = -Fvals[0::2]
        Ff = float(dens @ tv)
        eps = schedule.epsilon(j)
        k = int(np.argmax(Fvals))
        if Fvals[k] - Ff < -eps - 1e-9:
            raise GreedyStepInfeasible(
                f"step {j}: best functional gap {Fvals[k] - Ff:.3e} below -eps = {-eps:.3e}"
            )
        selected.append(k)
        Gc = (1.0 - 1.0 / j) * Gc
        Gc[k // 2] += (scale if k % 2 == 0 else -scale) / j
        hv = TrigPolynomial(system.freqs, E @ (target - Gc)).values_on(quad).real
        a = np.abs(hv)
        norms.append(norm_values_lp(a, w, p))
        sups.append(float(a.max()))
    m = len(selected)
    meta = {"p": p, "schedule": (schedule.beta, schedule.gamma, schedule.q), "sup_norms": np.array(sups)}
    return GreedyRun(
        algorithm="ia",
        dictionary_kind=SCALED_BASIS,
        m=m,
        residual_norms=np.array(norms),
        selected=selected,
        coefficients=np.full(m, 1.0 / m) if m else np.zeros(0),
        approximant=Gc,
        bounds=None,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# composite pipelines


@dataclass
class SupSparsifyResult:
    run: GreedyRun
    approx: np.ndarray  # ambient coefficients of the m-term approximant
    sup_residual: float
    mass_in: float
    mass_representation: float
    mass_combined: float
    p: float
    meta: dict = field(default_factory=dict)


def default_sup_p(system: OrthonormalSystem) -> float:
    # p of order log N keeps the infinity/p norm gap N^(1/p) bounded
    return float(max(2, round(math.log(max(system.size, 3)))))


def sup_norm_sparsify(system: OrthonormalSystem, target: np.ndarray, steps: int) -> SupSparsifyResult:
    """m-term uniform-norm sparsification with conserved coefficient mass.

    The target (ambient coefficients) is rescaled to unit A1 mass over the
    signed scaled basis, approximated by the incremental greedy in L_p with
    p of order log N, and rescaled back.  The output is an average of m
    signed atoms, so the representation carries exactly the input mass; the
    combined coefficients can only lose mass to cancellation.
    """
    c = system.constants
    p = default_sup_p(system)
    target = np.asarray(target, dtype=float)
    mass_in = math.sqrt(c.k2) * float(np.abs(target).sum())
    if mass_in < STOP_TOL:
        run = GreedyRun("ia", SCALED_BASIS, 0, np.zeros(1), [], np.zeros(0), np.zeros_like(target))
        return SupSparsifyResult(run, np.zeros_like(target), 0.0, 0.0, 0.0, 0.0, p)
    run = ia(system, target / mass_in, p=p, steps=steps)
    approx = run.approximant * mass_in
    sup_residual = system.span_norm(target - approx, math.inf)
    mass_repr = mass_in * float(run.coefficients.sum())
    mass_combined = math.sqrt(c.k2) * float(np.abs(approx).sum())
    return SupSparsifyResult(
        run=run,
        approx=approx,
        sup_residual=sup_residual,
        mass_in=mass_in,
        mass_representation=mass_repr,
        mass_combined=mass_combined,
        p=p,
        meta={"steps": steps},
    )


@dataclass
class TwoStageResult:
    stage1: GreedyRun
    stage2: SupSparsifyResult
    approx: np.ndarray
    sup_residual: float
    terms: int
    meta: dict = field(default_factory=dict)


def two_stage_sup_approx(system: OrthonormalSystem, target: np.ndarray, steps: int) -> TwoStageResult:
    """Uniform-norm m-term approximation: L2 relaxed greedy, then sparsify.

    Stage one spends half the budget reducing the L2 residual over the
    signed scaled basis; the residual is then re-certified through its own
    coefficient mass and stage two sparsifies it in the uniform norm.  The
    headline effect is a residual decaying like 1/m instead of 1/sqrt(m).
    A zero target gives the zero approximant with no terms.
    """
    c = system.constants
    target = np.asarray(target, dtype=float)
    m1 = max(1, steps // 2)
    m2 = max(1, steps - m1)
    d = scaled_basis_dict(system)
    mass1 = math.sqrt(c.k2) * float(np.abs(target).sum())
    if mass1 < STOP_TOL:
        run1 = GreedyRun("rga", d.kind, 0, np.zeros(1), [], np.zeros(0), np.zeros_like(target))
    else:
        run1 = rga(target / mass1, d, steps=m1, a1_certified=True)
    stage1_approx = run1.approximant * mass1
    h = target - stage1_approx
    stage2 = sup_norm_sparsify(system, h, steps=m2)
    approx = stage1_approx + stage2.approx
    return TwoStageResult(
        stage1=run1,
        stage2=stage2,
        approx=approx,
        sup_residual=system.span_norm(target - approx, math.inf),
        terms=run1.m + stage2.run.m,
        meta={"mass1": mass1, "mass2": stage2.mass_in},
    )


# ---------------------------------------------------------------------------
# m-term approximation curves for classes of certified targets


@dataclass(frozen=True)
class SigmaPoint:
    ball: str
    m: int
    median_residual: float
    max_residual: float
    curve: float
    hard_bound: float | None
    n_samples: int


def _sample_coeff_ball(system: OrthonormalSystem, rng, size: int):
    """Random certified element of sqrt(K2 N) * A1(signed scaled basis)."""
    n = system.size
    idx = rng.integers(0, n, size=size)
    signs = rng.choice([-1.0, 1.0], size=size)
    a = rng.dirichlet(np.ones(size))
    coeffs = np.zeros(n)
    scale = math.sqrt(system.constants.k2 * n)
    np.add.at(coeffs, idx, a * signs / math.sqrt(system.constants.k2) * scale)
    return coeffs  # A1 mass of coeffs/scale is exactly sum(a) = 1


def _sample_kernel_ball(system: OrthonormalSystem, d: Dictionary, rng, size: int):
    """Random certified element of sqrt(K2 N) * A1(signed kernel atoms)."""
    idx = rng.integers(0, d.n_atoms, size=size)
    a = rng.dirichlet(np.ones(size))
    scale = math.sqrt(system.constants.k2 * system.size)
    return scale * (d.atoms[:, idx] @ a)


def sigma_m_curve(system: OrthonormalSystem, ball: str, m_list, n_samples: int = 8, seed: int = 0) -> list[SigmaPoint]:
    """Measured m-term approximation errors against their guarantee curves.

    Supported balls (targets sampled with exact convex-combination
    certificates, so every hard bound is enforceable):

    * ``"coeff-l1"``  unit coefficient-l1 ball, orthogonal greedy over the
      exponentials; curve (N/m)^(1/2) capped at 1, hard bound (1+m)^(-1/2).
    * ``"kernel-l2"`` sqrt(K2 N) A1 over signed kernel atoms, relaxed greedy
      in L2; curve 3 (K2 N / m)^(1/2), hard bound 2 (K2 N / m)^(1/2).
    * ``"basis-sup"`` sqrt(K2 N) A1 over the signed scaled basis, sparsified
      in the uniform norm; curve (K2 N / m)^(1/2) (log N)^(1/2), no hard
      bound (empirical constant).
    * ``"basis-sup-2stage"`` same ball, two-stage pipeline; curve
      (K2 N / m) (log N)^(1/2), no hard bound.
    """
    if ball not in SIGMA_BALLS:
        raise ValueError(f"unknown ball {ball!r}")
    rng = np.random.default_rng(seed)
    n = system.size
    k2 = system.constants.k2
    logn = math.log(max(n, 3))
    points = []
    if ball == "kernel-l2":
        kd = symmetrize(scaled_kernel_dict(system))
    if ball == "coeff-l1":
        ed = exponential_dict(system.freqs)
    for m in m_list:
        res = []
        for s in range(n_samples):
            if ball == "coeff-l1":
                a = rng.dirichlet(np.ones(SIGMA_MIX))
                idx = rng.integers(0, len(system.freqs), size=SIGMA_MIX)
                phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=SIGMA_MIX))
                c = np.zeros(len(system.freqs), dtype=complex)
                np.add.at(c, idx, a * phases)
                run = oga(c, ed, steps=m, a1_mass=1.0)
                assert run.bound_violations() == 0
                res.append(run.residual_norms[-1])
            elif ball == "kernel-l2":
                f = _sample_kernel_ball(system, kd, rng, SIGMA_MIX)
                scale = math.sqrt(k2 * n)
                run = rga(f / scale, kd, steps=m, a1_certified=True)
                assert run.bound_violations() == 0
                res.append(scale * run.residual_norms[-1])
            elif ball == "basis-sup":
                f = _sample_coeff_ball(system, rng, SIGMA_MIX)
                out = sup_norm_sparsify(system, f, steps=m)
                res.append(out.sup_residual)
            else:
                f = _sample_coeff_ball(system, rng, SIGMA_MIX)
                out = two_stage_sup_approx(system, f, steps=m)
                res.append(out.sup_residual)
        if ball == "coeff-l1":
            curve, hard = min(1.0, math.sqrt(n / m)), 1.0 / math.sqrt(1 + m)
        elif ball == "kernel-l2":
            curve, hard = 3 * math.sqrt(k2 * n / m), 2 * math.sqrt(k2 * n / m)
        elif ball == "basis-sup":
            curve, hard = math.sqrt(k2 * n / m) * math.sqrt(logn), None
        else:
            curve, hard = (k2 * n / m) * math.sqrt(logn), None
        points.append(
            SigmaPoint(
                ball=ball,
                m=m,
                median_residual=float(np.median(res)),
                max_residual=float(np.max(res)),
                curve=float(curve),
                hard_bound=hard,
                n_samples=n_samples,
            )
        )
    return points
