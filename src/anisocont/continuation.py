"""Pseudo-arclength continuation with eigenvalue-based bifurcation detection,
branch switching, and mesh adaptation every `amod` accepted steps.

The arclength inner product between increments (du, dp) is
xi_w * du' M du / |Omega| + (1 - xi_w) * dp^2 with xi_w = 0.5, so tangents
and step constraints balance the field and parameter components.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .adapt import AdaptationError, two_step_adapt
from .mesh import interpolate

logger = logging.getLogger(__name__)

XI_WEIGHT = 0.5
BACKWARD_TOL = 1e-12          # accepted normwise backward error of a solve
MAX_SWEEPS = 8                # refinement sweeps on a kept LU before refactoring
FORCING = 0.1                 # inexact Newton: linear residual <= FORCING min(g, 1) g
NUDGE = 1e-10                 # last-resort diagonal shift of a singular tangent system
INVERSE_TOL = 1e-10           # eigenvector change that ends inverse iteration
INVERSE_MAX_IT = 50


class ContinuationError(RuntimeError):
    pass


@dataclass
class ContinuationSettings:
    ds0: float = 0.02
    ds_min: float = 1e-6
    ds_max: float = 0.1
    newton_tol: float = 1e-8
    newton_max_it: int = 10
    amod: int = 0                 # adapt the mesh every amod accepted steps; 0 = never
    ngen: int = 1                 # adapt + re-solve repetitions per trigger
    nsteps: int = 100
    bif_detection: bool = True
    param_min: float | None = None
    param_max: float | None = None
    bp_param_tol: float = 1e-4    # bound on a branch point's bracket or |mu| / |dmu/dp|
    switch_delta: float = 0.1

    def __post_init__(self):
        if not 0 < self.ds_min <= self.ds0 <= self.ds_max:
            raise ValueError("need 0 < ds_min <= ds0 <= ds_max")
        if not (self.newton_tol > 0 and self.bp_param_tol > 0):
            raise ValueError("need newton_tol > 0 and bp_param_tol > 0")
        if self.newton_max_it < 0 or self.nsteps < 0:
            raise ValueError("need newton_max_it >= 0 and nsteps >= 0")
        if self.amod < 0 or self.ngen < 1:
            raise ValueError("need amod >= 0 and ngen >= 1")


@dataclass
class BranchRecord:
    step: int
    param_name: str
    param_value: float
    l2: float
    min_u: float
    max_u: float
    np: int
    n_neg: int | None = None
    flag: str = ""


@dataclass
class ContinuationState:
    mesh: object
    u: np.ndarray
    prob: object
    tangent: np.ndarray | None = None
    step_index: int = 0
    ds: float = 0.02


@dataclass
class NewtonResult:
    u: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    factorizations: int = 0
    refinements: int = 0


@dataclass
class BPEvent:
    step: int
    param: float
    u: np.ndarray
    mesh: object
    phi: np.ndarray
    n_neg_before: int
    n_neg_after: int
    approximate: bool = False


@dataclass
class FoldEvent:
    step: int
    param: float


@dataclass
class RunResult:
    records: list
    events: list
    state: ContinuationState
    stop_reason: str


class FemWorkspace:
    """Caches the mesh-bound matrices used by repeated residual/Jacobian calls:
    the stiffness and mass matrices, the Jacobian's fixed sparsity pattern
    (`pattern`, filled by value on every update), `solver`, the one
    BorderedSolver whose LU every solve with this mesh's Jacobian refines on
    (README, "Linear solves"), and the stability counts' `count_ordering`."""

    def __init__(self, mesh, prob):
        self.mesh = mesh
        self.K1 = fem.assemble_stiffness(mesh, 1.0)
        self.M = fem.assemble_mass(mesh)
        self.dir_idx, self.dir_groups = fem.dirichlet_info(mesh, prob)
        self.domain_vol = float(np.prod(mesh.box[:, 1] - mesh.box[:, 0]))
        self.pattern = fem.JacobianPattern(self.K1, self.M, self.dir_idx)
        self.free = self.pattern.free
        self._J_cache = (None, None, None)
        self.solver = BorderedSolver(norm=self.pattern.inf_norm)
        self.count_ordering = None

    def release(self):
        """Drops the LU and the remembered Jacobian, which later calls
        rebuild, so the workspace stays usable."""
        self.solver.release()
        self._J_cache = (None, None, None)

    def residual(self, u, prob):
        return fem.residual(self.mesh, u, prob, K1=self.K1, M=self.M,
                            dir_idx=self.dir_idx, dir_groups=self.dir_groups)

    def jacobian(self, u, prob):
        """`fem.jacobian`, remembered for the last (u, parameters) by value:
        the tangent and the stability index ask at the same state, and
        Newton updates u in place. Callers must not modify the result."""
        key = (prob.c, prob.lam, prob.gamma, sorted(prob.aux.items()))
        last_u, last_key, J = self._J_cache
        if last_key != key or not np.array_equal(last_u, u):
            J = fem.jacobian(self.mesh, u, prob, pattern=self.pattern)
            self._J_cache = (np.array(u, dtype=float), key, J)
        return J

    @cached_property
    def M_free(self):
        """The Dirichlet-reduced mass matrix, the eigensolves' B."""
        return self.M[self.free][:, self.free].tocsc()

    def dresidual_dparam(self, u, prob):
        """Exact derivative of `residual` in the active parameter. Only the
        boundary profiles read `aux` parameters, so those act on the
        Dirichlet rows alone (-dg/dp), and lambda, gamma and c on the others."""
        name = prob.active_param
        if name == "lambda":
            Gp = -(self.M @ u)
        elif name == "gamma":
            Gp = self.M @ u ** 5
        elif name == "c":
            Gp = self.K1 @ u
        else:
            Gp = np.zeros(len(u))
        Gp[self.dir_idx] = -fem.dirichlet_dparam(self.mesh, prob, self.dir_idx,
                                                 self.dir_groups, name)
        return Gp

    def border(self, tu, tp):
        """The arclength row (r, c) with r.du + c*dp = inner(du, dp, tu, tp)."""
        return (XI_WEIGHT / self.domain_vol) * (self.M @ tu), (1.0 - XI_WEIGHT) * tp

    def inner(self, du1, dp1, du2, dp2):
        uu = float(du1 @ (self.M @ du2)) / self.domain_vol
        return XI_WEIGHT * uu + (1.0 - XI_WEIGHT) * dp1 * dp2

    def norm(self, du, dp):
        return math.sqrt(max(self.inner(du, dp, du, dp), 0.0))


def factorize(A, diag_pivot_thresh=0.1, permc_spec="MMD_AT_PLUS_A"):
    """Sparse LU: minimum-degree ordering of A' + A with symmetric-mode
    threshold pivoting (README, "Linear solves"). The default threshold 0.1
    serves repeated solves; `stability_index` passes 0.0, which keeps every
    nonzero diagonal pivot, so the factors of a symmetric A are L D L', and
    permc_spec="NATURAL" for a matrix already in a cached ordering."""
    return spla.splu(sp.csc_matrix(A), permc_spec=permc_spec,
                     diag_pivot_thresh=diag_pivot_thresh,
                     options={"SymmetricMode": True})


class BorderedSolver:
    """Plain solves with J and solves with J bordered by the arclength row,
    from one LU that may be of a nearby matrix.

    `factor(J)` factors J afresh; `update(J)` moves on to a later J near the
    one factored and keeps the LU (it factors J when no LU is held). Every
    solve refines against the current J until its normwise backward error
    |b - A z| / (|A| |z| + |b|) is at most BACKWARD_TOL or, when the caller
    passes an absolute target `atol`, until max|b - A z| is at most atol,
    whichever comes first. On an LU of J itself one refinement sweep is
    allowed. On a kept LU refinement goes on while each sweep at least
    halves the error, for at most MAX_SWEEPS sweeps, and from the second
    sweep on only while the contraction seen so far predicts reaching the
    looser of the two targets within them; otherwise J is factored afresh (a
    refactor) and the solve starts over on that LU. With the default
    atol = 0 a solve on a kept LU is as accurate as the bound asks; Newton
    and the corrector pass the inexact Newton target of `_forcing`.

    `solve_bordered(g, r, c, f, h)` solves [[J, g], [r', c]] [x; y] = [f; h]
    by block elimination with the LU: v = J^-1 g and w = J^-1 f (two
    back-solves), y = (h - r.w) / (c - r.v), x = w - y v, and refines with
    the same elimination. When that misses the bound on a fresh LU (near a
    singular J), one LU of the full bordered matrix solves it, and with
    `nudge` that matrix plus 1e-10 I is the last resort. A fresh plain solve
    that misses the bound is returned after its sweep, for Newton's residual
    test to judge.

    `norm(J)`, when given, must return `spla.norm(J, np.inf)`; a
    workspace's solver takes it from the Jacobian pattern, which needs no
    conversion of J.

    Counts: `factorizations` (every LU this solver made, full bordered ones
    included), `refactors` (LUs made because refinement on a kept LU fell
    short), `refinements` (sweeps) and `fallbacks` (full bordered LUs).

    `adopt(J, lu, free)` keeps a stability count's LU of A, the symmetric
    part of J's free block, as a kept LU of J. J's Dirichlet rows are
    identity rows, so its back-solves are x_d = b_d and
    x_f = A^-1 (b_f - J_fd b_d), refined against J as on any kept LU.
    `counted` is that J until the solver factors or is released.
    """

    def __init__(self, J=None, norm=None):
        self.J = self.lu = self.error = self.counted = self._split = None
        self._norm = norm or _inf_norm
        self.fresh = True
        self.factorizations = self.refactors = self.refinements = 0
        self.fallbacks = 0
        if J is not None:
            self.factor(J)

    def factor(self, J):
        self._set(J)
        self._factor()

    def update(self, J):
        if self.lu is None:
            self.factor(J)
        else:
            self._set(J)
            self.fresh = False

    def adopt(self, J, lu, free):
        self._set(J)
        self.lu, self.counted, self.fresh = lu, J, False
        self._split = np.flatnonzero(free), np.flatnonzero(~free)

    def release(self):
        """Drops J and the LU; the next `update` factors."""
        self.J = self.lu = self.counted = None

    def _set(self, J):
        self.J = sp.csc_matrix(J)
        self._j_norm = self._norm(self.J)

    def _factor(self):
        self.factorizations += 1
        self.fresh = True
        self.lu = self.counted = None        # never hold two LUs at once
        try:
            self.lu, self.error = factorize(self.J), None
        except RuntimeError as exc:          # SuperLU: exactly singular
            self.lu, self.error = None, exc

    def _refactor(self):
        self.refactors += 1
        self._factor()

    def _back_solve(self, b):
        if self.counted is None:
            return self.lu.solve(b)
        free, fixed = self._split
        b_d = b[fixed]
        x = np.zeros_like(b)
        x[fixed] = b_d
        rhs = b[free]
        if b_d.any():
            rhs -= (self.J @ x)[free]
        x[free] = self.lu.solve(rhs)
        return x

    def _refine(self, z, residual, correct, a_norm, b_norm, atol):
        """(z, accepted): z refined by `z += correct(residual(z))` sweeps,
        accepted once max|residual| is at most atol or its backward error is
        at most BACKWARD_TOL."""
        cap = 1 if self.fresh else MAX_SWEEPS
        last = np.inf
        for sweep in range(cap + 1):
            res = residual(z)
            err = np.max(np.abs(res))
            if err <= atol:
                return z, True
            eta = err / (a_norm * np.max(np.abs(z)) + b_norm)
            if eta <= BACKWARD_TOL:
                return z, True
            if sweep == cap or not eta <= 0.5 * last:    # also NaN
                return z, False
            # sweeps still needed at the contraction eta / last seen so far,
            # to the looser of the two targets as a backward error
            goal = max(BACKWARD_TOL, eta * atol / err)
            if sweep >= 2 and sweep + (math.log(goal / eta)
                                       / math.log(eta / last)) > MAX_SWEEPS:
                return z, False
            last = eta
            self.refinements += 1
            z = z + correct(res)

    def solve(self, f, atol=0.0):
        f = np.asarray(f, dtype=float)
        b_norm = np.max(np.abs(f))
        while True:
            if self.lu is None:
                raise RuntimeError(f"cannot solve with a singular matrix: {self.error}")
            x, ok = self._refine(self._back_solve(f), lambda z: f - self.J @ z,
                                 self._back_solve, self._j_norm, b_norm, atol)
            if ok or self.fresh:
                return x
            self._refactor()

    def solve_bordered(self, g, r, c, f, h, nudge=False, atol=0.0):
        """Returns (x, y); raises RuntimeError when every fallback fails."""
        g, r, f = (np.asarray(a, dtype=float) for a in (g, r, f))
        n = len(f)
        a_norm = max(self._j_norm + np.max(np.abs(g)), np.sum(np.abs(r)) + abs(c))
        b_norm = max(np.max(np.abs(f)), abs(h))

        def residual(z):
            x, y = z[:n], z[n]
            return np.append(f - (self.J @ x + g * y), h - (float(r @ x) + c * y))

        while self.lu is not None:
            vw = self._back_solve(np.column_stack([g, f]))
            v = vw[:, 0]
            s = c - float(r @ v)
            if s != 0.0 and np.isfinite(s):
                z, ok = self._refine(
                    _eliminate(v, s, vw[:, 1], r, h), residual,
                    lambda res: _eliminate(v, s, self._back_solve(res[:n]), r,
                                           res[n]),
                    a_norm, b_norm, atol)
                if ok:
                    return z[:n], float(z[n])
            if self.fresh:
                break
            self._refactor()
        return self._solve_full(g, r, c, f, h, nudge)

    def _solve_full(self, g, r, c, f, h, nudge):
        n = len(f)
        A = sp.bmat([[self.J, sp.csc_matrix(g[:, None])],
                     [sp.csr_matrix(r[None, :]), sp.csr_matrix([[c]])]],
                    format="csc")
        rhs = np.append(f, h)
        self.fallbacks += 1
        for shift in (0.0, NUDGE) if nudge else (0.0,):
            self.factorizations += 1
            try:
                z = factorize(A + shift * sp.eye(n + 1, format="csc")).solve(rhs)
            except RuntimeError:
                continue
            if np.all(np.isfinite(z)):
                return z[:n], float(z[n])
        raise RuntimeError("bordered system is singular")


def _inf_norm(A):
    return spla.norm(A, np.inf)


def _eliminate(v, s, w, r, h):
    """[x; y] from the elimination of the border, given w = J^-1 f."""
    y = (h - float(r @ w)) / s
    return np.append(w - y * v, y)


def _forcing(g):
    """The residual a Newton iteration's linear solve must reach, given the
    max-norm g of its right-hand side: the forcing term FORCING * min(g, 1)
    keeps inexact Newton quadratic (Dembo, Eisenstat & Steihaug 1982)."""
    return FORCING * min(g, 1.0) * g


def newton_solve(mesh, u0, prob, tol=1e-8, max_it=10, work=None):
    """Full-step Newton on the residual; returns a NewtonResult.

    Iteration 0 factors its Jacobian on the workspace's solver
    (`work.solver`) and later iterations solve with that LU refined against
    their own Jacobian (`BorderedSolver.update`), so the tangent and the
    steps that follow start from the same LU. Each update is an inexact
    Newton step: its linear residual is at most `_forcing(max|G|)`, or its
    backward error at most BACKWARD_TOL. Convergence is judged on max|G|
    against `tol`. The result counts the LUs and refinement sweeps of this
    solve.
    """
    if work is None:
        work = FemWorkspace(mesh, prob)
    u = np.array(u0, dtype=float, copy=True)
    if u.shape != (mesh.num_nodes,):
        raise ValueError("initial guess length does not match node count")
    solver = work.solver
    start = solver.factorizations, solver.refinements

    def result(k, res_norm, converged):
        return NewtonResult(u, k, res_norm, converged,
                            solver.factorizations - start[0],
                            solver.refinements - start[1])

    res_norm = np.inf
    for k in range(max_it + 1):
        G = work.residual(u, prob)
        res_norm = float(np.max(np.abs(G))) if G.size else 0.0
        if res_norm <= tol:
            return result(k, res_norm, True)
        if k == max_it:
            break
        J = work.jacobian(u, prob)
        try:
            if k == 0:
                solver.factor(J)
            else:
                solver.update(J)
            du = solver.solve(-G, atol=_forcing(res_norm))
        except Exception as exc:
            logger.warning("Newton linear solve failed: %s", exc)
            return result(k, res_norm, False)
        if not np.all(np.isfinite(du)):
            logger.warning("Newton produced non-finite update (singular Jacobian?)")
            return result(k, res_norm, False)
        u += du
    return result(max_it, res_norm, False)


def compute_tangent(work, u, prob, prev_tangent):
    """Unit branch tangent from the bordered system, oriented along the
    previous tangent.

    The solve refines on the workspace's LU (`work.solver`, through
    `BorderedSolver.update`), with detection on that of the state's
    stability count, else usually that of a nearby Jacobian, and factors
    only when it holds none or refinement does not reach the bound.
    """
    n = len(u)
    tu_prev, tp_prev = prev_tangent[:n], float(prev_tangent[n])
    row_u, row_p = work.border(tu_prev, tp_prev)
    solver = work.solver
    solver.update(work.jacobian(u, prob))
    try:
        # exactly at a branch point the bordered matrix is singular: nudge
        x, y = solver.solve_bordered(work.dresidual_dparam(u, prob), row_u,
                                     row_p, np.zeros(n), 1.0, nudge=True)
    except RuntimeError as exc:
        raise ContinuationError("tangent solve failed (singular bordered "
                                "system)") from exc
    t = np.append(x, y)
    nrm = work.norm(t[:n], t[n])
    if nrm <= 0 or not np.isfinite(nrm):
        raise ContinuationError("tangent has zero norm")
    t /= nrm
    if work.inner(t[:n], t[n], tu_prev, tp_prev) < 0:
        t = -t
    return t


def _correct(work, prob, u_pred, p_pred, base_u, base_p, tangent, ds, tol,
             max_it):
    """Newton on the extended system {G = 0, <t, x - base> = ds}.

    Every iteration solves with the workspace's LU (`work.solver`), refined
    against its own Jacobian (`BorderedSolver.update`, which factors when no
    LU is held) until the bordered residual is at most `_forcing(g)`, g the
    larger of max|G| and |r2|, or the backward error at most BACKWARD_TOL.
    Convergence is judged on max|G| and |r2| against `tol`.
    """
    n = len(u_pred)
    tu, tp = tangent[:n], float(tangent[n])
    row_u, row_p = work.border(tu, tp)
    u = np.array(u_pred, dtype=float, copy=True)
    p = float(p_pred)
    pr = prob.copy()
    solver = work.solver
    iters = 0
    for k in range(max_it + 1):
        pr.set_param(p)
        G = work.residual(u, pr)
        r2 = work.inner(u - base_u, p - base_p, tu, tp) - ds
        g = float(np.max(np.abs(G)))
        if g <= tol and abs(r2) <= tol:
            return u, p, k, True
        if k == max_it:
            break
        J = work.jacobian(u, pr)
        try:
            solver.update(J)
            du, dp = solver.solve_bordered(work.dresidual_dparam(u, pr), row_u,
                                           row_p, -G, -r2,
                                           atol=_forcing(max(g, abs(r2))))
        except Exception:
            return u, p, k, False
        if not (np.all(np.isfinite(du)) and np.isfinite(dp)):
            return u, p, k, False
        u += du
        p += dp
        iters = k + 1
    return u, p, iters, False


def cont_step(state, settings, work):
    """One predictor/corrector step with stepsize control.

    Returns (new_state, info); new_state is None on permanent failure
    (stepsize underflow). On success new_state is the corrected state
    without its tangent, which `run_continuation` computes after the
    state's stability count, and the stepsize grows by 1.3 when the
    corrector needed at most 3 Newton iterations. Every corrector attempt
    refines on the workspace's LU (`work.solver`), which factors only when
    it holds none or refinement would miss the inexact Newton residual of
    `_forcing`. `info` counts the LUs (`factorizations`) and refinement
    sweeps (`refinements`) of this step.
    """
    t = state.tangent
    n = len(state.u)
    base_u = state.u
    base_p = state.prob.get_param()
    ds = state.ds
    solver = work.solver
    start = solver.factorizations, solver.refinements

    def counts():
        return {"factorizations": solver.factorizations - start[0],
                "refinements": solver.refinements - start[1]}

    while True:
        u_pred = base_u + ds * t[:n]
        p_pred = base_p + ds * float(t[n])
        u, p, iters, ok = _correct(work, state.prob, u_pred, p_pred, base_u,
                                   base_p, t, ds, settings.newton_tol,
                                   settings.newton_max_it)
        if ok:
            ds_next = min(ds * 1.3, settings.ds_max) if iters <= 3 else ds
            prob = state.prob.copy()
            prob.set_param(p)
            new_state = ContinuationState(state.mesh, u, prob, None,
                                          state.step_index + 1, ds_next)
            return new_state, {"ds_used": ds, "newton_iters": iters, **counts()}
        ds *= 0.5
        if ds < settings.ds_min:
            return None, {"reason": "stepsize underflow", "ds": ds, **counts()}


def _reduced_symmetric(work, u, prob):
    """A, the symmetric part of the Dirichlet-reduced Jacobian; the pencil's
    B is `work.M_free`."""
    return work.pattern.reduced_symmetric(work.jacobian(u, prob))


def stability_index(mesh, u, prob, work=None):
    """Count of negative eigenvalues of the Dirichlet-reduced pencil (A, M),
    where A is the symmetric part of the reduced Jacobian J.

    Off the trivial branch the consistent-mass Jacobian K - M diag(f'(u)) is
    not symmetric, and the count is that of its symmetrized pencil. A dense
    oracle of the true pencil, the real parts of eig(J, M), gives the same
    count on every state of the switched `cos` branch, fold included
    (tests/test_continuation.py, TestPencil), so the symmetric part is
    enough here.

    M is SPD, so by Sylvester's law of inertia the count is the number of
    negative pivots of A = L D L'. `factorize` with `diag_pivot_thresh=0`
    gives those pivots as diag(U) when two checks hold: no off-diagonal pivot
    was taken (perm_r == perm_c) and one solve has a normwise backward error
    of at most BACKWARD_TOL. Otherwise, and when SuperLU finds A exactly
    singular, a warning names the reason and shift-invert Lanczos counts the
    eigenvalues instead. Returns None when that fallback fails too.

    The first certified count on a workspace keeps its minimum-degree
    ordering (`work.count_ordering`), in which later counts factor A.
    The count first releases the workspace's LU (`work.solver`), so the
    workspace never holds two. A certified count hands its LU to the solver
    (`BorderedSolver.adopt`): the state's tangent, the next corrector and,
    while it is this state's, `critical_eigenpair` solve on it, so a step
    with detection on makes one LU.
    """
    if work is None:
        work = FemWorkspace(mesh, prob)
    work.solver.release()            # one LU at a time
    J = work.jacobian(u, prob)
    A = work.pattern.reduced_symmetric(J)
    if A.shape[0] == 0:
        return 0
    ordering = work.count_ordering
    if ordering is not None and ordering.serves(A):
        count, lu = ordering.inertia(A)
    else:
        count, lu = _inertia(A)
        if count is not None:
            work.count_ordering = _CountOrdering(A, lu.perm_c)
    if count is None:
        logger.warning("inertia count rejected (%s); counting eigenvalues by "
                       "shift-invert", lu)
        return _shift_invert_count(A, work.M_free)
    work.solver.adopt(J, lu, work.free)
    return count


class _CountOrdering:
    """The symmetric permutation of a certified count's LU. Factored with
    the natural ordering, A[order][:, order] keeps that LU's fill without a
    new minimum-degree analysis, as KLU splits symbolic from numeric
    factorization (Davis & Palamadai Natarajan 2010). It serves matrices on
    the first one's `indptr`, as `JacobianPattern.reduced_symmetric` makes
    them; `gather` takes their data into the permuted CSC order."""

    def __init__(self, A, perm_c):
        self.indptr = A.indptr
        self.order = np.argsort(perm_c)
        pos = sp.csc_matrix((np.arange(1, A.nnz + 1), A.indices, A.indptr),
                            shape=A.shape)[self.order][:, self.order].tocsc()
        pos.sort_indices()
        self.gather = pos.data - 1
        self.permuted = pos.indices, pos.indptr

    def serves(self, A):
        return A.indptr is self.indptr

    def inertia(self, A):
        """`_inertia` of A, factored in this ordering; the LU solves with A."""
        B = sp.csc_matrix((A.data[self.gather], *self.permuted), shape=A.shape)
        count, lu = _inertia(B, permc_spec="NATURAL")
        return (count, _Reordered(lu, self.order)) if count is not None \
            else (None, lu)


class _Reordered:
    """The LU of A[order][:, order] as a solver of A."""

    def __init__(self, lu, order):
        self.lu, self.order = lu, order

    def solve(self, b):
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x


def _inertia(A, **ordering):
    """(negative pivot count, LU) of the L D L' factors of symmetric A, or
    (None, reason) when the factors do not certify the count. `ordering`
    goes to `factorize`."""
    try:
        lu = factorize(A, diag_pivot_thresh=0.0, **ordering)
    except RuntimeError as exc:          # SuperLU: exactly singular
        return None, f"factorization failed: {exc}"
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, "off-diagonal pivot"
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = lu.solve(b)
    err = np.max(np.abs(b - A @ x)) / (spla.norm(A, np.inf) * np.max(np.abs(x))
                                       + np.max(np.abs(b)))
    if not err <= BACKWARD_TOL:
        return None, f"backward error {err:.1e}"
    return int(np.sum(lu.U.diagonal() < 0)), lu


def _shift_invert_count(A, B):
    """Eigenvalues of (A, B) below zero by shift-invert Lanczos on one LU of
    A, widening the window until it holds them all; None when it fails."""
    n = A.shape[0]
    tol = 1e-10
    try:
        lu = factorize(A)
    except RuntimeError as exc:
        logger.warning("factorizing the reduced pencil failed: %s", exc)
        return None
    OPinv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    k = 16
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    while True:
        k = min(k, n - 2)
        try:
            w = spla.eigsh(A, k=k, M=B, sigma=0.0, which="LM", v0=v0,
                           OPinv=OPinv, return_eigenvectors=False)
        except Exception as exc:
            logger.warning("shift-invert eigenvalue solve failed: %s", exc)
            return None
        neg = int(np.sum(w < -tol * max(1.0, float(np.max(np.abs(w))))))
        # the window is symmetric around 0 in |lambda|; once it reaches
        # further into the positive spectrum than the deepest negative
        # eigenvalue seen, all negatives are inside
        if neg < k and float(np.max(w)) >= abs(float(np.min(w))):
            return neg
        if k >= min(n - 2, 256):
            return neg
        k *= 2


def critical_eigenpair(mesh, u, prob, work=None, v0=None):
    """Eigenpair (mu, phi) of the reduced pencil (A, M) closest to zero, by
    inverse iteration from the nodal vector v0 (a fixed random one when
    None) until phi changes by at most INVERSE_TOL. It runs on the stability
    count's LU when the workspace's solver still holds the one of this
    state, else on a new LU of A. phi is zero at Dirichlet nodes, and its
    entry of largest modulus is 1. Raises ContinuationError when A cannot
    be factored or the iteration is not finite."""
    if work is None:
        work = FemWorkspace(mesh, prob)
    J = work.jacobian(u, prob)
    if work.solver.counted is J:
        lu = work.solver.lu
    else:
        work.solver.release()            # one LU at a time
        try:
            lu = factorize(work.pattern.reduced_symmetric(J))
        except RuntimeError as exc:
            raise ContinuationError(f"critical eigenpair solve failed: {exc}") \
                from exc
    B = work.M_free
    x = np.random.default_rng(0).standard_normal(B.shape[0]) if v0 is None \
        else v0[work.free]
    x = x / np.max(np.abs(x))
    for _ in range(INVERSE_MAX_IT):
        Bx = B @ x
        y = lu.solve(Bx)
        mu = float(y @ Bx) / float(y @ (B @ y))   # Rayleigh quotient: A y = B x
        if not math.isfinite(mu):
            raise ContinuationError("inverse iteration is not finite")
        y *= math.copysign(1.0, mu) / np.max(np.abs(y))     # keeps x's sign
        change = float(np.max(np.abs(y - x)))
        x = y
        if change <= INVERSE_TOL:
            break
    else:
        logger.warning("inverse iteration did not converge in %d steps",
                       INVERSE_MAX_IT)
    phi = np.zeros(mesh.num_nodes)
    phi[work.free] = x * math.copysign(1.0, x[np.argmax(np.abs(x))])
    return mu, phi


def make_record(state, work, n_neg=None, flag=""):
    u = state.u
    return BranchRecord(step=state.step_index,
                        param_name=state.prob.active_param,
                        param_value=float(state.prob.get_param()),
                        l2=fem.l2_norm(state.mesh, u, M=work.M),
                        min_u=float(np.min(u)),
                        max_u=float(np.max(u)),
                        np=state.mesh.num_nodes,
                        n_neg=n_neg,
                        flag=flag)


def detect_bifurcation(prev_state, prev_n_neg, new_state, new_n_neg, ds_used,
                       settings, work):
    """Localize an eigenvalue crossing between two consecutive accepted
    states on mu(s), the eigenvalue of the reduced pencil nearest 0 at
    arclength s along the previous tangent, whose sign change is the count
    change (Govaerts 2000; Seydel 2010). mu comes from `critical_eigenpair`
    on the LU of each point's count; at the previous state, which has none,
    it is the Rayleigh quotient of the new state's eigenvector. Steps are
    Illinois regula falsi in s, or bisection when the count changed by more
    than 1 or disagrees with the sign of mu at a bracket end. The search
    stops when the parameter bracket, or |mu| over the secant slope dmu/dp,
    is below `bp_param_tol`. The event reports the last corrected point, as
    `approximate` when a corrector, count or eigensolve fails first."""
    t, n, mesh = prev_state.tangent, len(prev_state.u), prev_state.mesh
    base_u, base_p = prev_state.u, prev_state.prob.get_param()
    sign = 1.0 if new_n_neg > prev_n_neg else -1.0     # the sign of mu at s = 0
    mu, phi = critical_eigenpair(mesh, new_state.u, new_state.prob, work)
    w = phi[work.free]
    mu_lo = float(w @ (_reduced_symmetric(work, base_u, prev_state.prob) @ w)
                  / (w @ (work.M_free @ w)))
    # bracket ends: s, param, Illinois-scaled mu, mu's sign agrees with count
    ends = [[0.0, base_p, mu_lo, sign * mu_lo >= 0],
            [ds_used, new_state.prob.get_param(), mu, sign * mu <= 0]]
    last, point = (base_p, mu_lo), (new_state.u, new_state.prob, mu, phi)
    kept, reason = None, "no convergence in 60 steps"
    for _ in range(60):
        (s_lo, p_lo, f_lo, ok_lo), (s_hi, p_hi, f_hi, ok_hi) = ends
        p, mu = point[1].get_param(), point[2]
        if abs(p_hi - p_lo) < settings.bp_param_tol or (ok_lo and ok_hi and (
                abs(mu * (p - last[0])) < settings.bp_param_tol
                * abs(mu - last[1]))):
            reason = None
            break
        s = 0.5 * (s_lo + s_hi)
        if abs(new_n_neg - prev_n_neg) == 1 and ok_lo and ok_hi and f_lo != f_hi:
            s_rf = s_lo - f_lo * (s_hi - s_lo) / (f_hi - f_lo)
            s = s_rf if s_lo < s_rf < s_hi else s
        u, p_s, _, ok = _correct(work, prev_state.prob, base_u + s * t[:n],
                                 base_p + s * float(t[n]), base_u, base_p, t,
                                 s, settings.newton_tol, settings.newton_max_it)
        prob = prev_state.prob.copy()
        prob.set_param(p_s)
        count = stability_index(mesh, u, prob, work) if ok else None
        if count is None:
            reason = "stability count failed" if ok else "corrector failed"
            break
        try:
            mu_s, phi = critical_eigenpair(mesh, u, prob, work, phi)
        except ContinuationError as exc:
            reason = str(exc)
            break
        last, point = (p, mu), (u, prob, mu_s, phi)
        side = int(count != prev_n_neg)
        ends[side] = [s, p_s, mu_s, sign * mu_s >= 0 if side == 0
                      else count == new_n_neg and sign * mu_s <= 0]
        if kept == 1 - side:
            ends[kept][2] *= 0.5        # Illinois: an end kept twice
        kept = 1 - side
    if reason is not None:
        logger.warning("branch point localization stopped (%s); reporting "
                       "the last corrected point as approximate", reason)
    u_bp, prob_bp, _, phi = point
    return BPEvent(step=new_state.step_index, param=float(prob_bp.get_param()),
                   u=u_bp, mesh=mesh, phi=phi, n_neg_before=prev_n_neg,
                   n_neg_after=new_n_neg, approximate=reason is not None)


def branch_switch(state, phi, settings, work=None, delta=None):
    """Start a new branch at a branch point along the critical eigenvector.

    The predictor is u + delta*phi at fixed parameter; the corrector works in
    the hyperplane through the predictor orthogonal to (phi, 0). Retries with
    -delta and 2*delta before giving up; the corrected point must be farther
    than 10*newton_tol from the branch point.
    """
    if work is None:
        work = FemWorkspace(state.mesh, state.prob)
    if delta is None:
        delta = settings.switch_delta * max(1.0, float(np.max(np.abs(state.u))))
    if delta == 0:
        raise ValueError("branch switch predictor offset must be nonzero")
    n = len(state.u)
    phi = np.asarray(phi, dtype=float)
    t = np.concatenate([phi, [0.0]])
    nrm = work.norm(phi, 0.0)
    if nrm <= 0:
        raise ContinuationError("critical eigenvector has zero norm")
    t /= nrm
    p0 = state.prob.get_param()
    for trial in (delta, -delta, 2.0 * delta):
        u_pred = state.u + trial * phi
        u, p, _, ok = _correct(work, state.prob, u_pred, p0, u_pred, p0,
                               t, 0.0, settings.newton_tol,
                               settings.newton_max_it)
        if not ok:
            continue
        if float(np.max(np.abs(u - state.u))) <= 10.0 * settings.newton_tol:
            continue                        # corrector fell back onto the old branch
        prob = state.prob.copy()
        prob.set_param(p)
        new_state = ContinuationState(state.mesh, u, prob, None, 0, settings.ds0)
        sign = 1.0 if trial > 0 else -1.0
        new_state.tangent = compute_tangent(work, u, prob, sign * t)
        return new_state
    raise ContinuationError("branch switching failed: corrector kept returning "
                            "to the known branch")


def adapt_in_cont(state, settings, trop, trcop, work, pre_flag="",
                  with_n_neg=False, n_neg=None):
    """Adapt the mesh and re-solve, `ngen` times; emits branch records before
    and after so jumps across the adaptation are measurable. Rolls back to the
    pre-adaptation state when the adaptation raises AdaptationError or Newton
    fails on the new mesh.

    `n_neg` is the stability index of `state` when the caller has it; with
    `with_n_neg` a missing one is computed, and so is the re-solved state's.
    Each workspace left behind drops its LU and its remembered Jacobian
    before the adaptation (`FemWorkspace.release`), so neither is alive
    beside the new mesh's assembly and LU; the tangent on the new mesh
    refines on the LU that Newton left in the new workspace's solver.
    """
    if with_n_neg and n_neg is None:
        n_neg = stability_index(state.mesh, state.u, state.prob, work)
    records = [make_record(state, work, n_neg=n_neg, flag=pre_flag)]
    cur, cur_work = state, work
    for _ in range(settings.ngen):
        cur_work.release()
        try:
            mesh2, u2, _ = two_step_adapt(cur.mesh, cur.u, trop, trcop)
        except AdaptationError as exc:
            logger.warning("mesh adaptation failed (%s); continuing on the "
                           "previous mesh", exc)
            return state, records, work, False
        # interpolated first: its temporaries are freed before Newton's LU,
        # which the tangent below reuses, is made
        tangent_guess = np.concatenate([
            interpolate(cur.mesh, cur.tangent[:len(cur.u)], mesh2),
            [cur.tangent[-1]]])
        work2 = FemWorkspace(mesh2, cur.prob)
        result = newton_solve(mesh2, u2, cur.prob, settings.newton_tol,
                              settings.newton_max_it, work2)
        if not result.converged:
            logger.warning("Newton failed after mesh adaptation (residual %g); "
                           "continuing on the previous mesh", result.residual_norm)
            return state, records, work, False
        cur = ContinuationState(mesh2, result.u, cur.prob.copy(), None,
                                cur.step_index, cur.ds)
        cur_work = work2
        cur.tangent = compute_tangent(work2, cur.u, cur.prob, tangent_guess)
    n_neg = stability_index(cur.mesh, cur.u, cur.prob, cur_work) \
        if with_n_neg else None
    records.append(make_record(cur, cur_work, n_neg=n_neg, flag="ADAPT"))
    return cur, records, cur_work, True


def run_continuation(state, settings, trop=None, trcop=None, direction=1,
                     on_record=None, on_event=None):
    """Drive the continuation loop; returns a RunResult.

    Each step is `cont_step`'s corrector, the stability count (with
    detection on), whose LU the tangent then refines on, and the new
    state's tangent. `direction` orients the very first tangent along +/-
    the active parameter axis. `on_record(record, state)` fires for every
    emitted branch record, `on_event(event, state)` for branch points and
    folds.
    """
    work = FemWorkspace(state.mesh, state.prob)
    result = newton_solve(state.mesh, state.u, state.prob, settings.newton_tol,
                          settings.newton_max_it, work)
    if not result.converged:
        logger.error("initial Newton solve failed (residual %g)",
                     result.residual_norm)
        return RunResult([], [], state, "initial newton failed")
    state = replace(state, u=result.u, ds=settings.ds0)
    n_neg = stability_index(state.mesh, state.u, state.prob, work) \
        if settings.bif_detection else None
    if state.tangent is None:
        seed = np.zeros(len(state.u) + 1)
        seed[-1] = 1.0 if direction >= 0 else -1.0
        state.tangent = compute_tangent(work, state.u, state.prob, seed)
    records = []
    events = []

    def emit(rec, st):
        records.append(rec)
        if on_record:
            on_record(rec, st)

    emit(make_record(state, work, n_neg=n_neg), state)
    stop_reason = "nsteps reached"
    while state.step_index < settings.nsteps:
        prev_state, prev_n_neg = state, n_neg
        new_state, info = cont_step(state, settings, work)
        if new_state is None:
            stop_reason = info.get("reason", "step failed")
            logger.warning("continuation stopped: %s", stop_reason)
            break
        state = new_state
        n_neg = stability_index(state.mesh, state.u, state.prob, work) \
            if settings.bif_detection else None
        state.tangent = compute_tangent(work, state.u, state.prob,
                                        prev_state.tangent)
        # a fold turns the parameter component of the tangent around; the one
        # eigenvalue passing zero there changes n_neg by exactly 1, which is
        # the fold itself, not a branch point
        tp_prev, tp_new = float(prev_state.tangent[-1]), float(state.tangent[-1])
        fold = tp_prev * tp_new < 0 and max(abs(tp_prev), abs(tp_new)) > 1e-12
        flag = "FP" if fold else ""
        if (settings.bif_detection and prev_n_neg is not None
                and n_neg is not None and n_neg != prev_n_neg
                and not (fold and abs(n_neg - prev_n_neg) == 1)):
            bp = detect_bifurcation(prev_state, prev_n_neg, state, n_neg,
                                    info["ds_used"], settings, work)
            events.append(bp)
            if on_event:
                on_event(bp, state)
            bp_prob = prev_state.prob.copy()
            bp_prob.set_param(bp.param)
            bp_state = ContinuationState(prev_state.mesh, bp.u, bp_prob, None,
                                         state.step_index, state.ds)
            emit(make_record(bp_state, work, n_neg=prev_n_neg, flag="BP"),
                 bp_state)
        if fold:
            fp = FoldEvent(state.step_index, float(state.prob.get_param()))
            events.append(fp)
            if on_event:
                on_event(fp, state)
        adapt_due = (settings.amod > 0 and trop is not None
                     and state.step_index % settings.amod == 0)
        if adapt_due:
            pre_state = state
            state, adapt_records, work, _ = adapt_in_cont(
                state, settings, trop, trcop, work, pre_flag=flag,
                with_n_neg=settings.bif_detection, n_neg=n_neg)
            emit(adapt_records[0], pre_state)
            for rec in adapt_records[1:]:
                emit(rec, state)
            n_neg = adapt_records[-1].n_neg
        else:
            emit(make_record(state, work, n_neg=n_neg, flag=flag), state)
        p = float(state.prob.get_param())
        if settings.param_max is not None and p > settings.param_max:
            stop_reason = "param_max reached"
            break
        if settings.param_min is not None and p < settings.param_min:
            stop_reason = "param_min reached"
            break
    return RunResult(records, events, state, stop_reason)


def write_branch_csv(path, records):
    with open(path, "w") as f:
        f.write(branch_csv_header() + "\n")
        for rec in records:
            f.write(branch_csv_row(rec) + "\n")


def branch_csv_header():
    return "step,param_name,param_value,l2,min_u,max_u,np,n_neg,flag"


def branch_csv_row(rec):
    n_neg = "" if rec.n_neg is None else str(int(rec.n_neg))
    return (f"{rec.step},{rec.param_name},{rec.param_value:.12g},{rec.l2:.12g},"
            f"{rec.min_u:.12g},{rec.max_u:.12g},{rec.np},{n_neg},{rec.flag}")
