"""Pseudo-arclength continuation with eigenvalue-based bifurcation detection,
branch switching, and mesh adaptation every `amod` accepted steps.

The arclength inner product between increments (du, dp) is
xi_w * du' M du / |Omega| + (1 - xi_w) * dp^2 with xi_w = 0.5, so tangents
and step constraints balance the field and parameter components.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .adapt import AdaptationError, two_step_adapt
from .mesh import interpolate

logger = logging.getLogger(__name__)

XI_WEIGHT = 0.5
DENSE_EIG_LIMIT = 3000
BACKWARD_TOL = 1e-12          # accepted normwise backward error of a bordered solve
NUDGE = 1e-10                 # last-resort diagonal shift of a singular tangent system


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
    bp_param_tol: float = 1e-4    # bisection bracket width for branch points
    switch_delta: float = 0.1

    def __post_init__(self):
        if not self.ds_min <= self.ds0 <= self.ds_max:
            raise ValueError("need ds_min <= ds0 <= ds_max")
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
    """Caches the mesh-bound matrices used by repeated residual/Jacobian calls."""

    def __init__(self, mesh, prob):
        self.mesh = mesh
        self.K1 = fem.assemble_stiffness(mesh, 1.0)
        self.M = fem.assemble_mass(mesh)
        self.dir_idx, self.dir_groups = fem.dirichlet_info(mesh, prob)
        self.domain_vol = float(np.prod(mesh.box[:, 1] - mesh.box[:, 0]))
        self.free = np.ones(mesh.num_nodes, dtype=bool)
        self.free[self.dir_idx] = False
        self._K_cache = (None, None)

    def K(self, c):
        if self._K_cache[0] != c:
            self._K_cache = (c, (c * self.K1).tocsr())
        return self._K_cache[1]

    def residual(self, u, prob):
        return fem.residual(self.mesh, u, prob, K=self.K(prob.c), M=self.M,
                            dir_idx=self.dir_idx, dir_groups=self.dir_groups)

    def jacobian(self, u, prob):
        return fem.jacobian(self.mesh, u, prob, K=self.K(prob.c), M=self.M,
                            dir_idx=self.dir_idx)

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


def factorize(A):
    """Sparse LU for repeated solves: minimum-degree ordering of A' + A with
    symmetric-mode threshold pivoting (README, "Linear solves")."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1, options={"SymmetricMode": True})


class BorderedSolver:
    """One LU of J shared by plain solves and solves with the arclength
    border.

    `solve_bordered(g, r, c, f, h)` solves [[J, g], [r', c]] [x; y] = [f; h]
    by block elimination with J's factors: v = J^-1 g and w = J^-1 f (two
    back-solves), y = (h - r.w) / (c - r.v), x = w - y v. Near a singular J
    this loses accuracy, so its normwise backward error is checked: one step
    of iterative refinement comes first, then one LU of the full bordered
    matrix, and with `nudge` that matrix plus 1e-10 I as the last resort.
    `refinements` and `fallbacks` count the refinement steps and full LUs.
    """

    def __init__(self, J):
        self.J = sp.csc_matrix(J)
        self.refinements = self.fallbacks = 0
        try:
            self.lu, self.error = factorize(self.J), None
        except RuntimeError as exc:          # SuperLU: exactly singular
            self.lu, self.error = None, exc

    def solve(self, f):
        if self.lu is None:
            raise RuntimeError(f"cannot solve with a singular matrix: {self.error}")
        return self.lu.solve(np.asarray(f, dtype=float))

    def solve_bordered(self, g, r, c, f, h, nudge=False):
        """Returns (x, y); raises RuntimeError when every fallback fails."""
        if self.lu is not None:
            vw = self.lu.solve(np.column_stack([g, f]))
            v = vw[:, 0]
            s = c - float(r @ v)
            if s != 0.0 and np.isfinite(s):
                a_norm = max(spla.norm(self.J, np.inf) + np.max(np.abs(g)),
                             np.sum(np.abs(r)) + abs(c))
                b_norm = max(np.max(np.abs(f)), abs(h))
                x, y = _eliminate(v, s, vw[:, 1], r, h)
                for refine in (True, False):
                    rx = f - (self.J @ x + g * y)
                    ry = h - (float(r @ x) + c * y)
                    err = max(np.max(np.abs(rx)), abs(ry))
                    if not np.isfinite(err):
                        break
                    if err <= BACKWARD_TOL * (a_norm * max(np.max(np.abs(x)), abs(y))
                                              + b_norm):
                        return x, y
                    if refine:
                        self.refinements += 1
                        dx, dy = _eliminate(v, s, self.lu.solve(rx), r, ry)
                        x, y = x + dx, y + dy
        return self._solve_full(g, r, c, f, h, nudge)

    def _solve_full(self, g, r, c, f, h, nudge):
        n = len(f)
        A = sp.bmat([[self.J, sp.csc_matrix(np.asarray(g, dtype=float)[:, None])],
                     [sp.csr_matrix(np.asarray(r, dtype=float)[None, :]),
                      sp.csr_matrix([[c]])]],
                    format="csc")
        rhs = np.append(f, h)
        self.fallbacks += 1
        for shift in (0.0, NUDGE) if nudge else (0.0,):
            try:
                z = factorize(A + shift * sp.eye(n + 1, format="csc")).solve(rhs)
            except RuntimeError:
                continue
            if np.all(np.isfinite(z)):
                return z[:n], float(z[n])
        raise RuntimeError("bordered system is singular")


def _eliminate(v, s, w, r, h):
    y = (h - float(r @ w)) / s
    return w - y * v, y


def newton_solve(mesh, u0, prob, tol=1e-8, max_it=10, work=None):
    """Full-step Newton on the residual; returns a NewtonResult."""
    if work is None:
        work = FemWorkspace(mesh, prob)
    u = np.array(u0, dtype=float, copy=True)
    if u.shape != (mesh.num_nodes,):
        raise ValueError("initial guess length does not match node count")
    res_norm = np.inf
    for k in range(max_it + 1):
        G = work.residual(u, prob)
        res_norm = float(np.max(np.abs(G))) if G.size else 0.0
        if res_norm <= tol:
            return NewtonResult(u, k, res_norm, True)
        if k == max_it:
            break
        J = work.jacobian(u, prob)
        try:
            du = BorderedSolver(J).solve(-G)
        except Exception as exc:
            logger.warning("Newton linear solve failed: %s", exc)
            return NewtonResult(u, k, res_norm, False)
        if not np.all(np.isfinite(du)):
            logger.warning("Newton produced non-finite update (singular Jacobian?)")
            return NewtonResult(u, k, res_norm, False)
        u += du
    return NewtonResult(u, max_it, res_norm, False)


def compute_tangent(work, u, prob, prev_tangent):
    """Unit branch tangent from the bordered system, oriented along the
    previous tangent."""
    n = len(u)
    tu_prev, tp_prev = prev_tangent[:n], float(prev_tangent[n])
    row_u, row_p = work.border(tu_prev, tp_prev)
    solver = BorderedSolver(work.jacobian(u, prob))
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


def _correct(work, prob, u_pred, p_pred, base_u, base_p, tangent, ds, tol, max_it):
    """Newton on the extended system {G = 0, <t, x - base> = ds}."""
    n = len(u_pred)
    tu, tp = tangent[:n], float(tangent[n])
    row_u, row_p = work.border(tu, tp)
    u = np.array(u_pred, dtype=float, copy=True)
    p = float(p_pred)
    pr = prob.copy()
    iters = 0
    for k in range(max_it + 1):
        pr.set_param(p)
        G = work.residual(u, pr)
        r2 = work.inner(u - base_u, p - base_p, tu, tp) - ds
        if float(np.max(np.abs(G))) <= tol and abs(r2) <= tol:
            return u, p, k, True
        if k == max_it:
            break
        solver = BorderedSolver(work.jacobian(u, pr))
        try:
            du, dp = solver.solve_bordered(work.dresidual_dparam(u, pr), row_u,
                                           row_p, -G, -r2)
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
    (stepsize underflow). On success the stepsize grows by 1.3 when the
    corrector needed at most 3 Newton iterations.
    """
    t = state.tangent
    n = len(state.u)
    base_u = state.u
    base_p = state.prob.get_param()
    ds = state.ds
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
            new_state.tangent = compute_tangent(work, u, prob, t)
            return new_state, {"ds_used": ds, "newton_iters": iters}
        ds *= 0.5
        if ds < settings.ds_min:
            return None, {"reason": "stepsize underflow", "ds": ds}


def _reduced_pencil(work, u, prob):
    J = work.jacobian(u, prob)
    free = work.free
    A = J[free][:, free]
    A = (A + A.T) * 0.5
    B = work.M[free][:, free]
    return A.tocsc(), B.tocsc()


def _shift_invert(A):
    """A^-1 as an operator for shift-invert Lanczos at sigma = 0, factored
    once with `factorize` and reused by every eigsh call on the pencil."""
    lu = factorize(A)
    return spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)


def stability_index(mesh, u, prob, work=None):
    """Count of negative eigenvalues of the Dirichlet-reduced pencil (J, M).

    Dense generalized solve below 3000 unknowns, shift-invert Lanczos around
    zero above. Returns None when the factorization or the eigensolver fails.
    """
    if work is None:
        work = FemWorkspace(mesh, prob)
    A, B = _reduced_pencil(work, u, prob)
    n = A.shape[0]
    if n == 0:
        return 0
    tol = 1e-10
    if n <= DENSE_EIG_LIMIT:
        try:
            w = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True)
        except Exception as exc:
            logger.warning("dense eigenvalue solve failed: %s", exc)
            return None
        return int(np.sum(w < -tol * max(1.0, float(np.max(np.abs(w))))))
    try:
        OPinv = _shift_invert(A)
    except RuntimeError as exc:
        logger.warning("factorizing the reduced pencil failed: %s", exc)
        return None
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


def critical_eigenpair(mesh, u, prob, work=None):
    """Eigenpair of the reduced pencil closest to zero; eigenvector embedded
    with zeros at Dirichlet nodes. Raises ContinuationError when the
    eigensolve fails."""
    if work is None:
        work = FemWorkspace(mesh, prob)
    A, B = _reduced_pencil(work, u, prob)
    n = A.shape[0]
    try:
        if n <= DENSE_EIG_LIMIT:
            w, V = scipy.linalg.eigh(A.toarray(), B.toarray())
            j = int(np.argmin(np.abs(w)))
            val, vec = float(w[j]), V[:, j]
        else:
            rng = np.random.default_rng(0)
            w, V = spla.eigsh(A, k=1, M=B, sigma=0.0, which="LM",
                              v0=rng.standard_normal(n), OPinv=_shift_invert(A))
            val, vec = float(w[0]), V[:, 0]
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise ContinuationError(f"critical eigenpair solve failed: {exc}") from exc
    phi = np.zeros(mesh.num_nodes)
    phi[work.free] = vec
    nrm = float(np.max(np.abs(phi)))
    if nrm > 0:
        phi /= nrm
    return val, phi


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
    states by bisection in arclength along the previous tangent."""
    t = prev_state.tangent
    n = len(prev_state.u)
    base_u, base_p = prev_state.u, prev_state.prob.get_param()

    def solve_at(s):
        u_pred = base_u + s * t[:n]
        p_pred = base_p + s * float(t[n])
        u, p, _, ok = _correct(work, prev_state.prob, u_pred, p_pred, base_u,
                               base_p, t, s, settings.newton_tol,
                               settings.newton_max_it)
        if not ok:
            return None
        pr = prev_state.prob.copy()
        pr.set_param(p)
        return u, p, pr

    lo, hi = 0.0, ds_used
    p_lo, p_hi = base_p, new_state.prob.get_param()
    n_lo = prev_n_neg
    mid_sol = (new_state.u, p_hi, new_state.prob)
    approximate = True
    for _ in range(60):
        if abs(p_hi - p_lo) < settings.bp_param_tol:
            approximate = False
            break
        s = 0.5 * (lo + hi)
        sol = solve_at(s)
        if sol is None:
            logger.warning("branch point bisection corrector failed; "
                           "reporting approximate location")
            break
        u_mid, p_mid, prob_mid = sol
        n_mid = stability_index(prev_state.mesh, u_mid, prob_mid, work)
        if n_mid is None:
            break
        mid_sol = sol
        if n_mid == n_lo:
            lo, p_lo = s, p_mid
        else:
            hi, p_hi = s, p_mid
    u_bp, p_bp, prob_bp = mid_sol
    _, phi = critical_eigenpair(prev_state.mesh, u_bp, prob_bp, work)
    return BPEvent(step=new_state.step_index, param=0.5 * (p_lo + p_hi),
                   u=u_bp, mesh=prev_state.mesh, phi=phi,
                   n_neg_before=prev_n_neg, n_neg_after=new_n_neg,
                   approximate=approximate)


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
                  with_n_neg=False):
    """Adapt the mesh and re-solve, `ngen` times; emits branch records before
    and after so jumps across the adaptation are measurable. Rolls back to the
    pre-adaptation state when the adaptation raises AdaptationError or Newton
    fails on the new mesh."""
    n_neg = stability_index(state.mesh, state.u, state.prob, work) \
        if with_n_neg else None
    records = [make_record(state, work, n_neg=n_neg, flag=pre_flag)]
    cur, cur_work = state, work
    for _ in range(settings.ngen):
        try:
            mesh2, u2, _ = two_step_adapt(cur.mesh, cur.u, trop, trcop)
        except AdaptationError as exc:
            logger.warning("mesh adaptation failed (%s); continuing on the "
                           "previous mesh", exc)
            return state, records, work, False
        work2 = FemWorkspace(mesh2, cur.prob)
        result = newton_solve(mesh2, u2, cur.prob, settings.newton_tol,
                              settings.newton_max_it, work2)
        if not result.converged:
            logger.warning("Newton failed after mesh adaptation (residual %g); "
                           "continuing on the previous mesh", result.residual_norm)
            return state, records, work, False
        tangent_guess = np.concatenate([
            interpolate(cur.mesh, cur.tangent[:len(cur.u)], mesh2),
            [cur.tangent[-1]]])
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

    `direction` orients the very first tangent along +/- the active
    parameter axis. `on_record(record, state)` fires for every emitted
    branch record, `on_event(event, state)` for branch points and folds.
    """
    work = FemWorkspace(state.mesh, state.prob)
    result = newton_solve(state.mesh, state.u, state.prob, settings.newton_tol,
                          settings.newton_max_it, work)
    if not result.converged:
        logger.error("initial Newton solve failed (residual %g)",
                     result.residual_norm)
        return RunResult([], [], state, "initial newton failed")
    state = replace(state, u=result.u, ds=settings.ds0)
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

    n_neg = stability_index(state.mesh, state.u, state.prob, work) \
        if settings.bif_detection else None
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
                with_n_neg=settings.bif_detection)
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
