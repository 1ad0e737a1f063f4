"""P1 finite elements for the scalar cubic-quintic Allen-Cahn operator.

Residual G(u) = K u - M (lam*u + u^3 - gamma*u^5) with the nonlinearity
evaluated nodally (group FEM) and Dirichlet rows replaced by u_i - g_i, so
parameter-dependent boundary profiles are rebuilt on every call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import signed_volumes

PROFILE_ZERO = "zero"
PROFILE_COS_HALF = "cos_half"
PROFILE_GAUSS_SPOT = "gauss_spot"


@dataclass(frozen=True)
class BoundaryCondition:
    """Per-segment boundary condition: homogeneous Neumann or Dirichlet."""

    kind: str                 # "dirichlet" | "neumann"
    profile: str | None = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown bc kind '{self.kind}'")
        if self.kind == "dirichlet" and self.profile not in (
                PROFILE_ZERO, PROFILE_COS_HALF, PROFILE_GAUSS_SPOT):
            raise ValueError(f"unknown boundary profile '{self.profile}'")


def dirichlet(profile=PROFILE_ZERO):
    return BoundaryCondition("dirichlet", profile)


def neumann():
    return BoundaryCondition("neumann")


@dataclass
class ProblemDef:
    """Parameters and boundary conditions of the cubic-quintic problem."""

    c: float = 1.0
    lam: float = 0.0
    gamma: float = 1.0
    aux: dict = field(default_factory=dict)     # e.g. {"d": 0.0} or {"xi": 0.0}
    active_param: str = "lambda"
    bc: dict = field(default_factory=dict)      # segment id -> BoundaryCondition

    _ATTR = {"lambda": "lam", "gamma": "gamma", "c": "c"}

    def __post_init__(self):
        if self.active_param not in self._ATTR and self.active_param not in self.aux:
            raise ValueError(f"active_param '{self.active_param}' names no parameter")

    def get_param(self, name=None):
        name = name or self.active_param
        if name in self._ATTR:
            return getattr(self, self._ATTR[name])
        return self.aux[name]

    def set_param(self, value, name=None):
        name = name or self.active_param
        if name in self._ATTR:
            setattr(self, self._ATTR[name], float(value))
        elif name in self.aux:
            self.aux[name] = float(value)
        else:
            raise ValueError(f"unknown parameter '{name}'")

    def copy(self):
        return ProblemDef(self.c, self.lam, self.gamma, dict(self.aux),
                          self.active_param, dict(self.bc))

    def check_bc(self, mesh):
        missing = [seg for seg in mesh.segment_map.ids() if seg not in self.bc]
        if missing:
            raise ValueError(f"missing boundary conditions for segments {missing}")


def eval_boundary_profile(profile, point, aux, dim=2):
    """Evaluate a Dirichlet boundary profile at a boundary point.

    GaussSpot reads the current spot position xi from `aux` on every call;
    nothing is cached across parameter changes.
    """
    if profile == PROFILE_ZERO:
        return 0.0
    if profile == PROFILE_COS_HALF:
        if dim != 2:
            raise ValueError("cos_half profile is 2D only")
        return float(aux.get("d", 0.0)) * np.cos(point[1] / 2.0)
    if profile == PROFILE_GAUSS_SPOT:
        xi = float(aux.get("xi", 0.0))
        val = -((point[0] - xi) ** 2)
        if dim == 3:
            val -= point[2] ** 2
        return float(np.exp(val))
    raise ValueError(f"unknown boundary profile '{profile}'")


def p1_element_gradients(mesh):
    """Gradients of the barycentric basis functions, shape (ne, d+1, d)."""
    nodes, elements = mesh.nodes, mesh.elements
    d = mesh.dim
    p0 = nodes[elements[:, 0]]
    T = nodes[elements[:, 1:]] - p0[:, None, :]       # rows = edge vectors
    Tinv = np.linalg.inv(T)                           # columns give grads of lam_1..d
    grads = np.empty((len(elements), d + 1, d))
    grads[:, 1:, :] = np.transpose(Tinv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads


def _check_volumes(mesh):
    vols = signed_volumes(mesh.nodes, mesh.elements)
    bad = np.nonzero(vols <= 0)[0]
    if bad.size:
        raise RuntimeError(f"assembly on inverted/degenerate element(s) {bad[:5].tolist()}"
                           f"{'...' if bad.size > 5 else ''}")
    return vols


def assemble_stiffness(mesh, c=1.0):
    """P1 stiffness matrix of c * grad(u) . grad(v), CSR, before BC treatment."""
    if c <= 0:
        raise ValueError("diffusion coefficient must be positive")
    vols = _check_volumes(mesh)
    grads = p1_element_gradients(mesh)
    nv = mesh.dim + 1
    local = c * vols[:, None, None] * np.einsum("eik,ejk->eij", grads, grads)
    rows = np.repeat(mesh.elements, nv, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nv)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.num_nodes, mesh.num_nodes))
    return K.tocsr()


def assemble_mass(mesh):
    """Consistent P1 mass matrix, CSR; entries sum to the domain volume."""
    vols = _check_volumes(mesh)
    d = mesh.dim
    nv = d + 1
    base = (np.ones((nv, nv)) + np.eye(nv)) / ((nv) * (nv + 1))
    local = vols[:, None, None] * base[None, :, :]
    rows = np.repeat(mesh.elements, nv, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nv)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.num_nodes, mesh.num_nodes))
    return M.tocsr()


def lumped_mass(mesh):
    """Row-sum lumped mass vector."""
    vols = _check_volumes(mesh)
    m = np.zeros(mesh.num_nodes)
    np.add.at(m, mesh.elements.ravel(),
              np.repeat(vols / (mesh.dim + 1), mesh.dim + 1))
    return m


def boundary_profile_values(profile, points, aux, dim=2):
    """Array form of `eval_boundary_profile` at the rows of `points`."""
    points = np.asarray(points, dtype=float)
    if profile == PROFILE_ZERO:
        return np.zeros(len(points))
    if profile == PROFILE_COS_HALF:
        if dim != 2:
            raise ValueError("cos_half profile is 2D only")
        return float(aux.get("d", 0.0)) * np.cos(points[:, 1] / 2.0)
    if profile == PROFILE_GAUSS_SPOT:
        return np.exp(_spot_exponent(points, aux, dim))
    raise ValueError(f"unknown boundary profile '{profile}'")


def boundary_profile_dparam(profile, points, aux, name, dim=2):
    """Derivative of a boundary profile in the parameter `name` at the rows
    of `points`; zero for parameters the profile does not read."""
    points = np.asarray(points, dtype=float)
    if profile == PROFILE_COS_HALF and name == "d":
        if dim != 2:
            raise ValueError("cos_half profile is 2D only")
        return np.cos(points[:, 1] / 2.0)
    if profile == PROFILE_GAUSS_SPOT and name == "xi":
        xi = float(aux.get("xi", 0.0))
        return 2.0 * (points[:, 0] - xi) * np.exp(_spot_exponent(points, aux, dim))
    if profile not in (PROFILE_ZERO, PROFILE_COS_HALF, PROFILE_GAUSS_SPOT):
        raise ValueError(f"unknown boundary profile '{profile}'")
    return np.zeros(len(points))


def _spot_exponent(points, aux, dim):
    val = -(points[:, 0] - float(aux.get("xi", 0.0))) ** 2
    if dim == 3:
        val -= points[:, 2] ** 2
    return val


def dirichlet_info(mesh, prob):
    """Dirichlet node indices and their profiles, grouped by profile.

    Returns `(idx, groups)`: `groups` maps each profile name to the
    positions in `idx` of the nodes that take it. A node on several segments
    is Dirichlet as soon as one of them is; among its Dirichlet segments the
    lowest id supplies the profile, so Dirichlet data wins over Neumann at
    corners.
    """
    prob.check_bc(mesh)
    idx, profiles = [], []
    for i, flags in enumerate(mesh.boundary_node_flags):
        dsegs = sorted(s for s in flags if prob.bc[s].kind == "dirichlet")
        if dsegs:
            idx.append(i)
            profiles.append(prob.bc[dsegs[0]].profile)
    profiles = np.array(profiles, dtype=object)
    groups = {p: np.flatnonzero(profiles == p) for p in dict.fromkeys(profiles)}
    return np.array(idx, dtype=np.int64), groups


def dirichlet_values(mesh, prob, idx=None, groups=None):
    """Current Dirichlet values g_i; recomputed from `prob.aux` on every call."""
    if idx is None:
        idx, groups = dirichlet_info(mesh, prob)
    g = np.zeros(len(idx))
    for profile, pos in groups.items():
        g[pos] = boundary_profile_values(profile, mesh.nodes[idx[pos]],
                                         prob.aux, mesh.dim)
    return g


def dirichlet_dparam(mesh, prob, idx, groups, name):
    """Derivative of the Dirichlet values in the parameter `name`."""
    dg = np.zeros(len(idx))
    for profile, pos in groups.items():
        dg[pos] = boundary_profile_dparam(profile, mesh.nodes[idx[pos]],
                                          prob.aux, name, mesh.dim)
    return dg


def nonlinearity(u, prob):
    return prob.lam * u + u ** 3 - prob.gamma * u ** 5


def nonlinearity_prime(u, prob):
    return prob.lam + 3.0 * u ** 2 - 5.0 * prob.gamma * u ** 4


def residual(mesh, u, prob, K=None, M=None, dir_idx=None, dir_groups=None):
    """Nodal residual with Dirichlet rows replaced by u_i - g_i."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise ValueError(f"u has length {u.shape}, mesh has {mesh.num_nodes} nodes")
    if K is None:
        K = assemble_stiffness(mesh, prob.c)
    if M is None:
        M = assemble_mass(mesh)
    G = K @ u - M @ nonlinearity(u, prob)
    if dir_idx is None:
        dir_idx, dir_groups = dirichlet_info(mesh, prob)
    if dir_idx.size:
        g = dirichlet_values(mesh, prob, dir_idx, dir_groups)
        G[dir_idx] = u[dir_idx] - g
    return G


def jacobian(mesh, u, prob, K=None, M=None, dir_idx=None):
    """Sparse Jacobian of `residual`; Dirichlet rows are identity rows."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise ValueError(f"u has length {u.shape}, mesh has {mesh.num_nodes} nodes")
    if K is None:
        K = assemble_stiffness(mesh, prob.c)
    if M is None:
        M = assemble_mass(mesh)
    n = mesh.num_nodes
    J = (K - M @ sp.diags(nonlinearity_prime(u, prob))).tocsr()
    if dir_idx is None:
        dir_idx, _ = dirichlet_info(mesh, prob)
    if dir_idx.size:
        free = np.ones(n)
        free[dir_idx] = 0.0
        fixed = np.zeros(n)
        fixed[dir_idx] = 1.0
        J = (sp.diags(free) @ J + sp.diags(fixed)).tocsr()
    return J


def l2_norm(mesh, u, M=None):
    """Domain-averaged L2 norm sqrt(u' M u / |Omega|)."""
    u = np.asarray(u, dtype=float)
    if M is None:
        M = assemble_mass(mesh)
    vol = float(np.prod(mesh.box[:, 1] - mesh.box[:, 0]))
    return float(np.sqrt(max(u @ (M @ u), 0.0) / vol))
