"""P1 finite elements for the scalar cubic-quintic Allen-Cahn operator.

Residual G(u) = K u - M (lam*u + u^3 - gamma*u^5) with the nonlinearity
evaluated nodally (group FEM) and Dirichlet rows replaced by u_i - g_i, so
parameter-dependent boundary profiles are rebuilt on every call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def boundary_profile_values(profile, points, aux, dim=2):
    """A Dirichlet boundary profile at the rows of `points`.

    GaussSpot reads the current spot position xi from `aux` on every call;
    nothing is cached across parameter changes.
    """
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


def residual(mesh, u, prob, K1=None, M=None, dir_idx=None, dir_groups=None):
    """Nodal residual with Dirichlet rows replaced by u_i - g_i; `K1` is the
    unit-coefficient stiffness, scaled by `prob.c` after the product."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise ValueError(f"u has length {u.shape}, mesh has {mesh.num_nodes} nodes")
    if K1 is None:
        K1 = assemble_stiffness(mesh, 1.0)
    if M is None:
        M = assemble_mass(mesh)
    G = prob.c * (K1 @ u) - M @ nonlinearity(u, prob)
    if dir_idx is None:
        dir_idx, dir_groups = dirichlet_info(mesh, prob)
    if dir_idx.size:
        g = dirichlet_values(mesh, prob, dir_idx, dir_groups)
        G[dir_idx] = u[dir_idx] - g
    return G


def jacobian(mesh, u, prob, pattern=None):
    """Sparse Jacobian of `residual`, CSC; Dirichlet rows are identity rows.

    `pattern` is a `JacobianPattern` of this mesh's unit-coefficient
    stiffness; without it one is built for this call.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise ValueError(f"u has length {u.shape}, mesh has {mesh.num_nodes} nodes")
    if pattern is None:
        pattern = JacobianPattern(assemble_stiffness(mesh, 1.0),
                                  assemble_mass(mesh), dirichlet_info(mesh, prob)[0])
    return pattern.fill(nonlinearity_prime(u, prob), prob.c)


class JacobianPattern:
    """The CSC sparsity pattern of the Jacobian on one mesh, filled by value.

    `K` and `M` are CSR matrices on one pattern (they come from the same
    element connectivity); the Jacobian keeps their entries except the
    off-diagonals of Dirichlet rows. `fill` writes
    `c K - M diag(f')` with 1.0 on the Dirichlet diagonals straight into the
    column order that `sp.csc_matrix` of the CSR result would give, so its
    matrices are bitwise those of sparse products, row scaling and a CSC
    conversion, without any of them. All maps are int32 and each filled
    matrix shares `indices` and `indptr`, so a workspace holds one CSC
    Jacobian and no CSR copy.
    """

    def __init__(self, K, M, dir_idx):
        if not (np.array_equal(K.indptr, M.indptr)
                and np.array_equal(K.indices, M.indices)):
            raise ValueError("K and M must share one sparsity pattern")
        n = K.shape[0]
        self.K, self.M, self.shape = K, M, K.shape
        self.free = np.ones(n, dtype=bool)
        self.free[dir_idx] = False
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(K.indptr))
        keep = K.indices == rows
        keep |= self.free[rows]
        del rows
        kept = np.arange(len(keep), dtype=np.int32)[keep]     # CSR positions
        csr_ptr = np.searchsorted(kept, K.indptr).astype(np.int32)
        if not np.all(csr_ptr[1:] > csr_ptr[:-1]):
            raise ValueError("every node must belong to an element")
        # scipy's CSR -> CSC conversion, applied to the kept positions
        csc = sp.csr_matrix((np.arange(len(kept), dtype=np.int32),
                             K.indices[kept], csr_ptr), shape=self.shape).tocsc()
        self.indices, self.indptr = csc.indices, csc.indptr
        self.src = kept[csc.data]              # K/M data position per CSC entry
        self.csr_order = np.empty_like(csc.data)   # CSC position per CSR entry
        self.csr_order[csc.data] = np.arange(len(kept), dtype=np.int32)
        self.row_starts = csr_ptr[:-1]
        self.col_counts = np.diff(self.indptr)
        self.dir_pos = self.csr_order[csr_ptr[dir_idx]]
        self._sym = None

    def fill(self, fp, c):
        """The Jacobian for the nodal values `fp` of f'(u) and stiffness
        scale `c`. Exact zeros are dropped, as scipy's sparse sums drop them."""
        data = self.M.data[self.src]
        data *= np.repeat(fp, self.col_counts)
        k = self.K.data[self.src]
        if c != 1.0:
            k *= c
        np.subtract(k, data, out=data)
        data[self.dir_pos] = 1.0
        return _csc(data, self.indices, self.indptr, self.shape)

    def _on_pattern(self, J):
        return J.indptr is self.indptr

    def inf_norm(self, J):
        """`spla.norm(J, np.inf)`, bitwise: row sums of |J| in CSR order,
        without converting J. Falls back to scipy off this pattern."""
        if not self._on_pattern(J):
            return spla.norm(J, np.inf)
        return np.add.reduceat(np.abs(J.data)[self.csr_order],
                               self.row_starts).max()

    def reduced_symmetric(self, J):
        """`((A + A.T) * 0.5).tocsc()` for A, the free rows and columns of J,
        bitwise; its gather maps are built on the first call."""
        if not self._on_pattern(J):
            A = J[self.free][:, self.free]
            return ((A + A.T) * 0.5).tocsc()
        if self._sym is None:
            self._sym = self._symmetric_maps()
        p, q, indices, indptr = self._sym
        data = J.data[p]
        data += J.data[q]
        data *= 0.5
        return _csc(data, indices, indptr, (len(indptr) - 1,) * 2)

    def _symmetric_maps(self):
        """(p, q, indices, indptr): the CSC positions in J of each entry
        (i, j) of the free block and of its transpose (j, i), in the
        block's CSC order, and the block's CSC pattern. The free block's
        pattern is symmetric, so its k-th entry in CSR order is the
        transpose of its k-th entry in CSC order."""
        free = self.free
        cols = np.repeat(np.arange(len(free), dtype=np.int32), self.col_counts)
        inner = free[self.indices] & free[cols]
        del cols
        p = np.arange(len(inner), dtype=np.int32)[inner]
        q = self.csr_order[inner[self.csr_order]]
        renum = (np.cumsum(free) - 1).astype(np.int32)
        indices = renum[self.indices[p]]
        indptr = np.searchsorted(p, self.indptr[np.append(np.flatnonzero(free),
                                                          len(free))])
        return p, q, indices, indptr.astype(np.int32)


def _csc(data, indices, indptr, shape):
    """A CSC matrix on a shared sorted pattern; with exact zeros in `data`
    it gets its own index arrays, from which the zeros are dropped."""
    if data.all():
        A = sp.csc_matrix((data, indices, indptr), shape=shape)
    else:
        A = sp.csc_matrix((data, indices.copy(), indptr.copy()), shape=shape)
        A.eliminate_zeros()
    A.has_canonical_format = True
    return A


def l2_norm(mesh, u, M=None):
    """Domain-averaged L2 norm sqrt(u' M u / |Omega|)."""
    u = np.asarray(u, dtype=float)
    if M is None:
        M = assemble_mass(mesh)
    vol = float(np.prod(mesh.box[:, 1] - mesh.box[:, 0]))
    return float(np.sqrt(max(u @ (M @ u), 0.0) / vol))
