"""Anisotropic metric field from nodal scalar data.

The metric is (1/eta) * det(|H|)^(-1/(2p+d)) * |H|, where |H| is the nodal
recovered Hessian with eigenvalues replaced by their absolute values and
floored away from zero (the floor only keeps the determinant positive).
The scaled eigenvalues are then clamped from below at 1/h_max^2, so no
target size exceeds h_max; `metric_for_field` takes h_max from the mesh's
box (see `domain_h_max`). Edges measured with this metric drive adaptation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import p1_element_gradients
from .mesh import signed_volumes


@dataclass
class MetricField:
    """One symmetric positive definite d x d matrix per node."""

    tensors: np.ndarray   # (n_nodes, d, d)

    @property
    def dim(self):
        return self.tensors.shape[-1]


@dataclass(frozen=True)
class EtaPolicy:
    """Scaling factor policy; larger eta yields fewer elements to adapt.

    mode "constant" evaluates to `coefficient`; mode "linear_np" evaluates to
    `coefficient * np` so the factor tracks the current node count.
    """

    mode: str = "constant"
    coefficient: float = 1e-3

    def __post_init__(self):
        if not self.coefficient > 0:
            raise ValueError(f"eta coefficient must be > 0, got {self.coefficient}")

    @classmethod
    def constant(cls, value=1e-3):
        return cls("constant", float(value))

    @classmethod
    def linear_in_np(cls, prefactor=1e-5):
        return cls("linear_np", float(prefactor))


def eval_eta(policy, n_points):
    if n_points < 1:
        raise ValueError("node count must be >= 1")
    if policy.mode == "constant":
        eta = policy.coefficient
    elif policy.mode == "linear_np":
        eta = policy.coefficient * n_points
    else:
        raise ValueError(f"unknown eta policy mode '{policy.mode}'")
    return float(eta)


def select_field(u, selector=None):
    """Pick the scalar field driving adaptation; identity by default.

    `selector` may transform the solution (e.g. np.exp) for problems where a
    scaled field gives better metrics.
    """
    u = np.asarray(u, dtype=float)
    if selector is None:
        return u
    return np.asarray(selector(u), dtype=float)


def recover_hessian(mesh, z):
    """Nodal Hessian of a P1 field by two lumped-mass L2 gradient projections.

    Boundary nodes get the same averaged recovery as interior ones (no
    one-sided extrapolation), so their values are O(1) accurate only.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (mesh.num_nodes,):
        raise ValueError("field length does not match node count")
    d = mesh.dim
    vols = signed_volumes(mesh.nodes, mesh.elements)
    if np.any(vols <= 0):
        raise RuntimeError("degenerate element in Hessian recovery")
    grads = p1_element_gradients(mesh)            # (ne, d+1, d)
    share = vols / (d + 1)

    def scatter(per_elem):
        # per node, the sum of `per_elem` over its elements in element order
        return np.bincount(mesh.elements.ravel(), np.repeat(per_elem, d + 1),
                           mesh.num_nodes)

    mlumped = scatter(share)

    def project(values):
        # values: nodal field -> lumped L2 projection of its elementwise gradient
        elem_grad = np.einsum("ev,evd->ed", values[mesh.elements], grads)
        grad = np.column_stack([scatter(share * g) for g in elem_grad.T])
        return grad / mlumped[:, None]

    g = project(z)                                 # (n, d) nodal gradient
    H = np.empty((mesh.num_nodes, d, d))
    for k in range(d):
        H[:, k, :] = project(g[:, k])
    return 0.5 * (H + np.transpose(H, (0, 2, 1)))


def domain_h_max(box):
    """Largest target size admitted on the box: half its shortest side.

    This is the smallest half-extent of the box. Where the field is flat, an
    unbounded target is far longer than the box: no edge inside it can reach
    the coarsening threshold, and coarsening collapses the mesh into strips
    whose edges cross the box yet stay short in the metric. A target of
    h_max puts at least two elements across every side, so no edge has to
    span the domain from one face to the opposite one. On the layered field
    tanh(10(x-1)) over a 4 x 4 box, bounding by the whole shortest side
    still leaves 40% of the adapted edges below 0.85 * l_low; half of it
    leaves 5%, and a quarter gives no further gain at 1.8x the nodes.
    """
    box = np.asarray(box, dtype=float)
    return 0.5 * float((box[:, 1] - box[:, 0]).min())


def compute_metric(hessians, eta, ppar, dim=None, h_max=None):
    """Build the metric field from nodal Hessians.

    Eigenvalues are replaced by absolute values and floored at
    1e-10 * max(1, max nodal Hessian magnitude); the floor only keeps the
    determinant positive, so the scaling stays finite where the field is
    locally affine. When `h_max` is given, the scaled eigenvalues are
    clamped from below at 1/h_max**2, so no target size exceeds h_max.
    Without it the tensors are the unbounded formula.
    """
    H = np.asarray(hessians, dtype=float)
    d = H.shape[-1]
    if dim is not None and dim != d:
        raise ValueError(f"dimension mismatch: hessians are {d}x{d}, dim={dim}")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if ppar < 1:
        raise ValueError("norm order must be >= 1")
    if h_max is not None and not h_max > 0:
        raise ValueError("h_max must be positive")
    w, Q = np.linalg.eigh(0.5 * (H + np.transpose(H, (0, 2, 1))))
    floor = 1e-10 * max(1.0, float(np.abs(H).max(initial=0.0)))
    w = np.maximum(np.abs(w), floor)
    det = np.prod(w, axis=1)
    scale = det ** (-1.0 / (2.0 * ppar + d)) / eta
    scaled = w * scale[:, None]
    if h_max is not None:
        scaled = np.maximum(scaled, 1.0 / h_max ** 2)
    tensors = np.einsum("nij,nj,nkj->nik", Q, scaled, Q)
    tensors = 0.5 * (tensors + np.transpose(tensors, (0, 2, 1)))
    return MetricField(tensors)


def edge_lengths(nodes, tensors, edges):
    """Vectorized metric lengths of (m, 2) node-id pairs."""
    a, b = edges[:, 0], edges[:, 1]
    v = nodes[b] - nodes[a]
    Mbar = 0.5 * (tensors[a] + tensors[b])
    return np.sqrt(np.maximum(np.einsum("ij,ijk,ik->i", v, Mbar, v), 0.0))


def metric_for_field(mesh, u, eta_policy, ppar, selector=None):
    """Select field, recover Hessian, evaluate eta, build the bounded metric.

    Target sizes are bounded by `domain_h_max(mesh.box)`, so every caller
    (adaptation, edge-length censuses) sees the same size-bounded metric.
    """
    z = select_field(u, selector)
    H = recover_hessian(mesh, z)
    eta = eval_eta(eta_policy, mesh.num_nodes)
    return compute_metric(H, eta, ppar, h_max=domain_h_max(mesh.box))
