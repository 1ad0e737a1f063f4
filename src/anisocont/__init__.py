"""Anisotropic mesh adaptation coupled to pseudo-arclength continuation."""

from .mesh import (SegmentMap, SimplicialMesh, ValidationReport,
                   build_box_mesh, build_rect_mesh, interpolate, quality,
                   unique_edges, validate)
from .meshio import (read_field_text, read_mesh_text, write_field_text,
                     write_mesh_text, write_vtk)
from .fem import (BoundaryCondition, ProblemDef, assemble_mass,
                  assemble_stiffness, dirichlet,
                  jacobian, l2_norm, neumann, residual)
from .metric import (EtaPolicy, MetricField, compute_metric, eval_eta,
                     recover_hessian, select_field)
from .adapt import (ActionMask, AdaptOptions, AdaptationError, CoarsenOptions,
                    coarsen_pass, decode_sw, encode_sw,
                    move_pass, refine_pass, swap_pass, tradapt, two_step_adapt)
from .continuation import (BranchRecord, ContinuationSettings,
                           ContinuationState, FemWorkspace, NewtonResult,
                           RunResult, adapt_in_cont, branch_switch,
                           compute_tangent, cont_step, critical_eigenpair,
                           detect_bifurcation, newton_solve, run_continuation,
                           stability_index)
from .config import ConfigError, RunConfig, load_config
from .plotting import plot_branch

__version__ = "0.1.0"
