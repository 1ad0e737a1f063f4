"""Declarative run configuration: sectioned key=value files.

Numeric values may be expressions of numbers, + - * /, parentheses, pi, e
and sqrt, e.g. `lx = 2*pi` or `l_low = 1/sqrt(2)`.
"""
from __future__ import annotations

import ast
import configparser
import math
import operator
from dataclasses import dataclass, fields, replace

from .adapt import AdaptOptions, CoarsenOptions
from .continuation import ContinuationSettings
from .fem import (PROFILE_COS_HALF, PROFILE_GAUSS_SPOT, PROFILE_ZERO,
                  BoundaryCondition, ProblemDef)
from .mesh import build_box_mesh, build_rect_mesh, segment_table
from .metric import EtaPolicy


class ConfigError(ValueError):
    pass


_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = {"sqrt": math.sqrt}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_PROFILES = (PROFILE_ZERO, PROFILE_COS_HALF, PROFILE_GAUSS_SPOT)


def _evaluate(node):
    """Value of an expression tree built from numbers, + - * /, unary signs,
    parentheses, pi, e and sqrt(x); anything else raises ValueError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _CONSTANTS[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0]))
    raise ValueError(f"unsupported expression '{ast.unparse(node)}'")


def parse_number(text):
    """Parse a float, allowing expressions like `3*pi/2` or `1/sqrt(2)`."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return float(_evaluate(ast.parse(text.strip(), mode="eval").body))
    except (SyntaxError, ValueError, ArithmeticError, RecursionError) as exc:
        raise ConfigError(f"cannot parse number '{text}': {exc}") from None


@dataclass
class RunConfig:
    name: str
    dim: int
    extents: tuple              # (lx, ly[, lz])
    counts: tuple               # (nx, ny[, nz])
    prob: ProblemDef
    trop: AdaptOptions
    trcop: CoarsenOptions
    cont: ContinuationSettings
    direction: int = 1
    initial_adapt: bool = False
    output_dir: str = "out"
    snapshot_stride: int = 0

    def build_mesh(self):
        if self.dim == 2:
            return build_rect_mesh(self.extents[0], self.extents[1],
                                   self.counts[0], self.counts[1])
        return build_box_mesh(*self.extents, *self.counts)


def _get(section, key, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"[{section.name}] missing required key '{key}'")
        return default
    try:
        return conv(section[key])
    except Exception as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from None


def _check_keys(section, known):
    """Rejects a key `section` sets that nothing reads, such as a misspelling."""
    for key in section:
        if key not in known:
            raise ConfigError(f"[{section.name}] unknown key '{key}'")


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got '{text}'")


def _parse_bc(text):
    parts = text.split()
    if parts[0] == "neumann":
        return BoundaryCondition("neumann")
    if parts[0] == "dirichlet":
        if len(parts) != 2 or parts[1] not in _PROFILES:
            raise ValueError(f"dirichlet needs a profile from {_PROFILES}")
        return BoundaryCondition("dirichlet", parts[1])
    raise ValueError(f"unknown bc '{text}'")


def _parse_eta(section):
    if "eta" in section and "eta_np" in section:
        raise ConfigError(f"[{section.name}] eta and eta_np are mutually exclusive")
    if "eta_np" in section:
        return EtaPolicy.linear_in_np(_get(section, "eta_np", parse_number))
    return EtaPolicy.constant(_get(section, "eta", parse_number))


# the adaptation keys a [trop] or [trcop] section may set, besides eta/eta_np
_ADAPT_KEYS = {"ppar": int, "innerit": int, "l_low": parse_number,
               "l_up": parse_number, "qual_p": parse_number, "sw": int,
               "npb": int, "crmax": int}


def _parse_adapt(section, base):
    """The option block `base` with the keys `section` sets applied; the
    coarsening keys npb and crmax only where `base` has them."""
    names = {f.name for f in fields(base)}
    _check_keys(section, {"eta", "eta_np"} | (names & _ADAPT_KEYS.keys()))
    changes = {key: _get(section, key, conv) for key, conv in _ADAPT_KEYS.items()
               if key in section and key in names}
    if "eta" in section or "eta_np" in section:
        changes["eta_policy"] = _parse_eta(section)
    try:
        return replace(base, **changes)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}]: {exc}") from None


# the [cont] keys of ContinuationSettings; unset ones keep its defaults
_CONT_KEYS = {"ds0": parse_number, "ds_min": parse_number, "ds_max": parse_number,
              "newton_tol": parse_number, "newton_max_it": int, "amod": int,
              "ngen": int, "nsteps": int, "bif_detection": _parse_bool,
              "param_min": parse_number, "param_max": parse_number}


def load_config(path):
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as f:
            parser.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for req in ("problem", "mesh", "cont"):
        if req not in parser:
            raise ConfigError(f"{path}: missing [{req}] section")

    mesh_sec = parser["mesh"]
    dim = _get(mesh_sec, "dim", int, required=True)
    if dim not in (2, 3):
        raise ConfigError("[mesh] dim must be 2 or 3")
    ext_keys = ("lx", "ly", "lz")[:dim]
    cnt_keys = ("nx", "ny", "nz")[:dim]
    _check_keys(mesh_sec, {"dim", *ext_keys, *cnt_keys})
    extents = tuple(_get(mesh_sec, k, parse_number, required=True) for k in ext_keys)
    counts = tuple(_get(mesh_sec, k, int, required=True) for k in cnt_keys)

    prob_sec = parser["problem"]
    bc_keys = [f"bc{seg}" for seg in segment_table(dim)]
    _check_keys(prob_sec, {"c", "lambda", "gamma", "d", "xi", *bc_keys})
    aux = {}
    for key in ("d", "xi"):
        if key in prob_sec:
            aux[key] = _get(prob_sec, key, parse_number)
    bc = {seg: _get(prob_sec, key, _parse_bc, required=True)
          for seg, key in zip(segment_table(dim), bc_keys)}

    cont_sec = parser["cont"]
    _check_keys(cont_sec, {"active_param", "direction", "initial_adapt",
                           *_CONT_KEYS})
    active_param = _get(cont_sec, "active_param", str.strip, required=True)
    try:
        prob = ProblemDef(
            c=_get(prob_sec, "c", parse_number, default=1.0),
            lam=_get(prob_sec, "lambda", parse_number, default=0.0),
            gamma=_get(prob_sec, "gamma", parse_number, default=1.0),
            aux=aux, active_param=active_param, bc=bc)
    except ValueError as exc:
        raise ConfigError(f"[problem]: {exc}") from None

    # [trcop] starts from [trop] with the coarsening defaults sw, npb, crmax
    trop = AdaptOptions.for_dim(dim)
    if "trop" in parser:
        trop = _parse_adapt(parser["trop"], trop)
    trcop = CoarsenOptions.from_trop(trop)
    if "trcop" in parser:
        trcop = _parse_adapt(parser["trcop"], trcop)

    try:
        cont = ContinuationSettings(**{
            key: _get(cont_sec, key, conv) for key, conv in _CONT_KEYS.items()
            if key in cont_sec})
    except ValueError as exc:
        raise ConfigError(f"[cont]: {exc}") from None

    out_sec = parser["output"] if "output" in parser else {}
    _check_keys(out_sec, {"dir", "snapshot_stride"})
    name = str(path).rsplit("/", 1)[-1]
    name = name[:-4] if name.endswith(".cfg") else name

    return RunConfig(
        name=name, dim=dim, extents=extents, counts=counts, prob=prob,
        trop=trop, trcop=trcop, cont=cont,
        direction=_get(cont_sec, "direction", int, default=1),
        initial_adapt=_get(cont_sec, "initial_adapt", _parse_bool, default=False),
        output_dir=out_sec.get("dir", "out") if out_sec else "out",
        snapshot_stride=int(out_sec.get("snapshot_stride", 0)) if out_sec else 0)
