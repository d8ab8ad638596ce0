"""Run configuration: INI-style text with fixed sections and keys.

Sections: [physics] (mu, kappa, nu, R, cV, delta), [grid] (nx, neta,
eta_max, dt, t_end), [outflow] (U, Theta, H, P, theta_star: expressions in
t and xi, a number being one), [initial] (expressions in x and y plus the
y grid), [picard] (tol, max_iter), [output] (dir, snapshot_every).
Unknown sections or keys are rejected, not ignored; a silently misspelled
tolerance is worse than an error.

Closed-form values are plain Python expressions over numpy functions
(sin, cos, tan, sinh, cosh, tanh, exp, log, sqrt, abs, pi) in the variables
t, xi for outflow traces and x, y for initial profiles.  Numeric literals are
floats, each function takes one argument, and an expression that fails to
evaluate (1/0, 2.0**10000) or whose value is not real ((-1.0)**0.5) raises
ConfigError.  numpy evaluates without warnings; a NaN or inf result is for
the caller to refuse (RunConfig.problem checks every initial profile,
OutflowData every trace).
"""

from __future__ import annotations

import ast
import configparser
import io
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .errors import (ConfigError, GridSizingError, PositivityError,
                     PreconditionError)
from .fields import (MAX_DOUBLES, Grid, OutflowSpec, Params, make_grid,
                     pressure_factors, sample_outflow)
from .stencils import usable_spacing

_SAFE_FUNCS: Dict[str, object] = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "pi": np.pi,
}

#: Syntax nodes an expression may contain besides calls and number constants.
_SAFE_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Name, ast.Load,
               ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
               ast.Pow, ast.UAdd, ast.USub)

_SCHEMA: Dict[str, Dict[str, str]] = {
    "physics": {"mu": "float", "kappa": "float", "nu": "float", "R": "float",
                "cV": "float", "delta": "float"},
    "grid": {"nx": "int", "neta": "int", "eta_max": "float", "dt": "float",
             "t_end": "float"},
    "outflow": {"U": "expr", "Theta": "expr", "H": "expr", "P": "expr",
                "theta_star": "expr"},
    "initial": {"u1_0": "expr", "theta0": "expr", "h1_0": "expr",
                "y_max": "float", "ny": "int"},
    "picard": {"tol": "float", "max_iter": "int"},
    "output": {"dir": "str", "snapshot_every": "int"},
}

_DEFAULTS: Dict[str, Dict[str, str]] = {
    "physics": {"mu": "1.0", "kappa": "1.0", "nu": "1.0", "R": "1.0",
                "cV": "1.0", "delta": "0.05"},
    "picard": {"tol": "1e-8", "max_iter": "30"},
    "output": {"dir": "out", "snapshot_every": "1"},
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration, keyed [section][key] -> string.

    Values stay in canonical string form so that parse -> serialize is
    idempotent; typed accessors build the solver inputs.
    """

    values: Dict[str, Dict[str, str]]

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def getfloat(self, section: str, key: str) -> float:
        try:
            return float(self.values[section][key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number: "
                              f"{self.values[section][key]!r}") from exc

    def getint(self, section: str, key: str) -> int:
        try:
            return int(self.values[section][key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not an integer: "
                              f"{self.values[section][key]!r}") from exc

    def make_params(self) -> Params:
        return Params(mu=self.getfloat("physics", "mu"),
                      kappa=self.getfloat("physics", "kappa"),
                      nu=self.getfloat("physics", "nu"),
                      R=self.getfloat("physics", "R"),
                      cV=self.getfloat("physics", "cV"),
                      delta=self.getfloat("physics", "delta"))

    def make_grid(self) -> Grid:
        return make_grid(self.getint("grid", "nx"),
                         self.getint("grid", "neta"),
                         self.getfloat("grid", "eta_max"),
                         self.getfloat("grid", "dt"),
                         self.getfloat("grid", "t_end"))

    def outflow_spec(self) -> OutflowSpec:
        """The [outflow] traces, each compiled in t, xi; one that names
        neither t nor xi is evaluated once, to its number, which must be
        finite.  A ConfigError from compiling or evaluating a trace names
        its key."""
        def trace(key: str):
            text = self.get("outflow", key)
            try:
                fn = compile_expression(text, ("t", "xi"))
                names = {node.id for node in ast.walk(ast.parse(text))
                         if isinstance(node, ast.Name)}
                if names & {"t", "xi"}:
                    return fn
                value = float(fn(0.0, 0.0))
                if not np.isfinite(value):
                    # 1e400 is an exact inf, and 1e300*1e300 overflows to one
                    raise ConfigError(
                        f"expression {text!r} is not finite: {value}")
                return value
            except ConfigError as exc:
                raise ConfigError(f"{exc} (in [outflow] {key})") from exc
        return OutflowSpec(*map(trace, ("U", "Theta", "H", "P", "theta_star")))

    def initial_profiles(self):
        """Return callables (u1_0, theta0, h1_0) of (x, y) arrays."""
        return tuple(compile_expression(self.get("initial", key), ("x", "y"))
                     for key in ("u1_0", "theta0", "h1_0"))

    def problem(self) -> tuple:
        """The inputs of the Picard solve: (params, grid, outflow, v0, y).

        Samples the outflow, evaluates the initial profiles on the physical
        (x, y) grid and checks the preconditions of the iteration at t = 0,
        in order: each profile finite; theta_star, theta0 and h1_0 at least
        2 delta; q = h1_0^2/2 at most P(0, x) less 2 delta.  The first that
        fails raises PreconditionError under its name.  The profiles are
        then mapped to the (xi, eta) grid as v0; they and the eta table die
        on return, before any solve starts.  y holds the y nodes.
        """
        from .transform import initial_eta_map

        params, grid = self.make_params(), self.make_grid()
        outflow = sample_outflow(self.outflow_spec(), grid)
        y = np.linspace(0.0, self.getfloat("initial", "y_max"),
                        self.getint("initial", "ny"))
        X, Y = np.meshgrid(grid.xi, y, indexing="ij")
        u10, theta0, h10 = (np.asarray(fn(X, Y), dtype=float)
                            for fn in self.initial_profiles())

        d = params.delta
        # each xi column's largest q = h1^2/2 decides once h1 > 0 (checked
        # first); a huge h1 gives q = inf (Q = 0 * inf at a = 1/2): refused,
        # not warned
        with np.errstate(over="ignore", invalid="ignore"):
            P_minus_q, _ = pressure_factors(
                outflow.P[0], 0.5 * h10.max(axis=1) ** 2, params.a)
        checks = [(f"{name} finite", bool(np.isfinite(a).all()))
                  for name, a in (("u1_0", u10), ("theta0", theta0),
                                  ("h1_0", h10))]
        checks += [
            ("theta_star >= 2 delta", float(outflow.theta_star.min()) >= 2 * d),
            ("theta0 >= 2 delta", float(theta0.min()) >= 2 * d),
            ("h1_0 >= 2 delta", float(h10.min()) >= 2 * d),
            ("h1_0^2/2 <= P(0, x) - 2 delta", float(P_minus_q.min()) >= 2 * d),
        ]
        for name, ok in checks:
            if not ok:
                raise PreconditionError(name)

        v0, _ = initial_eta_map(u10, theta0, h10, y, grid, d)
        return params, grid, outflow, v0, y


def compile_expression(text: str, variables: tuple) -> Callable:
    """Compile a closed-form expression over the safe namespace; the result
    broadcasts its array arguments.

    Only arithmetic on numbers, the variables and the safe names is accepted,
    with one-argument calls to the safe functions by name; every node of the
    syntax tree is checked, so no attribute, subscript, lambda or
    comprehension gets through, and no function is used as a value.
    """
    try:
        tree = ast.parse(text, "<config>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc}") from exc
    nodes = list(ast.walk(tree))
    for node in nodes:
        if (isinstance(node, ast.Name) and node.id not in _SAFE_FUNCS
                and node.id not in variables):
            raise ConfigError(f"expression {text!r} uses unknown name {node.id!r}")
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    for node in nodes:
        if isinstance(node, ast.Call):
            # the safe functions are ufuncs: a second argument is their output
            ok = (isinstance(node.func, ast.Name)
                  and callable(_SAFE_FUNCS.get(node.func.id))
                  and len(node.args) == 1)
        elif isinstance(node, ast.Name):   # a function only as a callee
            ok = callable(_SAFE_FUNCS.get(node.id)) == (id(node) in called)
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float)
            if ok:   # a float power overflows; an int one grows unbounded
                node.value = float(node.value)
        else:
            ok = isinstance(node, _SAFE_NODES)
        if not ok:
            raise ConfigError(f"expression {text!r} uses disallowed syntax "
                              f"({type(node).__name__})")
    code = compile(tree, "<config>", "eval")

    def fn(*args):
        local = dict(zip(variables, args))
        try:
            # no numpy warnings: callers refuse a non-finite value by name
            with np.errstate(all="ignore"):
                out = eval(code, {"__builtins__": {}}, {**_SAFE_FUNCS, **local})
        except (ArithmeticError, TypeError) as exc:   # complex % and // raise
            raise ConfigError(f"expression {text!r} failed: {exc}") from exc
        # Python takes a negative float to a fractional power as complex
        if np.iscomplexobj(out):
            raise ConfigError(f"expression {text!r} failed: result is not real")
        reference = None
        for a in args:
            if isinstance(a, np.ndarray):
                reference = a if reference is None else np.broadcast_arrays(reference, a)[0]
        if reference is not None:
            out = np.broadcast_to(np.asarray(out, dtype=float), reference.shape).copy()
        return out

    return fn


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a RunConfig; unknown keys raise ConfigError."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case: R and cV are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse configuration: {exc}") from exc
    values: Dict[str, Dict[str, str]] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = raw.strip()
    for section, defaults in _DEFAULTS.items():
        block = values.setdefault(section, {})
        for key, val in defaults.items():
            block.setdefault(key, val)
    for section in ("grid", "outflow", "initial"):
        if section not in values:
            raise ConfigError(f"missing required section [{section}]")
        for key in _SCHEMA[section]:
            if key not in values[section]:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
    cfg = RunConfig(values=values)
    # fail fast on anything malformed, not on first use; a value the
    # parameter and grid checks refuse is a configuration error
    try:
        cfg.make_params()
        cfg.make_grid()
    except (GridSizingError, PositivityError) as exc:
        raise ConfigError(str(exc)) from exc
    cfg.outflow_spec()
    cfg.initial_profiles()
    tol = cfg.getfloat("picard", "tol")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"[picard] tol must be finite and >= 0, got {tol!r}")
    for section, key, least in (("initial", "ny", 4), ("picard", "max_iter", 1),
                                ("output", "snapshot_every", 1)):
        if cfg.getint(section, key) < least:
            raise ConfigError(f"[{section}] {key} must be at least {least}")
    size = cfg.getint("grid", "nx") * cfg.getint("initial", "ny")
    if size > MAX_DOUBLES:
        raise ConfigError(
            f"[grid] nx and [initial] ny must give a physical field nx * ny "
            f"of at most {MAX_DOUBLES} doubles, got {size:.3g}")
    y_max = cfg.getfloat("initial", "y_max")
    if not (np.isfinite(y_max) and y_max > 0.0):
        raise ConfigError(
            f"[initial] y_max must be finite and positive, got {y_max!r}")
    h = y_max / (cfg.getint("initial", "ny") - 1)
    if not usable_spacing(h):
        raise ConfigError(
            f"[initial] y_max must give a y spacing h with h*h and 1/(h*h) "
            f"finite and nonzero, got y_max={y_max!r}, h={h:.3g}")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text; parse(serialize(cfg)) reproduces cfg exactly."""
    out = io.StringIO()
    for section in _SCHEMA:
        if section not in cfg.values:
            continue
        out.write(f"[{section}]\n")
        for key in _SCHEMA[section]:
            if key in cfg.values[section]:
                out.write(f"{key} = {cfg.values[section][key]}\n")
        out.write("\n")
    return out.getvalue()
