"""Run configuration: line-oriented key = value files with dotted keys.

The format is deliberately trivial: one assignment per line, full-line
comments starting with '#', blank lines ignored.  Unknown keys, duplicate
keys, type mismatches, non-finite numbers, and invariant violations are all
hard errors that name the key and line; nothing is silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sktsim.adjoint import AdjointRHSKind
from sktsim.algebra import CoefficientError, Coefficients
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid
from sktsim.grid import BoundaryCondition, Grid
from sktsim.mms import bump_profile

__all__ = ["ConfigError", "PresetSpec", "RunConfig", "parse_config", "parse_config_text"]


class ConfigError(ValueError):
    """Invalid configuration; rendered by the CLI with exit code 2."""


@dataclass(frozen=True)
class PresetSpec:
    """Named field preset: zero | constant c | bump(center, width, amplitude)
    | cosine(k, amplitude, offset)."""

    kind: str
    params: tuple[float, ...]

    _ARITY = {"zero": 0, "constant": 1, "bump": 3, "cosine": 3}

    @classmethod
    def parse(cls, text: str, key: str, line: int) -> "PresetSpec":
        tokens = text.replace("(", " ").replace(")", " ").replace(",", " ").split()
        if not tokens:
            raise ConfigError(f"empty preset for key '{key}' on line {line}")
        kind = tokens[0]
        if kind not in cls._ARITY:
            raise ConfigError(f"unknown preset '{kind}' for key '{key}' on line {line}; "
                              f"expected one of {sorted(cls._ARITY)}")
        want = cls._ARITY[kind]
        if len(tokens) - 1 != want:
            raise ConfigError(f"preset '{kind}' for key '{key}' on line {line} takes "
                              f"{want} parameters, got {len(tokens) - 1}")
        try:
            params = tuple(float(tok) for tok in tokens[1:])
        except ValueError as exc:
            raise ConfigError(f"non-numeric preset parameter for key '{key}' on line {line}: {exc}")
        if not all(math.isfinite(p) for p in params):
            raise ConfigError(f"non-finite preset parameter for key '{key}' on line {line}")
        if kind == "cosine" and params[0] != int(params[0]):
            raise ConfigError(f"cosine mode number must be an integer for key '{key}' on line {line}")
        if kind == "bump" and not params[1] > 0.0:
            raise ConfigError(f"bump width must be positive for key '{key}', got {params[1]:g} "
                              f"(line {line})")
        return cls(kind, params)

    @np.errstate(over="ignore", invalid="ignore")  # overflow is reported by parse
    def evaluate(self, grid: Grid) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(grid.shape)
        if self.kind == "constant":
            return np.full(grid.shape, self.params[0])
        if self.kind == "bump":
            center, width, amplitude = self.params
            return bump_profile(grid, center, width, amplitude)
        k, amplitude, offset = self.params
        coords = grid.meshgrid()
        out = np.full(grid.shape, 1.0)
        for axis in coords:
            out = out * np.cos(k * np.pi * axis / grid.length)
        return offset + amplitude * out


_COEFF_NAMES = ("a11", "a12", "a21", "a22", "b1", "b2", "c1", "c2", "a1", "a2", "d1", "d2")

_REQUIRED_KEYS = (("dim", int), ("domain.length", float), ("grid.n", int),
                  ("time.t_final", float), ("time.dt", float),
                  ("scheme", str), ("bc", str),
                  *((f"coeff.{name}", float) for name in _COEFF_NAMES),
                  ("init.u", "preset"), ("init.v", "preset"))

_OPTIONAL_KEYS = {"coeff.alpha": float, "adjoint.eps": float, "adjoint.rhs": str,
                  "terminal.u": "preset", "terminal.v": "preset",
                  "storage.stride": int, "output.dir": str, "seed": int}

_ALL_KEYS = {key for key, _ in _REQUIRED_KEYS} | set(_OPTIONAL_KEYS)


@dataclass
class RunConfig:
    """Validated experiment description."""

    dim: int
    length: float
    n: int
    t_final: float
    dt: float
    scheme: SchemeKind
    bc: BoundaryCondition
    coefficients: Coefficients
    eps: float
    rhs: AdjointRHSKind
    init_u: PresetSpec
    init_v: PresetSpec
    terminal_u: PresetSpec
    terminal_v: PresetSpec
    stride: int
    out_dir: str
    seed: int

    def grid(self) -> Grid:
        return Grid(self.dim, self.length, self.n)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.t_final, self.dt)

    def initial_field(self) -> np.ndarray:
        g = self.grid()
        return np.stack((self.init_u.evaluate(g), self.init_v.evaluate(g)))

    def terminal_field(self) -> np.ndarray:
        g = self.grid()
        return np.stack((self.terminal_u.evaluate(g), self.terminal_v.evaluate(g)))

    def forward_problem(self) -> ForwardProblem:
        return ForwardProblem(
            coefficients=self.coefficients, grid=self.grid(), bc=self.bc,
            time_grid=self.time_grid(), scheme=self.scheme,
            initial=self.initial_field(), stride=self.stride)


def _parse_scalar(raw: str, want, key: str, line: int):
    if want is str:
        return raw
    if want is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key '{key}' on line {line} expects an integer, got '{raw}'")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' on line {line} expects a number, got '{raw}'")
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' on line {line} expects a finite number, got '{raw}'")
    return value


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno} is not a 'key = value' assignment: '{line}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{source}: unknown key '{key}' on line {lineno}")
        if key in entries:
            raise ConfigError(f"{source}: duplicate key '{key}' on lines "
                              f"{entries[key][1]} and {lineno}")
        if not value:
            raise ConfigError(f"{source}: empty value for key '{key}' on line {lineno}")
        entries[key] = (value, lineno)

    values: dict[str, object] = {}
    for key, want in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"{source}: missing required key '{key}'")
        raw, lineno = entries[key]
        values[key] = (PresetSpec.parse(raw, key, lineno) if want == "preset"
                       else _parse_scalar(raw, want, key, lineno))
    for key, want in _OPTIONAL_KEYS.items():
        if key in entries:
            raw, lineno = entries[key]
            values[key] = (PresetSpec.parse(raw, key, lineno) if want == "preset"
                           else _parse_scalar(raw, want, key, lineno))

    dim = values["dim"]
    if dim not in (1, 2):
        raise ConfigError(f"{source}: dim must be 1 or 2, got {dim} "
                          f"(line {entries['dim'][1]})")
    length = values["domain.length"]
    if length <= 0:
        raise ConfigError(f"{source}: domain.length must be positive "
                          f"(line {entries['domain.length'][1]})")
    n = values["grid.n"]
    if n < 3:
        raise ConfigError(f"{source}: grid.n must be at least 3 (line {entries['grid.n'][1]})")

    for key in ("time.t_final", "time.dt"):
        if values[key] <= 0:
            raise ConfigError(f"{source}: {key} must be positive (line {entries[key][1]})")
    t_final, dt = values["time.t_final"], values["time.dt"]
    try:
        TimeGrid(t_final, dt)
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid time.dt: {exc} (line {entries['time.dt'][1]})")

    try:
        scheme = SchemeKind(values["scheme"])
    except ValueError:
        raise ConfigError(f"{source}: scheme must be 'explicit' or 'imex' "
                          f"(line {entries['scheme'][1]})")
    try:
        bc = BoundaryCondition(values["bc"])
    except ValueError:
        raise ConfigError(f"{source}: bc must be 'neumann' or 'dirichlet' "
                          f"(line {entries['bc'][1]})")

    coeff_kwargs = {name: values[f"coeff.{name}"] for name in _COEFF_NAMES}
    if "coeff.alpha" in values:
        coeff_kwargs["alpha"] = values["coeff.alpha"]
    try:
        coefficients = Coefficients(**coeff_kwargs)
    except CoefficientError as exc:
        key = f"coeff.{exc.coefficient}"
        raise ConfigError(f"{source}: invalid {key}: {exc} (line {entries[key][1]})")

    eps = values.get("adjoint.eps", 1.0)
    if eps <= 0:
        raise ConfigError(f"{source}: adjoint.eps must be positive "
                          f"(line {entries['adjoint.eps'][1]})")
    try:
        rhs = AdjointRHSKind(values.get("adjoint.rhs", "identity"))
    except ValueError:
        raise ConfigError(f"{source}: adjoint.rhs must be 'identity' or 'l' "
                          f"(line {entries['adjoint.rhs'][1]})")

    stride = values.get("storage.stride", 1)
    if stride < 1:
        raise ConfigError(f"{source}: storage.stride must be >= 1 "
                          f"(line {entries['storage.stride'][1]})")

    seed = values.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"{source}: seed must be nonnegative (line {entries['seed'][1]})")

    grid = Grid(dim, length, n)
    for key in ("init.u", "init.v", "terminal.u", "terminal.v"):
        if key not in values:
            continue
        field = values[key].evaluate(grid)
        if not np.all(np.isfinite(field)):
            raise ConfigError(f"{source}: non-finite values from preset '{key}' "
                              f"(line {entries[key][1]})")
        if key.startswith("init.") and float(np.min(field)) < 0.0:
            raise ConfigError(f"{source}: negative values from initial preset '{key}' "
                              f"(line {entries[key][1]}); initial data must be nonnegative")

    return RunConfig(
        dim=dim, length=length, n=n, t_final=t_final, dt=dt, scheme=scheme, bc=bc,
        coefficients=coefficients, eps=eps, rhs=rhs,
        init_u=values["init.u"], init_v=values["init.v"],
        terminal_u=values.get("terminal.u", PresetSpec("zero", ())),
        terminal_v=values.get("terminal.v", PresetSpec("zero", ())),
        stride=stride, out_dir=values.get("output.dir", "out"), seed=seed)


def parse_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(), source=str(p))
