"""Run configuration: line-oriented key = value files with dotted keys.

The format is deliberately trivial: one assignment per line, full-line
comments starting with '#', blank lines ignored.  Unknown keys, duplicate
keys, type mismatches, non-finite numbers, and invariant violations are all
hard errors that name the file, the key and the line; nothing is silently
ignored.  The field presets are evaluated once, on the configured grid, and
checked; :class:`RunConfig` keeps the checked stacked pairs, read-only, as
``initial`` and ``terminal``, and every run reads those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sktsim.adjoint import AdjointRHSKind
from sktsim.algebra import CoefficientError, Coefficients
from sktsim.forward import ForwardProblem, SchemeKind, TimeGrid
from sktsim.grid import _GRAMMAR, BoundaryCondition, Grid
from sktsim.mms import bump_profile

__all__ = ["ConfigError", "PresetSpec", "RunConfig", "parse_config", "parse_config_text"]


class ConfigError(ValueError):
    """Invalid configuration; rendered by the CLI with exit code 2."""


def _key_error(source: str, key: str, line: int, problem: str) -> ConfigError:
    """The one form of an error in the value of one key."""
    return ConfigError(f"{source}: {problem} (key '{key}' on line {line})")


@dataclass(frozen=True)
class PresetSpec:
    """Named field preset: zero | constant c | bump(center, width, amplitude)
    | cosine(k, amplitude, offset)."""

    kind: str
    params: tuple[float, ...]

    _ARITY = {"zero": 0, "constant": 1, "bump": 3, "cosine": 3}

    @classmethod
    def parse(cls, text: str, key: str, line: int, source: str = "<config>") -> "PresetSpec":
        tokens = text.replace("(", " ").replace(")", " ").replace(",", " ").split()
        if not tokens:
            raise _key_error(source, key, line, "empty preset")
        kind = tokens[0]
        if kind not in cls._ARITY:
            raise _key_error(source, key, line, f"unknown preset '{kind}'; "
                             f"expected one of {sorted(cls._ARITY)}")
        want = cls._ARITY[kind]
        if len(tokens) - 1 != want:
            raise _key_error(source, key, line, f"preset '{kind}' takes {want} parameters, "
                             f"got {len(tokens) - 1}")
        for tok in tokens[1:]:
            if not _GRAMMAR[float].fullmatch(tok):
                raise _key_error(source, key, line, f"non-numeric preset parameter '{tok}'")
        params = tuple(float(tok) for tok in tokens[1:])
        if not all(math.isfinite(p) for p in params):
            raise _key_error(source, key, line, "non-finite preset parameter")
        if kind == "cosine" and params[0] != int(params[0]):
            raise _key_error(source, key, line, "cosine mode number must be an integer")
        if kind == "bump" and not params[1] > 0.0:
            raise _key_error(source, key, line, f"bump width must be positive, got {params[1]:g}")
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


def _scalar(convert, words: str, rule=None):
    """Reader of a scalar value: ``convert`` makes it from the text and
    ``rule``, where given, accepts it; ``words`` state what it must be.  An
    int or float ``convert`` reads only text of its ``_GRAMMAR``."""
    grammar = _GRAMMAR.get(convert)

    def read(raw: str, key: str, line: int, source: str):
        try:
            if grammar is not None and not grammar.fullmatch(raw):
                raise ValueError(raw)
            value = convert(raw)
            if rule is None or rule(value):
                return value
        except ValueError:
            pass
        raise _key_error(source, key, line, f"expects {words}, got '{raw}'")
    return read


_REQUIRED = object()
_COEFF_NAMES = ("a11", "a12", "a21", "a22", "b1", "b2", "c1", "c2", "a1", "a2", "d1", "d2")
_finite = _scalar(float, "a finite number", math.isfinite)
_positive = _scalar(float, "a finite number > 0", lambda x: 0.0 < x < math.inf)

# Every accepted key: its reader and its default (_REQUIRED if it has none).
_ALL_KEYS = {
    "dim": (_scalar(int, "1 or 2", lambda d: d in (1, 2)), _REQUIRED),
    "domain.length": (_positive, _REQUIRED),
    "grid.n": (_scalar(int, "an integer >= 3", lambda n: n >= 3), _REQUIRED),
    "time.t_final": (_positive, _REQUIRED),
    "time.dt": (_positive, _REQUIRED),
    "scheme": (_scalar(SchemeKind, "'explicit' or 'imex'"), _REQUIRED),
    "bc": (_scalar(BoundaryCondition, "'neumann' or 'dirichlet'"), _REQUIRED),
    **{f"coeff.{name}": (_finite, _REQUIRED) for name in _COEFF_NAMES},
    "coeff.alpha": (_finite, None),
    "init.u": (PresetSpec.parse, _REQUIRED),
    "init.v": (PresetSpec.parse, _REQUIRED),
    "terminal.u": (PresetSpec.parse, PresetSpec("zero", ())),
    "terminal.v": (PresetSpec.parse, PresetSpec("zero", ())),
    "adjoint.eps": (_positive, 1.0),
    "adjoint.rhs": (_scalar(AdjointRHSKind, "'identity' or 'l'"), AdjointRHSKind.IDENTITY),
    "storage.stride": (_scalar(int, "an integer >= 1", lambda k: k >= 1), 1),
    "output.dir": (_scalar(str, "a path"), "out"),
    "seed": (_scalar(int, "an integer >= 0", lambda s: s >= 0), 0),
}


@dataclass(eq=False)
class RunConfig:
    """Validated experiment description.  ``initial`` and ``terminal`` are
    the read-only stacked pairs (2, *grid.shape) of the init.* and
    terminal.* presets, as checked on the configured grid.  Configs compare
    by identity: arrays have no single truth value to compare fields by."""

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
    initial: np.ndarray
    terminal: np.ndarray
    stride: int
    out_dir: str
    seed: int

    def grid(self) -> Grid:
        return Grid(self.dim, self.length, self.n)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.t_final, self.dt)

    def forward_problem(self) -> ForwardProblem:
        return ForwardProblem(
            coefficients=self.coefficients, grid=self.grid(), bc=self.bc,
            time_grid=self.time_grid(), scheme=self.scheme,
            initial=self.initial, stride=self.stride)


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

    values = {}
    for key, (read, default) in _ALL_KEYS.items():
        if key in entries:
            raw, lineno = entries[key]
            values[key] = read(raw, key, lineno, source)
        elif default is _REQUIRED:
            raise ConfigError(f"{source}: missing required key '{key}'")
        else:
            values[key] = default

    try:
        TimeGrid(values["time.t_final"], values["time.dt"])
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid time.dt: {exc} (line {entries['time.dt'][1]})")

    try:
        coefficients = Coefficients(**{name: values[f"coeff.{name}"]
                                       for name in (*_COEFF_NAMES, "alpha")})
    except CoefficientError as exc:
        key = f"coeff.{exc.coefficient}"
        raise ConfigError(f"{source}: invalid {key}: {exc} (line {entries[key][1]})")

    try:
        grid = Grid(values["dim"], values["domain.length"], values["grid.n"])
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid domain.length: {exc} "
                          f"(line {entries['domain.length'][1]})")
    fields = {}
    for key in ("init.u", "init.v", "terminal.u", "terminal.v"):
        fields[key] = field = values[key].evaluate(grid)
        if not np.all(np.isfinite(field)):
            raise ConfigError(f"{source}: non-finite values from preset '{key}' "
                              f"(line {entries[key][1]})")
        if key.startswith("init.") and float(np.min(field)) < 0.0:
            raise ConfigError(f"{source}: negative values from initial preset '{key}' "
                              f"(line {entries[key][1]}); initial data must be nonnegative")
    initial = np.stack((fields["init.u"], fields["init.v"]))
    terminal = np.stack((fields["terminal.u"], fields["terminal.v"]))
    initial.flags.writeable = terminal.flags.writeable = False

    return RunConfig(
        dim=values["dim"], length=values["domain.length"], n=values["grid.n"],
        t_final=values["time.t_final"], dt=values["time.dt"], scheme=values["scheme"],
        bc=values["bc"], coefficients=coefficients, eps=values["adjoint.eps"],
        rhs=values["adjoint.rhs"], initial=initial, terminal=terminal,
        stride=values["storage.stride"], out_dir=values["output.dir"], seed=values["seed"])


def parse_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(), source=str(p))
