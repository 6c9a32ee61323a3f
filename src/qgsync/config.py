"""Flat dotted-key run configuration with strict validation.

The configuration file format is one `key = value` pair per line, `#`
comments allowed.  Unknown keys are errors, not warnings: a silent typo in
the viscosity or a noise amplitude would quietly invalidate every verdict
the harness emits.  All randomness flows from the `seeds` list; nothing
reads the clock or OS entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import GridSpec
from .noise import ConfigError, CovarianceSpec, ModelParams, NoiseStream, OUKernel


@dataclass
class RunConfig:
    """Validated experiment settings; defaults give the small-noise desk setup."""

    grid_n: int = 32
    nu: float = 1.0
    r: float = 1.0
    beta: float = 0.1
    q1_amplitude: float = 2.5e-4
    q1_decay: float = 3.0
    q2_amplitude: float = 2e-5
    q2_decay: float = 2.5
    cutoff: int = 8
    dt: float = 0.01
    t_end: float = 10.0
    burn: float = 5.0
    rho_window: float | None = None  # None = automatic window
    mc_samples: int = 200
    seeds: tuple = tuple(range(1, 17))
    output_dir: str = "out"

    def __post_init__(self):
        for key, value in (
            ("time.dt", self.dt),
            ("time.t_end", self.t_end),
            ("time.burn", self.burn),
            ("rho.window", self.rho_window),
        ):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.dt <= 0:
            raise ConfigError(f"time.dt must be positive, got {self.dt}")
        if self.t_end <= 0:
            raise ConfigError(f"time.t_end must be positive, got {self.t_end}")
        if self.burn < 0 or self.burn >= self.t_end:
            raise ConfigError("time.burn must satisfy 0 <= burn < t_end")
        if self.mc_samples < 100:
            raise ConfigError("mc.samples must be at least 100")
        if self.rho_window is not None and self.rho_window <= 0:
            raise ConfigError("rho.window must be positive or auto")
        stream = NoiseStream(seed=0, dt=self.dt)
        for key, value in (("time.t_end", self.t_end), ("time.burn", self.burn)):
            try:
                stream.steps_for(value)
            except ConfigError:
                raise ConfigError(
                    f"{key} = {value} is not a whole multiple of time.dt = {self.dt}"
                ) from None
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {','.join(map(str, self.seeds))}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {','.join(map(str, self.seeds))}")
        # construct the validated domain objects eagerly so that every
        # constraint of the underlying modules fires at parse time
        self.grid()
        if self.cutoff > self.grid_n - 1:
            raise ConfigError(
                f"noise.cutoff = {self.cutoff} exceeds grid.n - 1 = {self.grid_n - 1}"
            )
        self.params()
        self.cov1()
        try:
            self.cov2()
        except MemoryError:
            # the interior covariance is the first (n+1, n+1) lattice array
            raise ConfigError(
                f"grid.n = {self.grid_n} needs lattice arrays too large to allocate"
            ) from None

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_n)

    def params(self) -> ModelParams:
        return ModelParams(nu=self.nu, r=self.r, beta=self.beta)

    def cov1(self) -> CovarianceSpec:
        spec = CovarianceSpec(self.q1_amplitude, self.q1_decay, self.cutoff)
        spec.boundary_variances(self.grid())
        return spec

    def cov2(self) -> CovarianceSpec:
        spec = CovarianceSpec(self.q2_amplitude, self.q2_decay, self.cutoff)
        spec.interior_variances(self.grid())
        return spec

    def kernel(self) -> OUKernel:
        """The run's one coefficient kernel and its model, which every experiment of a subcommand shares."""
        return OUKernel(self.grid(), self.params(), self.cov1(), self.cov2(), self.dt)

    def to_flat_dict(self) -> dict:
        """The settings under their configuration keys, in `_KEY_PARSERS` order."""
        flat = {key: getattr(self, attr) for key, (attr, _) in _KEY_PARSERS.items()}
        flat["rho.window"] = "auto" if self.rho_window is None else self.rho_window
        flat["seeds"] = ",".join(str(s) for s in self.seeds)
        return flat


_KEY_PARSERS = {
    "grid.n": ("grid_n", int),
    "params.nu": ("nu", float),
    "params.r": ("r", float),
    "params.beta": ("beta", float),
    "noise.q1_amplitude": ("q1_amplitude", float),
    "noise.q1_decay": ("q1_decay", float),
    "noise.q2_amplitude": ("q2_amplitude", float),
    "noise.q2_decay": ("q2_decay", float),
    "noise.cutoff": ("cutoff", int),
    "time.dt": ("dt", float),
    "time.t_end": ("t_end", float),
    "time.burn": ("burn", float),
    "rho.window": ("rho_window", lambda v: None if v.strip() == "auto" else float(v)),
    "mc.samples": ("mc_samples", int),
    "seeds": ("seeds", lambda v: tuple(int(s) for s in v.split(",") if s.strip())),
    "output.dir": ("output_dir", str),
}


def config_from_flat(items: dict) -> RunConfig:
    kwargs = {}
    for key, raw in items.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown configuration key: {key!r}")
        attr, parse = _KEY_PARSERS[key]
        try:
            kwargs[attr] = parse(str(raw))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    return RunConfig(**kwargs)


def parse_config(path) -> RunConfig:
    """Read a key=value file; every line must be blank, comment or known key."""
    items = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in items:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            items[key] = value.strip()
    return config_from_flat(items)
