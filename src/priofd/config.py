"""System configuration: one homogeneous fleet, fully numeric, file backed.

The config file is the single source of plant matrices, feedback gains,
noise covariance, priority weight, network parameters, detector parameters
(eta, d, b), run length, warm-up and the quantization scale; calibration
and evaluation both read them from here. Matrices are stored row-major
with declared dimensions so reference values can be substituted without
touching code.
Gains are computed once at config-build time (make-config) and the
simulator only ever consumes the stored numbers.

Validation refuses configs whose stacked closed loop A + BF has spectral
radius >= 1 unless allow_unstable is set (deliberate fault studies); the
fault scenarios shipped here mutate plants mid-run and keep a stable
nominal config.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import design
from .dynamics import Fleet
from .errors import ConfigError
from .priority import SCALE_FIT_PERCENTILE

log = logging.getLogger(__name__)

CONFIG_VERSION = 1
MATRICES = ("A", "B", "F_self", "F_cross", "noise_cov", "priority_weight")


def encode_matrix(mat: np.ndarray) -> dict:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return {"rows": int(mat.shape[0]), "cols": int(mat.shape[1]),
            "data": [float(x) for x in mat.ravel(order="C")]}


def decode_matrix(doc: dict, name: str) -> np.ndarray:
    try:
        rows = read_key(doc, "rows", dimension)
        cols = read_key(doc, "cols", dimension)
        data = read_key(doc, "data",
                        lambda v: np.array([finite(x) for x in v], dtype=float))
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if len(data) != rows * cols:
        raise ConfigError(f"{name}: {rows}x{cols} declared but "
                          f"{len(data)} entries given")
    return data.reshape(rows, cols)


def read_key(doc: dict, key: str, cast, *default):
    """cast(doc[key]), or cast(default) for an absent key if one is given; a
    missing key or a value cast refuses is a ConfigError naming the key."""
    if not isinstance(doc, dict) or (key not in doc and not default):
        raise ConfigError(f"missing key {key!r}")
    try:
        return cast(doc[key] if key in doc else default[0])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def integer(value) -> int:
    """A JSON integer, or a float with an integral value; refuses booleans
    and fractions, which int() would silently accept or truncate."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def boolean(value) -> bool:
    """A JSON true or false; refuses strings and numbers, which bool() would
    read as True whenever they are non-empty or non-zero."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def text(value) -> str:
    """A JSON string; refuses null, numbers and lists, which str() would
    turn into "None" or a repr."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def dimension(value) -> int:
    """A matrix dimension: an integer >= 1."""
    n = integer(value)
    if n < 1:
        raise ValueError(f"expected a dimension >= 1, got {n}")
    return n


def finite(value) -> float:
    """A finite JSON number; refuses booleans, strings, NaN and infinities."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def load_json(path: str | Path, parse):
    """parse(doc) of the JSON file at path; a missing file, invalid JSON or
    a ConfigError from parse becomes a ConfigError naming the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def check_run(eta: float, d: int, b: int, rounds: int,
              warmup_discard: int) -> None:
    """Detector parameters and run length: a window of d rounds must fit
    after the warm-up, whose rounds no rate or sample counts."""
    if not 0 < eta < 1:
        raise ConfigError(f"eta must be in (0, 1), got {eta}")
    if d < 1 or b < 1:
        raise ConfigError("d and b must be >= 1")
    if warmup_discard < 0:
        raise ConfigError(f"warmup_discard must be >= 0, got {warmup_discard}")
    if rounds < warmup_discard + d:
        raise ConfigError(f"rounds={rounds} is shorter than "
                          f"warmup_discard + d = {warmup_discard + d}")


@dataclass
class SystemConfig:
    name: str
    n_agents: int
    bandwidth: int
    A: np.ndarray
    B: np.ndarray
    F_self: np.ndarray
    F_cross: np.ndarray
    noise_cov: np.ndarray
    priority_weight: np.ndarray
    quant_scale: float | None
    eta: float = 0.01
    d: int = 10
    b: int = 40
    rounds: int = 300
    warmup_discard: int = 50
    allow_unstable: bool = False
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for attr in MATRICES:
            setattr(self, attr, np.asarray(getattr(self, attr), dtype=float))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def models(self) -> Fleet:
        """The fleet: F_cross between every pair of agents, one noise
        covariance for all (Fleet validates dimensions and PSD)."""
        N, cov = self.n_agents, self.noise_cov
        return Fleet(self.A, self.B, self.F_self,
                     np.kron(1 - np.eye(N), self.F_cross),
                     np.broadcast_to(cov, (N, *cov.shape)),
                     self.priority_weight)

    def validate(self) -> None:
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        if not 1 <= self.bandwidth:
            raise ConfigError("bandwidth must be >= 1")
        check_run(self.eta, self.d, self.b, self.rounds, self.warmup_discard)
        if self.quant_scale is not None and self.quant_scale <= 0:
            raise ConfigError("quant_scale must be positive")
        fleet = self.models()  # dimension + PSD checks
        rho = design.closed_loop_spectral_radius(fleet)
        if rho >= 1.0:
            if not self.allow_unstable:
                raise ConfigError(
                    f"stacked closed loop has spectral radius {rho:.4f} >= 1; "
                    "set allow_unstable for deliberate unstable studies")
            log.warning("running with an unstable closed loop "
                        "(spectral radius %.4f)", rho)
        rho_self = float(np.max(np.abs(np.linalg.eigvals(fleet.closed_loop))))
        if rho_self >= 1.0:
            log.warning("per-agent error propagation A + B F_self has "
                        "spectral radius %.4f >= 1; estimation errors will "
                        "diverge without communication", rho_self)

    def require_scale(self) -> float:
        if self.quant_scale is None:
            raise ConfigError("config has no quantization scale; run "
                              "make-config (or fit one) first")
        return float(self.quant_scale)

    def to_dict(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "name": self.name,
            "n_agents": self.n_agents,
            "bandwidth": self.bandwidth,
            "matrices": {k: encode_matrix(getattr(self, k)) for k in MATRICES},
            "quant_scale": self.quant_scale,
            "detector": {"eta": self.eta, "d": self.d, "b": self.b},
            "run": {"rounds": self.rounds,
                    "warmup_discard": self.warmup_discard},
            "allow_unstable": self.allow_unstable,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SystemConfig":
        if read_key(doc, "version", integer) != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {doc['version']}")
        mats = read_key(doc, "matrices", dict)
        det, run = read_key(doc, "detector", dict), read_key(doc, "run", dict)
        return cls(
            name=read_key(doc, "name", text),
            n_agents=read_key(doc, "n_agents", integer),
            bandwidth=read_key(doc, "bandwidth", integer),
            **{k: decode_matrix(read_key(mats, k, dict), f"matrices.{k}")
               for k in MATRICES},
            quant_scale=read_key(doc, "quant_scale",
                                 lambda v: None if v is None else finite(v)),
            eta=read_key(det, "eta", finite), d=read_key(det, "d", integer),
            b=read_key(det, "b", integer),
            rounds=read_key(run, "rounds", integer),
            warmup_discard=read_key(run, "warmup_discard", integer),
            allow_unstable=read_key(doc, "allow_unstable", boolean, False),
            provenance=read_key(doc, "provenance", dict, {}),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SystemConfig":
        cfg = load_json(path, cls.from_dict)
        cfg.validate()
        return cfg

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


PRESET_SIZES = {"desk": (6, 2), "full": (20, 2)}


def build_preset(preset: str = "desk", seed: int = 0,
                 eta: float = SystemConfig.eta, d: int = SystemConfig.d,
                 b: int = SystemConfig.b, rounds: int = SystemConfig.rounds,
                 scale_fit_runs: int = 200,
                 fit_scale: bool = True) -> SystemConfig:
    """Cart-pole fleet config with LQR gains and (optionally) a fitted
    quantization scale. Pure function of its arguments."""
    if preset not in PRESET_SIZES:
        raise ConfigError(f"unknown preset {preset!r} "
                          f"(available: {sorted(PRESET_SIZES)})")
    n_agents, bandwidth = PRESET_SIZES[preset]
    ac, bc = design.cartpole_continuous()
    a, bmat = design.discretize_zoh(ac, bc)
    q_self = np.diag([1.0, 1.0, 0.0, 0.0])
    q_sync = np.diag([1000.0, 0.0, 0.0, 0.0])
    r = np.array([[0.1]])
    f_self, f_cross = design.sync_lqr_gains(a, bmat, n_agents, q_self,
                                            q_sync, r)
    cfg = SystemConfig(
        name=f"cartpole-{preset}", n_agents=n_agents, bandwidth=bandwidth,
        A=a, B=bmat, F_self=f_self, F_cross=f_cross,
        noise_cov=3e-4 * np.eye(4), priority_weight=np.eye(4),
        quant_scale=None, eta=eta, d=d, b=b, rounds=rounds,
        provenance={
            "plant": "cart-pole linearized at upright, ZOH at 10 Hz",
            "cart_mass": design.CART_MASS, "pole_mass": design.POLE_MASS,
            "pole_length": design.POLE_LENGTH, "gravity": design.GRAVITY,
            "lqr": {"q_self": encode_matrix(q_self),
                    "q_sync": encode_matrix(q_sync),
                    "r": encode_matrix(r)},
        },
    )
    cfg.validate()
    if fit_scale:
        from .calibration import fit_quantization_scale
        cfg.quant_scale = fit_quantization_scale(
            cfg.models(), bandwidth, runs=scale_fit_runs, run_length=rounds,
            seed=seed, warmup_discard=cfg.warmup_discard)
        cfg.provenance["scale_fit"] = {"runs": scale_fit_runs, "seed": seed,
                                       "percentile": SCALE_FIT_PERCENTILE}
    return cfg
