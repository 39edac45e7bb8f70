"""Declarative fault and disturbance injection.

A scenario is a list of (round, mutation) events; the round engine
(simulate.run_lockstep) applies them at the start of the named round.
Mutations touch only the plant and the network: an actuator failure zeroes
B in the plant while every estimator keeps the original model (this
mismatch is what the detectors must pick up), a bandwidth change alters M
at the selection stage (in-flight winner sets still deliver), and a
disturbance adds extra zero-mean noise to one plant for a fixed number of
rounds.

The two simulation scenarios ship as presets: "actuator-failure" (B := 0
for a subset of agents at k=100) and "bandwidth-loss" (M: 2 -> 1 at
k=100). "shaken-pole" emulates the hardware fault by shaking the angle
states hard enough that priorities saturate within a few rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import finite, integer, load_json, read_key
from .dynamics import _psd_factor
from .errors import ConfigError


def _rows(value) -> tuple[tuple[float, ...], ...]:
    """A matrix as rows of finite numbers, all of one length."""
    rows = tuple(tuple(map(finite, row)) for row in value)
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows of unequal length")
    return rows


@dataclass(frozen=True)
class Event:
    k: int
    kind: str               # set_B_zero | set_bandwidth | add_disturbance
    agents: tuple[int, ...] = ()
    bandwidth: int = 0
    covariance: tuple[tuple[float, ...], ...] = ()
    duration: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        kind = read_key(d, "kind", str)
        if kind not in ("set_B_zero", "set_bandwidth", "add_disturbance"):
            raise ConfigError(f"unknown scenario mutation {kind!r}")
        return cls(k=read_key(d, "k", integer), kind=kind,
                   agents=read_key(d, "agents",
                                   lambda v: tuple(map(integer, v)), ()),
                   bandwidth=read_key(d, "bandwidth", integer, 0),
                   covariance=read_key(d, "covariance", _rows, ()),
                   duration=read_key(d, "duration", integer, 0))


@dataclass
class Scenario:
    name: str
    events: list[Event] = field(default_factory=list)

    def __post_init__(self):
        self.events = sorted(self.events, key=lambda e: e.k)

    @property
    def first_event_round(self) -> int | None:
        return self.events[0].k if self.events else None

    def faulty_agents(self) -> tuple[int, ...]:
        out: list[int] = []
        for ev in self.events:
            if ev.kind in ("set_B_zero", "add_disturbance"):
                out.extend(ev.agents)
        return tuple(sorted(set(out)))

    def check_fits(self, rounds: int, n_agents: int, n: int) -> None:
        """Refuse events that a run of this length and fleet never applies,
        plant events that name no agent, and events that cannot apply: a
        bandwidth below 1, a disturbance shorter than one round or with a
        covariance that is not n x n, symmetric and PSD."""
        for ev in self.events:
            if ev.kind != "set_bandwidth" and not ev.agents:
                raise ConfigError(f"scenario {self.name!r}: {ev.kind} event "
                                  f"at k={ev.k} names no agent")
            if not (0 <= ev.k < rounds
                    and all(1 <= a <= n_agents for a in ev.agents)):
                raise ConfigError(
                    f"scenario {self.name!r}: event at k={ev.k} on agents "
                    f"{ev.agents} falls outside rounds 0..{rounds - 1} or "
                    f"agents 1..{n_agents}")
            if ev.kind == "set_bandwidth" and ev.bandwidth <= 0:
                raise ConfigError(f"bandwidth event at k={ev.k} must be positive")
            if ev.kind == "add_disturbance" and ev.duration < 1:
                raise ConfigError(f"disturbance at k={ev.k} has duration "
                                  f"{ev.duration} < 1")
            if ev.kind == "add_disturbance" and np.shape(ev.covariance) != (n, n):
                raise ConfigError(
                    f"disturbance covariance shape {np.shape(ev.covariance)} "
                    f"does not match state dimension {n}")
            if ev.kind == "add_disturbance":
                _psd_factor(np.array(ev.covariance),
                            f"disturbance covariance at k={ev.k}")

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        return load_json(path, lambda doc: cls(read_key(doc, "name", str), [
            Event.from_dict(e) for e in read_key(doc, "events", list)]))


def fault_free() -> Scenario:
    return Scenario("fault-free", [])


def actuator_failure(agents: tuple[int, ...] = (2, 3, 4, 5),
                     k: int = 100) -> Scenario:
    return Scenario("actuator-failure",
                    [Event(k=k, kind="set_B_zero", agents=tuple(agents))])


def bandwidth_loss(bandwidth: int = 1, k: int = 100) -> Scenario:
    return Scenario("bandwidth-loss",
                    [Event(k=k, kind="set_bandwidth", bandwidth=bandwidth)])


def shaken_pole(agent: int = 2, k: int = 100, duration: int = 60,
                angle_std: float = 0.05, n: int = 4) -> Scenario:
    """Zero-mean shaking on the angle and angular-velocity states, strong
    enough that the agent's priority saturates within a few rounds."""
    cov = np.zeros((n, n))
    cov[1, 1] = angle_std ** 2
    cov[3, 3] = (4.0 * angle_std) ** 2
    return Scenario("shaken-pole", [Event(
        k=k, kind="add_disturbance", agents=(agent,),
        covariance=tuple(tuple(row) for row in cov), duration=duration)])


PRESETS = {
    "fault-free": fault_free,
    "actuator-failure": actuator_failure,
    "bandwidth-loss": bandwidth_loss,
    "shaken-pole": shaken_pole,
}


def resolve_scenario(name_or_path: str | None) -> Scenario:
    """Preset name, path to a scenario JSON file, or None (fault free)."""
    if name_or_path is None or name_or_path == "none":
        return fault_free()
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    path = Path(name_or_path)
    if path.exists():
        return Scenario.load(path)
    raise ConfigError(f"unknown scenario {name_or_path!r} (presets: "
                      f"{', '.join(sorted(PRESETS))}, or a JSON file path)")
