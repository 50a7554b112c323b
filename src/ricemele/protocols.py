"""Closed pump trajectories in (J1, J2, delta) space and their topology.

Two parameterizations are provided. The smooth "experimental" schedule
keeps J1 + J2 = J0 and traces an ellipse in the (J1 - J2, delta) plane.
The "control_freak" schedule ramps parameters linearly through four
stages per period so that at least one coupling is zero at all times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import TWO_PI, ParameterPoint

KINDS = ("experimental", "control_freak")


@dataclass(frozen=True)
class PumpProtocol:
    kind: str
    j_max: float  # J0, shared maximum of J1 and J2 (rad/us)
    delta0: float  # imbalance modulation amplitude (rad/us)
    delta_offset: float = 0.0  # static imbalance offset (rad/us)
    period: float = 1.0  # pump-cycle period T (us)
    n_cycles: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not 0 < self.j_max < np.inf:
            raise ValueError(f"j_max must be positive and finite, got {self.j_max!r}")
        if not 0 <= self.delta0 < np.inf:
            raise ValueError(f"delta0 must be non-negative and finite, got {self.delta0!r}")
        if not np.isfinite(self.delta_offset):
            raise ValueError(f"delta_offset must be finite, got {self.delta_offset!r}")
        if not 0 < self.period < np.inf:
            raise ValueError(f"period must be positive and finite, got {self.period!r}")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be at least 1")

    @property
    def duration(self) -> float:
        return self.n_cycles * self.period


def _experimental(protocol: PumpProtocol, t):
    theta = TWO_PI * np.asarray(t, dtype=float) / protocol.period
    cos = np.cos(theta)
    j1 = protocol.j_max * (1.0 + cos) / 2.0
    j2 = protocol.j_max * (1.0 - cos) / 2.0
    delta = protocol.delta_offset + protocol.delta0 * np.sin(theta)
    return j1, j2, delta


def _control_freak(protocol: PumpProtocol, t):
    x = np.mod(np.asarray(t, dtype=float) / protocol.period, 1.0)
    # s runs 0..1 within each quarter stage
    s = (x % 0.25) / 0.25
    stage = np.minimum((x / 0.25).astype(int), 3)
    j0, d0, off = protocol.j_max, protocol.delta0, protocol.delta_offset
    j1 = np.choose(stage, [j0 * (1 - s), 0.0 * s, 0.0 * s, j0 * s])
    j2 = np.choose(stage, [0.0 * s, j0 * s, j0 * (1 - s), 0.0 * s])
    delta = off + np.choose(stage, [d0 * s, d0 * (1 - s), -d0 * s, -d0 * (1 - s)])
    return j1, j2, delta


def sample_trajectory(protocol: PumpProtocol, t):
    """Parameter point(s) at time t in [0, n_cycles * period].

    Scalar t returns a ParameterPoint; an array returns (j1, j2, delta) arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0) & (t_arr <= protocol.duration + 1e-12)):  # NaN fails too
        raise ValueError("t outside [0, n_cycles * period]")
    fn = _experimental if protocol.kind == "experimental" else _control_freak
    j1, j2, delta = fn(protocol, t_arr)
    if np.isscalar(t) or t_arr.ndim == 0:
        return ParameterPoint(float(j1), float(j2), float(delta))
    return j1, j2, delta


def winding_number(protocol: PumpProtocol) -> tuple[int, bool]:
    """Signed windings of (J1 - J2, delta) around the origin over one period,
    sampled at 256 equal steps.

    Returns (winding, degenerate). The degenerate flag is set when the
    curve passes within 1e-9 * max(J0, delta0) of the origin, in which
    case the winding is reported as 0 (gap closes on the path).
    """
    t = np.linspace(0.0, protocol.period, 257)
    j1, j2, delta = sample_trajectory(replace(protocol, n_cycles=1), t)
    x = j1 - j2
    y = delta
    r = np.hypot(x, y)
    tol = 1e-9 * max(protocol.j_max, protocol.delta0)
    if np.all(r <= tol):
        raise ValueError("degenerate trajectory: identically zero radius")
    if np.any(r <= tol):
        return 0, True
    ang = np.angle(x + 1j * y)
    dang = np.diff(ang)
    dang = (dang + np.pi) % TWO_PI - np.pi
    total = dang.sum() / TWO_PI
    return int(np.rint(total)), False


def classify_regime(protocol: PumpProtocol) -> str:
    """'topological' when the loop encircles the origin, else 'trivial';
    'boundary' when the loop touches the origin within tolerance."""
    w, degenerate = winding_number(protocol)
    if degenerate:
        return "boundary"
    return "topological" if abs(w) >= 1 else "trivial"
