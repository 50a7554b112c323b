"""State-selective field-ionization time-of-flight model and unmixing.

A rising field ramp ionizes higher-lying states earlier, so each basis
state produces an arrival-time distribution centered where the ramp
crosses its classical ionization threshold. Composite traces are
weighted sums of these basis traces; populations are recovered by
non-negative least squares, solved with the Lawson–Hanson active-set
method (Lawson & Hanson, *Solving Least Squares Problems*, 1974, ch. 23).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import float_rows, write_lines

# E_h / (e a0) in V/cm
ATOMIC_FIELD_V_PER_CM = 5.142e9


def classical_ionization_field(n_eff: float) -> float:
    """Classical ionization threshold, (E_h/(e a0)) / (16 n_eff^4), V/cm."""
    if n_eff <= 1:
        raise ValueError("n_eff must exceed 1")
    return ATOMIC_FIELD_V_PER_CM / (16.0 * n_eff**4)


@dataclass(frozen=True)
class IonizationModel:
    """Piecewise-linear field ramp with a Gaussian arrival-time kernel."""

    ramp_times: np.ndarray  # us, strictly increasing
    ramp_fields: np.ndarray  # V/cm, strictly increasing
    sigma_t: float  # us
    t0: float  # us, flight-time offset

    def __post_init__(self):
        times = np.asarray(self.ramp_times, dtype=float)
        fields = np.asarray(self.ramp_fields, dtype=float)
        object.__setattr__(self, "ramp_times", times)
        object.__setattr__(self, "ramp_fields", fields)
        if times.ndim != 1 or times.shape != fields.shape or len(times) < 2:
            raise ValueError("ramp needs matching 1-D time and field samples")
        for name, values in (("ramp_times", times), ("ramp_fields", fields)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {values.tolist()!r}")
        if np.any(np.diff(times) <= 0) or np.any(np.diff(fields) <= 0):
            raise ValueError("ramp must be strictly increasing")
        if not 0 < self.sigma_t < np.inf:
            raise ValueError(f"sigma_t must be positive and finite, got {self.sigma_t!r}")
        if not np.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0!r}")

    def field_at(self, t):
        return np.interp(t, self.ramp_times, self.ramp_fields)

    def time_of_field(self, field: float) -> float:
        """Inverse of the ramp; errors when the field is never reached."""
        if field > self.ramp_fields[-1]:
            raise ValueError(
                f"field {field:.3g} V/cm exceeds the ramp maximum "
                f"{self.ramp_fields[-1]:.3g} V/cm: state never ionizes"
            )
        if field < self.ramp_fields[0]:
            raise ValueError("field below the start of the ramp")
        return float(np.interp(field, self.ramp_fields, self.ramp_times))


@dataclass(frozen=True)
class TofTrace:
    times: np.ndarray
    current: np.ndarray
    area_normalized: bool = False

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        current = np.asarray(self.current, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "current", current)
        if times.shape != current.shape or times.ndim != 1:
            raise ValueError("times and current must be matching 1-D arrays")
        for name, values in (("times", times), ("current", current)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"trace {name} must be finite")
        if np.any(current < 0):
            raise ValueError("current must be non-negative")
        if self.area_normalized:
            area = np.trapezoid(current, times)
            if abs(area - 1.0) > 1e-9:
                raise ValueError(f"trace flagged normalized but area = {area}")


@dataclass(frozen=True)
class BasisSet:
    labels: tuple
    n_eff: tuple
    times: np.ndarray
    traces: np.ndarray  # shape (n_states, len(times))

    def __post_init__(self):
        if self.traces.shape != (len(self.labels), len(self.times)):
            raise ValueError("traces must be shaped (n_states, n_times)")
        if len(self.labels) != len(self.n_eff):
            raise ValueError("labels and n_eff must pair up")


def basis_trace(n_eff: float, model: IonizationModel, grid: np.ndarray) -> TofTrace:
    """Arrival-time distribution of one state: a normalized Gaussian at
    t0 plus the ramp time reaching that state's ionization threshold."""
    grid = np.asarray(grid, dtype=float)
    center = model.t0 + model.time_of_field(classical_ionization_field(n_eff))
    profile = np.exp(-0.5 * ((grid - center) / model.sigma_t) ** 2)
    area = np.trapezoid(profile, grid)
    if area == 0.0:
        raise ValueError("grid does not cover the arrival peak")
    return TofTrace(times=grid, current=profile / area, area_normalized=True)


def make_basis(labels, n_eff, model: IonizationModel, grid: np.ndarray) -> BasisSet:
    traces = np.stack([basis_trace(n, model, grid).current for n in n_eff])
    return BasisSet(labels=tuple(labels), n_eff=tuple(float(n) for n in n_eff),
                    times=np.asarray(grid, dtype=float), traces=traces)


def synthesize_trace(
    weights, basis: BasisSet, noise_amplitude: float = 0.0, seed: int | None = None
) -> TofTrace:
    """Weighted sum of basis traces plus seeded Gaussian noise, clipped at 0."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(basis.labels),):
        raise ValueError("one weight per basis state required")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    if not 0.0 <= noise_amplitude < np.inf:
        raise ValueError(f"noise_amplitude must be non-negative and finite, got {noise_amplitude!r}")
    current = weights @ basis.traces
    if noise_amplitude > 0.0:
        rng = np.random.default_rng(seed)
        scale = noise_amplitude * float(np.max(basis.traces))
        current = current + rng.normal(0.0, scale, size=current.shape)
    current = np.clip(current, 0.0, None)
    return TofTrace(times=basis.times, current=current, area_normalized=False)


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple:
    """Lawson–Hanson active-set solution of min ||a x - b|| subject to x >= 0.

    Returns (x, ||a x - b||). Each outer iteration frees the column with the
    largest gradient; the inner loop steps back along the segment to the
    least-squares solution on the free (passive) columns until that solution
    is positive. Raises RuntimeError after 3 n outer iterations.
    """
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    # a gradient below rounding noise of a^T b counts as zero
    tol = 10.0 * max(m, n) * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * np.abs(b).max(initial=0.0)
    for _ in range(3 * n + 1):  # at most 3 n columns freed, each after a convergence test
        gradient = a.T @ (b - a @ x)
        if passive.all() or gradient[~passive].max() <= tol:
            return x, float(np.linalg.norm(a @ x - b))
        passive[np.argmax(np.where(passive, -np.inf, gradient))] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocked = np.flatnonzero(passive & (s < 0.0))
            if blocked.size == 0:
                break
            steps = x[blocked] / (x[blocked] - s[blocked])
            x = x + steps.min() * (s - x)
            x[blocked[np.argmin(steps)]] = 0.0
            passive &= x > 0.0
        x = s
    raise RuntimeError(f"NNLS did not converge in {3 * n} iterations")


def decompose_trace(
    trace: TofTrace, basis: BasisSet, normalize: bool = False
) -> tuple:
    """Non-negative least squares unmixing of a composite trace.

    Returns (weights, residual_norm). The weights come from the
    Lawson–Hanson active-set method and satisfy the KKT conditions of
    min ||A w - y||^2 with w >= 0. With normalize, weights are rescaled
    to sum to 1 after the fit.
    """
    if trace.times.shape != basis.times.shape or not np.allclose(
        trace.times, basis.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trace and basis must share one time grid")
    a = basis.traces.T
    rank = np.linalg.matrix_rank(a)
    if rank < a.shape[1]:
        cond = np.linalg.cond(a)
        warnings.warn(
            f"basis is rank-deficient (rank {rank} < {a.shape[1]}, "
            f"condition estimate {cond:.3g}); weights may not be unique",
            RuntimeWarning,
            stacklevel=2,
        )
    weights, residual = _nnls(a, trace.current)
    if normalize:
        total = weights.sum()
        if total > 0:
            weights = weights / total
    return weights, residual


def write_trace_csv(trace: TofTrace, path: str) -> None:
    write_lines(["time_us,current"] + float_rows(trace.times, trace.current), path)


def read_trace_csv(path: str) -> TofTrace:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return TofTrace(times=data[:, 0], current=data[:, 1])


def write_basis_csv(basis: BasisSet, path: str) -> None:
    header = "time_us," + ",".join(basis.labels)
    write_lines([header] + float_rows(basis.times, basis.traces.T), path)
