"""Field-ionization thresholds, time-of-flight synthesis, and unmixing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from ricemele import defaults
from ricemele.readout import (
    BasisSet,
    IonizationModel,
    TofTrace,
    basis_trace,
    classical_ionization_field,
    decompose_trace,
    make_basis,
    read_trace_csv,
    synthesize_trace,
    write_basis_csv,
    write_trace_csv,
)
from ricemele.readout import _nnls


def default_model():
    r = defaults.READOUT
    return IonizationModel(np.asarray(r["ramp_times"], dtype=float),
                           np.asarray(r["ramp_fields"], dtype=float),
                           r["sigma_t"], r["t0"])


def default_grid():
    lo, hi, n = defaults.READOUT["grid"]
    return np.linspace(lo, hi, int(n))


def default_basis():
    return make_basis(defaults.READOUT["labels"], defaults.READOUT["n_eff"],
                      default_model(), default_grid())


def test_ionization_field_reference_value():
    # 5.142e9 / (16 * 56^4) V/cm
    assert classical_ionization_field(56.0) == pytest.approx(32.678, rel=1e-3)


def test_ionization_field_quartic_scaling():
    assert classical_ionization_field(30.0) / classical_ionization_field(60.0) == pytest.approx(
        16.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        classical_ionization_field(1.0)


def test_ramp_inverse_round_trip():
    model = IonizationModel(np.array([0.0, 1.0, 3.0]), np.array([0.0, 40.0, 70.0]),
                            0.01, 0.5)
    for field in (5.0, 40.0, 55.0, 70.0):
        t = model.time_of_field(field)
        assert model.field_at(t) == pytest.approx(field, rel=1e-12)
    with pytest.raises(ValueError):
        model.time_of_field(70.1)  # state never ionizes on this ramp
    with pytest.raises(ValueError):
        model.time_of_field(-1.0)


def test_ionization_model_validation():
    good_t = np.array([0.0, 1.0])
    good_f = np.array([0.0, 70.0])
    with pytest.raises(ValueError):
        IonizationModel(np.array([0.0, 0.0]), good_f, 0.01, 0.5)
    with pytest.raises(ValueError):
        IonizationModel(good_t, np.array([70.0, 0.0]), 0.01, 0.5)
    with pytest.raises(ValueError):
        IonizationModel(good_t, good_f, 0.0, 0.5)
    with pytest.raises(ValueError):
        IonizationModel(np.array([0.0]), np.array([0.0]), 0.01, 0.5)
    with pytest.raises(ValueError, match="t0 must be finite, got nan"):
        IonizationModel(good_t, good_f, 0.01, np.nan)
    with pytest.raises(ValueError, match=r"ramp_times must be finite, got \[0.0, nan\]"):
        IonizationModel(np.array([0.0, np.nan]), good_f, 0.01, 0.5)
    with pytest.raises(ValueError, match=r"ramp_fields must be finite, got \[0.0, inf\]"):
        IonizationModel(good_t, np.array([0.0, np.inf]), 0.01, 0.5)


def test_tof_trace_validation():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        TofTrace(t, -np.ones(11))
    with pytest.raises(ValueError):
        TofTrace(t, np.ones(10))
    with pytest.raises(ValueError):
        TofTrace(t, np.full(11, 2.0), area_normalized=True)
    # a flat unit trace over a unit window really is area-normalized
    TofTrace(t, np.ones(11), area_normalized=True)


def test_basis_trace_is_area_normalized_gaussian():
    model = default_model()
    grid = default_grid()
    trace = basis_trace(52.44, model, grid)
    assert trace.area_normalized
    assert np.trapezoid(trace.current, grid) == pytest.approx(1.0, abs=1e-9)
    center_expected = model.t0 + model.time_of_field(classical_ionization_field(52.44))
    assert grid[np.argmax(trace.current)] == pytest.approx(center_expected, abs=0.002)


def test_basis_trace_needs_grid_coverage():
    model = default_model()
    far_grid = np.linspace(30.0, 31.0, 64)
    with pytest.raises(ValueError):
        basis_trace(52.44, model, far_grid)


def test_arrival_times_increase_with_binding():
    """Higher-n states ionize at lower fields and arrive earlier."""
    model = default_model()
    centers = [
        model.t0 + model.time_of_field(classical_ionization_field(n))
        for n in defaults.READOUT["n_eff"]
    ]
    assert np.all(np.diff(centers) < 0)  # n_eff listed in increasing order


def test_make_basis_shapes_and_labels():
    basis = default_basis()
    assert basis.traces.shape == (6, 601)
    assert basis.labels == defaults.READOUT["labels"]
    with pytest.raises(ValueError):
        BasisSet(("a",), (50.0, 51.0), basis.times, basis.traces[:1])
    with pytest.raises(ValueError):
        BasisSet(("a", "b"), (50.0, 51.0), basis.times, basis.traces[:1])


def test_synthesize_trace_validation_and_determinism():
    basis = default_basis()
    w = np.full(6, 1 / 6)
    with pytest.raises(ValueError):
        synthesize_trace(w[:5], basis)
    with pytest.raises(ValueError):
        synthesize_trace(np.array([1.2, -0.2, 0, 0, 0, 0.0]), basis)
    with pytest.raises(ValueError):
        synthesize_trace(w * 1.5, basis)
    for noise in (-0.05, np.nan, np.inf):
        with pytest.raises(ValueError):
            synthesize_trace(w, basis, noise_amplitude=noise)
    clean = synthesize_trace(w, basis)
    np.testing.assert_allclose(clean.current, w @ basis.traces, atol=0.0)
    a = synthesize_trace(w, basis, noise_amplitude=0.05, seed=123)
    b = synthesize_trace(w, basis, noise_amplitude=0.05, seed=123)
    c = synthesize_trace(w, basis, noise_amplitude=0.05, seed=124)
    assert np.array_equal(a.current, b.current)
    assert not np.array_equal(a.current, c.current)
    assert np.all(a.current >= 0.0)


def test_decompose_noiseless_recovers_weights_exactly():
    basis = default_basis()
    weights = np.array([0.05, 0.25, 0.1, 0.3, 0.2, 0.1])
    trace = synthesize_trace(weights, basis)
    recovered, residual = decompose_trace(trace, basis)
    np.testing.assert_allclose(recovered, weights, atol=1e-6)
    assert residual < 1e-8


def test_decompose_satisfies_kkt_conditions():
    basis = default_basis()
    weights = np.array([0.0, 0.35, 0.0, 0.3, 0.25, 0.1])
    trace = synthesize_trace(weights, basis, noise_amplitude=0.05, seed=11)
    recovered, _ = decompose_trace(trace, basis)
    a = basis.traces.T
    gradient = a.T @ (a @ recovered - trace.current)
    active = recovered > 0
    # stationarity on the support, non-negative gradient off it
    assert np.max(np.abs(gradient[active])) < 1e-8 * np.max(np.abs(a.T @ trace.current))
    assert np.all(gradient[~active] >= -1e-10)


def test_decompose_with_noise_stays_close():
    basis = default_basis()
    weights = np.array([0.05, 0.25, 0.1, 0.3, 0.2, 0.1])
    trace = synthesize_trace(weights, basis, noise_amplitude=defaults.READOUT["noise"],
                             seed=defaults.READOUT["seed"])
    recovered, _ = decompose_trace(trace, basis, normalize=True)
    assert np.max(np.abs(recovered - weights)) < 0.05
    assert recovered.sum() == pytest.approx(1.0)


def test_decompose_requires_shared_grid():
    basis = default_basis()
    trace = synthesize_trace(np.full(6, 1 / 6), basis)
    other = TofTrace(trace.times + 0.001, trace.current)
    with pytest.raises(ValueError):
        decompose_trace(other, basis)
    short = TofTrace(trace.times[:-1], trace.current[:-1])
    with pytest.raises(ValueError):
        decompose_trace(short, basis)


def test_decompose_warns_on_rank_deficient_basis():
    basis = default_basis()
    doubled = BasisSet(
        labels=basis.labels + ("dup",),
        n_eff=basis.n_eff + (basis.n_eff[-1],),
        times=basis.times,
        traces=np.vstack([basis.traces, basis.traces[-1]]),
    )
    trace = synthesize_trace(np.full(7, 1 / 7), doubled)
    with pytest.warns(RuntimeWarning):
        decompose_trace(trace, doubled)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(6, 200), n=st.integers(1, 8), deficiency=st.sampled_from(["none", "copy", "sum", "zero"]),
       positive=st.booleans(), scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
# square and full rank (cond 12.3): both residuals are roundoff, 3.44e-12 here against scipy's 0.0
@example(m=6, n=6, deficiency="none", positive=False, scale=1e3, seed=2)
def test_nnls_satisfies_kkt_and_matches_scipy(m, n, deficiency, positive, scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if positive:  # basis traces are non-negative, like these
        a = np.abs(a)
    if n > 1 and deficiency == "copy":
        a[:, -1] = a[:, 0]
    elif n > 1 and deficiency == "sum":
        a[:, -1] = a[:, :-1] @ rng.uniform(-1.0, 1.0, n - 1)
    elif deficiency == "zero":
        a[:, rng.integers(n)] = 0.0
    a *= scale
    b = scale * rng.standard_normal(m)
    x, residual = _nnls(a, b)
    gradient = a.T @ (b - a @ x)
    bound = 1e-11 * np.abs(a).sum(axis=0).max() * np.abs(b).max()
    free = x > 0
    assert np.all(x >= 0)
    assert np.all(np.abs(gradient[free]) <= bound)
    assert np.all(gradient[~free] <= bound)
    assert residual == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-12)
    if np.linalg.matrix_rank(a) == n and np.linalg.cond(a) < 1e6:
        expected, expected_residual = nnls(a, b)
        np.testing.assert_allclose(x, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())
        # where b lies in the cone of a's columns both residuals are roundoff, which scales with |b| and
        # |a| |x|: over 63,000 square draws the two differed by at most 6.6 eps (|b| + |a| |x|)
        floor = 32 * np.finfo(float).eps * (np.linalg.norm(b) + np.linalg.norm(a, 2) * np.linalg.norm(x))
        assert residual == pytest.approx(expected_residual, rel=1e-10, abs=floor)


def test_nnls_raises_rather_than_return_a_partial_answer(monkeypatch):
    basis = default_basis()
    trace = synthesize_trace(np.full(6, 1 / 6), basis)
    # a least-squares step that never improves leaves the same column to free every time
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (-np.ones(a.shape[1]),))
    with pytest.raises(RuntimeError, match="did not converge in 18 iterations"):
        _nnls(basis.traces.T, trace.current)


def test_trace_rejects_non_finite_samples():
    with pytest.raises(ValueError, match="trace times must be finite"):
        TofTrace(np.array([0.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError, match="trace current must be finite"):
        TofTrace(np.arange(2.0), np.array([0.0, np.inf]))


def test_trace_csv_round_trip(tmp_path):
    basis = default_basis()
    trace = synthesize_trace(np.full(6, 1 / 6), basis, noise_amplitude=0.02, seed=5)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert path.read_text().splitlines()[0] == "time_us,current"
    loaded = read_trace_csv(str(path))
    np.testing.assert_array_equal(loaded.times, trace.times)
    np.testing.assert_array_equal(loaded.current, trace.current)


def test_basis_csv_layout(tmp_path):
    basis = default_basis()
    path = tmp_path / "basis.csv"
    write_basis_csv(basis, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time_us," + ",".join(basis.labels)
    assert len(lines) == 1 + len(basis.times)
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], basis.times)
    np.testing.assert_array_equal(data[:, 1:], basis.traces.T)
