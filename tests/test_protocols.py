"""Pump trajectories, winding numbers, and regime classification."""

import numpy as np
import pytest

from ricemele.model import TWO_PI
from ricemele.protocols import (
    KINDS,
    PumpProtocol,
    classify_regime,
    sample_trajectory,
    winding_number,
)

J0 = TWO_PI * 1.5
D0 = TWO_PI * 7.0


def proto(kind="experimental", delta0=D0, offset=0.0, period=1.0, cycles=2):
    return PumpProtocol(kind, J0, delta0, offset, period, cycles)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PumpProtocol("smooth", J0, D0)
    with pytest.raises(ValueError):
        PumpProtocol("experimental", 0.0, D0)
    with pytest.raises(ValueError):
        PumpProtocol("experimental", J0, -1.0)
    with pytest.raises(ValueError):
        PumpProtocol("experimental", J0, D0, period=0.0)
    with pytest.raises(ValueError):
        PumpProtocol("experimental", J0, D0, n_cycles=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["j_max", "delta0", "delta_offset", "period"])
def test_validation_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        PumpProtocol("experimental", **{"j_max": J0, "delta0": D0, name: value})


@pytest.mark.parametrize("kind", KINDS)
def test_both_kinds_start_dimerized(kind):
    point = sample_trajectory(proto(kind), 0.0)
    assert point.j1 == pytest.approx(J0)
    assert point.j2 == 0.0
    assert point.delta == pytest.approx(0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_offset_shifts_delta_uniformly(kind):
    off = TWO_PI * 2.0
    t = np.linspace(0.0, 1.0, 41)
    _, _, base = sample_trajectory(proto(kind, offset=0.0, cycles=1), t)
    _, _, shifted = sample_trajectory(proto(kind, offset=off, cycles=1), t)
    np.testing.assert_allclose(shifted - base, off, atol=1e-12)


def test_experimental_closed_forms():
    p = proto(cycles=1)
    quarter = sample_trajectory(p, 0.25)
    assert quarter.j1 == pytest.approx(J0 / 2)
    assert quarter.j2 == pytest.approx(J0 / 2)
    assert quarter.delta == pytest.approx(D0)
    half = sample_trajectory(p, 0.5)
    assert half.j1 == pytest.approx(0.0, abs=1e-12)
    assert half.j2 == pytest.approx(J0)
    assert abs(half.delta) < 1e-9


def test_experimental_couplings_sum_to_j0():
    t = np.linspace(0.0, 2.0, 301)
    j1, j2, _ = sample_trajectory(proto(), t)
    np.testing.assert_allclose(j1 + j2, J0, atol=1e-12)


def test_control_freak_keeps_one_coupling_zero():
    t = np.linspace(0.0, 2.0, 2001)
    j1, j2, _ = sample_trajectory(proto("control_freak"), t)
    assert np.all(np.minimum(np.abs(j1), np.abs(j2)) < 1e-12)
    # both couplings reach full strength somewhere in the cycle
    assert j1.max() == pytest.approx(J0)
    assert j2.max() == pytest.approx(J0)


def test_control_freak_stage_corners():
    p = proto("control_freak", cycles=1)
    at = lambda t: sample_trajectory(p, t)
    assert at(0.25).j1 == pytest.approx(0.0, abs=1e-12)
    assert at(0.25).delta == pytest.approx(D0)
    assert at(0.5).j2 == pytest.approx(J0)
    assert abs(at(0.5).delta) < 1e-9
    assert at(0.75).delta == pytest.approx(-D0)


@pytest.mark.parametrize("kind", KINDS)
def test_trajectory_periodicity(kind):
    p = proto(kind, cycles=3, period=0.7)
    t = np.linspace(0.0, 0.7, 57)
    a = np.stack(sample_trajectory(p, t))
    b = np.stack(sample_trajectory(p, t + 0.7))
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_sample_rejects_times_outside_schedule():
    with pytest.raises(ValueError):
        sample_trajectory(proto(cycles=2), 2.5)
    with pytest.raises(ValueError):
        sample_trajectory(proto(), -0.1)
    with pytest.raises(ValueError):
        sample_trajectory(proto(), np.array([0.1, np.nan]))


def _winding_oracle(protocol, n=4096):
    """Independent unwrap-based winding count over one period."""
    t = np.linspace(0.0, protocol.period, n + 1)
    single = PumpProtocol(protocol.kind, protocol.j_max, protocol.delta0,
                          protocol.delta_offset, protocol.period, 1)
    j1, j2, d = sample_trajectory(single, t)
    angles = np.unwrap(np.arctan2(d, j1 - j2))
    return int(np.rint((angles[-1] - angles[0]) / TWO_PI))


@pytest.mark.parametrize("kind", KINDS)
def test_winding_one_inside_topological_region(kind):
    w, boundary = winding_number(proto(kind))
    assert (abs(w), boundary) == (1, False)
    assert w == _winding_oracle(proto(kind))


def test_winding_zero_outside():
    w, boundary = winding_number(proto(offset=1.5 * D0))
    assert (w, boundary) == (0, False)


def test_winding_matches_oracle_across_offsets():
    rng = np.random.default_rng(2)
    for _ in range(20):
        off = float(rng.uniform(-2.0, 2.0)) * D0
        kind = "experimental" if rng.uniform() < 0.5 else "control_freak"
        p = proto(kind, offset=off)
        w, boundary = winding_number(p)
        if not boundary:
            assert w == _winding_oracle(p), f"offset {off / D0:.3f} d0, kind {kind}"


def test_boundary_flag_when_loop_touches_origin():
    w, boundary = winding_number(proto(offset=D0))
    assert boundary and w == 0
    assert classify_regime(proto(offset=D0)) == "boundary"


def test_flat_trajectory_reports_gap_closure():
    # with no imbalance modulation the loop collapses onto a line
    # through the origin, so the gap closes mid-cycle
    flat = PumpProtocol("experimental", 1.0, 0.0, 0.0, 1.0, 1)
    w, boundary = winding_number(flat)
    assert boundary and w == 0
    assert classify_regime(flat) == "boundary"


def test_classifier_agrees_with_winding_everywhere():
    offsets = np.linspace(-2.0, 2.0, 21) * D0
    deltas = np.linspace(TWO_PI * 0.5, TWO_PI * 10.0, 11)
    for d0 in deltas:
        for off in offsets:
            p = proto(delta0=float(d0), offset=float(off))
            w, boundary = winding_number(p)
            regime = classify_regime(p)
            expected = "boundary" if boundary else (
                "topological" if abs(w) >= 1 else "trivial")
            assert regime == expected
