"""The bytes of the text outputs: each CSV writer, the sweep JSON and
canonical JSON against an element-by-element reference conversion written
here."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ricemele.config import canonical_json
from ricemele.readout import BasisSet, TofTrace, write_basis_csv, write_trace_csv
from ricemele.rfwave import WaveformBuffer, write_waveform_csv
from ricemele.spectrum import ExcitationSpectrum, SpectrumTrack, write_excitation_csv, write_spectrum_csv
from ricemele.sweeps import SweepResult, write_sweep_csv, write_sweep_json

# Values whose text a float cast decides: integers print as '3.0', float32 as
# the double it widens to, and -0.0, the smallest subnormal and 1e300 keep
# their exact shortest repr.
INTS = np.array([3, -7, 0, 2**53 + 1], dtype=np.int64)
SINGLES = np.array([0.1, -0.0, 3.0e38, 1.5], dtype=np.float32)
DOUBLES = np.array([-0.0, 5e-324, 1e300, 0.1], dtype=np.float64)
# every pairing, so some file holds integers or float32 values alone
PAIRS = pytest.mark.parametrize("first, second", list(itertools.product([INTS, SINGLES, DOUBLES], repeat=2)),
                                ids=[f"{a}-{b}" for a, b in itertools.product(["int64", "float32", "float64"],
                                                                              repeat=2)])


def reference_rows(*columns):
    """CSV lines of the columns side by side, one repr(float(v)) per element."""
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    return [",".join(repr(float(v)) for c in columns for v in c[i]) for i in range(len(columns[0]))]


def written(write, data, tmp_path):
    path = tmp_path / "out.csv"
    write(data, str(path))
    return path.read_text(encoding="utf-8")


@PAIRS
def test_spectrum_csv_bytes(tmp_path, first, second):
    times, levels = first, np.column_stack([second, second[::-1]])
    text = written(write_spectrum_csv, SpectrumTrack(times, levels), tmp_path)
    assert text == "\n".join(["# columns: time_us,e1,e2"] + reference_rows(times, levels)) + "\n"


@PAIRS
def test_excitation_csv_bytes(tmp_path, first, second):
    detunings, response = first, second
    text = written(write_excitation_csv, ExcitationSpectrum(detunings, response, 2, 0.5), tmp_path)
    header = ["# probe_site: 2", "# linewidth_rad_per_us: 0.5", "# columns: detuning,response"]
    assert text == "\n".join(header + reference_rows(detunings, response)) + "\n"


@PAIRS
def test_basis_csv_bytes(tmp_path, first, second):
    times, traces = first, np.stack([second, second[::-1], second])
    text = written(write_basis_csv, BasisSet(("a", "b", "c"), (1.0, 2.0, 3.0), times, traces), tmp_path)
    assert text == "\n".join(["time_us,a,b,c"] + reference_rows(times, traces.T)) + "\n"


@PAIRS
def test_trace_csv_bytes(tmp_path, first, second):
    times, current = first, np.abs(second)
    text = written(write_trace_csv, TofTrace(times, current), tmp_path)
    assert text == "\n".join(["time_us,current"] + reference_rows(times, current)) + "\n"


@pytest.mark.parametrize("codes", [np.array([511, -511, 0, 7], dtype=np.int16), INTS, np.array([2.7, -2.7, -0.0])])
def test_waveform_csv_bytes(tmp_path, codes):
    text = written(write_waveform_csv, WaveformBuffer(50.0, 10, codes, 1.0), tmp_path)
    header = ["# rate_samples_per_us: 50.0", "# bits: 10", "# columns: index,code"]
    assert text == "\n".join(header + [f"{i},{int(c)}" for i, c in enumerate(codes)]) + "\n"


def sweep_result(first, second):
    """A two-axis sweep over the first and second values, row-major, with a
    values column of each pairing's dtype."""
    values = np.column_stack([np.resize(second, len(first) * len(second)),
                              np.resize(first, len(first) * len(second))])
    return SweepResult("period_delta", ("period", "delta0"), {"period": first, "delta0": second},
                       ("a", "b"), values, {"provenance": "p", "kind": "period_delta", "config_sha256": "0"})


@PAIRS
def test_sweep_csv_bytes(tmp_path, first, second):
    result = sweep_result(first, second)
    header = ["# p", "# kind: period_delta", "# config_sha256: 0",
              "# axis period: " + ",".join(repr(float(v)) for v in first),
              "# axis delta0: " + ",".join(repr(float(v)) for v in second), "# columns: period,delta0,a,b"]
    rows = [",".join(repr(float(v)) for v in (*point, *row))
            for point, row in zip(itertools.product(first, second), result.values)]
    assert written(write_sweep_csv, result, tmp_path) == "\n".join(header + rows) + "\n"


@PAIRS
def test_sweep_json_bytes(tmp_path, first, second):
    result = sweep_result(first, second)
    expected = {"kind": "period_delta", "metadata": result.metadata,
                "axes": {"period": list(map(float, first)), "delta0": list(map(float, second))},
                "axis_order": ["period", "delta0"], "columns": ["a", "b"],
                "values": [[float(v) for v in row] for row in result.values]}
    assert written(write_sweep_json, result, tmp_path) == canonical_json(expected) + "\n"


def reference_pyify(obj):
    """Plain Python values of numpy arrays and scalars, one element at a time."""
    if isinstance(obj, np.ndarray):
        return reference_pyify(obj[()]) if obj.ndim == 0 else [reference_pyify(x) for x in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): reference_pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_pyify(x) for x in obj]
    return obj


DTYPES = st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_])
ARRAYS = DTYPES.flatmap(lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3)))
LEAVES = st.one_of(ARRAYS, ARRAYS.map(lambda a: a.reshape(-1)[0] if a.size else a), st.floats(), st.integers(),
                   st.booleans())
PAYLOADS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_canonical_json_equals_elementwise_conversion(payload):
    assert canonical_json(payload) == json.dumps(reference_pyify(payload), sort_keys=True, separators=(",", ":"))
