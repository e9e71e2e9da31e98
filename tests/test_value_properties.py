"""Property check for the numeric fields of the value types: each stores a
read-only copy with exactly the bytes of ``np.array(x, dtype)``, and a
non-finite element is rejected with an error naming the field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orbandit import (
    AllocationProportions,
    BetaState,
    ConfigError,
    GaussianBelief,
    LogitBelief,
    LogitDrift,
    ProbVector,
    RoundData,
)


def _counts(x):
    return np.abs(x) if x.dtype.kind == "i" else np.abs(np.trunc(x))


def _shares(x):
    weights = np.abs(x, dtype=float) + 1.0
    return weights / weights.sum()


# (field, type with the field set to v and every other field in its domain,
#  map of any finite array into the field's domain, stored dtype)
FIELDS = [
    ("mean", lambda v: GaussianBelief(v, np.eye(np.size(v))), lambda x: x, float),
    ("precision", lambda v: GaussianBelief(np.zeros(len(v)), v), lambda x: np.diag(np.abs(x)), float),
    ("n", lambda v: RoundData(v, np.zeros(np.size(v))), _counts, np.int64),
    ("c", lambda v: RoundData(np.full(np.size(v), 2**40), v), _counts, np.int64),
    ("p", ProbVector, lambda x: 1.0 / (2.0 + np.abs(x)), float),
    ("alpha", lambda v: BetaState(v, np.ones(np.size(v))), lambda x: np.abs(x) + 1, float),
    ("beta", lambda v: BetaState(np.ones(np.size(v)), v), lambda x: np.abs(x) + 1, float),
    ("p", AllocationProportions, _shares, float),
    ("base_beta", lambda v: LogitDrift(v, 0.0), lambda x: x, float),
    ("logit_mean", lambda v: LogitBelief(v, np.ones(np.size(v))), lambda x: x, float),
    ("logit_precision", lambda v: LogitBelief(np.zeros(np.size(v)), v), np.abs, float),
]


def _finite_arrays(dtype):
    bounds = {"min_value": -10**6, "max_value": 10**6}
    if np.dtype(dtype).kind == "f":
        bounds.update(allow_nan=False, allow_infinity=False)
    return hnp.arrays(dtype, st.integers(1, 6), elements=hnp.from_dtype(np.dtype(dtype), **bounds))


arrays = st.sampled_from(["float64", "float32", "int64", "int32"]).flatmap(_finite_arrays)


# Fixed ids, so that removing a row renames no other.
@pytest.mark.parametrize("field, build, domain, dtype", FIELDS, ids=[
    "0-mean", "1-precision", "3-n", "4-c", "5-p", "6-alpha", "7-beta", "8-p", "9-base_beta",
    "10-logit_mean", "11-logit_precision"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(x=arrays, as_list=st.booleans(), where=st.integers(0, 35),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_numeric_fields_store_exact_read_only_copies(field, build, domain, dtype,
                                                     x, as_list, where, bad):
    v = domain(x)
    value = v.tolist() if as_list else v
    expected = np.array(value, dtype=dtype)
    if expected.ndim == 1:
        expected = expected.reshape(-1)
    stored = getattr(build(value), field)
    assert stored.dtype == expected.dtype and stored.shape == expected.shape
    assert stored.tobytes() == expected.tobytes()
    assert not stored.flags.writeable
    broken = np.array(v, dtype=float)
    broken.flat[where % broken.size] = bad
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        build(broken)
