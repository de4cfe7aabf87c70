import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcache import (
    ContentLibrary,
    hit_rate,
    preference_matrix,
    quality_preference,
    request_distribution,
    request_probability,
    super_layer_size,
    total_catalog_bits,
)

# Frozen with an independent arbitrary-precision script: the normalizer of
# the (f+5)^-1 law over 20 files is H_25 - H_5 = 1.5326248444201735.
P1_EXPECTED = 0.1087458990851218
P10_L1_EXPECTED = 0.0206044861424441


def test_request_probability_frozen_value(lib):
    assert request_probability(lib, 1) == pytest.approx(P1_EXPECTED, abs=1e-12)


def test_quality_preference_frozen_value(lib):
    assert quality_preference(lib, 10, 1) == pytest.approx(P10_L1_EXPECTED, abs=1e-12)


def test_zero_plateau_reduces_to_zipf():
    lib = ContentLibrary.uniform(15, 2, 1.0, skewness=0.8, plateau=0.0)
    ranks = np.arange(1, 16, dtype=float)
    zipf = ranks**-0.8 / (ranks**-0.8).sum()
    assert np.array_equal(request_distribution(lib), zipf)


def test_zero_skewness_is_uniform():
    lib = ContentLibrary.uniform(7, 3, 1.0, skewness=0.0, plateau=2.0)
    assert np.allclose(request_distribution(lib), 1.0 / 7.0, rtol=0, atol=1e-15)


def test_request_distribution_non_increasing(lib):
    pf = request_distribution(lib)
    assert np.all(np.diff(pf) <= 0)


def test_preference_endpoints(lib):
    pref = preference_matrix(lib)
    assert pref[0, 0] == 0.0          # top file never requested at lowest quality
    assert np.all(pref[-1, 1:] == 0.0)  # last file never above lowest quality


@settings(max_examples=50, deadline=None)
@given(
    file_count=st.integers(2, 60),
    layer_count=st.integers(2, 6),
    skewness=st.floats(0.0, 3.0, allow_nan=False),
    plateau=st.floats(0.0, 10.0, allow_nan=False),
)
def test_distributions_sum_to_one(file_count, layer_count, skewness, plateau):
    lib = ContentLibrary.uniform(file_count, layer_count, 1e6,
                                 skewness=skewness, plateau=plateau)
    assert abs(request_distribution(lib).sum() - 1.0) <= 1e-12
    assert abs(preference_matrix(lib).sum() - 1.0) <= 1e-12


def test_super_layer_sizes_cumulative():
    sizes = np.array([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]])
    lib = ContentLibrary(2, 3, sizes)
    assert super_layer_size(lib, 1, 1) == 10.0
    assert super_layer_size(lib, 1, 3) == 60.0
    assert super_layer_size(lib, 2, 2) == 10.0
    assert np.all(np.diff(lib.super_layer_sizes, axis=1) > 0)


def test_uniform_catalog_totals(lib):
    assert super_layer_size(lib, 3, 2) == 50e6
    assert total_catalog_bits(lib) == 20 * (25e6 + 50e6)
    assert total_catalog_bits(lib) >= lib.super_layer_sizes.max()


def test_minimal_catalog_total():
    lib = ContentLibrary(2, 2, np.ones((2, 2)))
    assert total_catalog_bits(lib) == 2 * (1 + 2)


def test_index_errors(lib):
    with pytest.raises(IndexError):
        request_probability(lib, 0)
    with pytest.raises(IndexError):
        request_probability(lib, 21)
    with pytest.raises(IndexError):
        quality_preference(lib, 1, 3)
    with pytest.raises(IndexError):
        super_layer_size(lib, 21, 1)


def test_construction_errors():
    with pytest.raises(ValueError):
        ContentLibrary.uniform(20, 1, 1.0)  # single layer rejected
    with pytest.raises(ValueError):
        ContentLibrary.uniform(1, 2, 1.0)
    with pytest.raises(ValueError):
        ContentLibrary(2, 2, np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        ContentLibrary.uniform(5, 2, 1.0, skewness=-0.1)
    with pytest.raises(ValueError):
        ContentLibrary(2, 2, np.ones((3, 2)))
    with pytest.raises(ValueError, match="^skewness"):
        ContentLibrary.uniform(5, 2, 1.0, skewness=math.nan)
    with pytest.raises(ValueError, match="^plateau"):
        ContentLibrary.uniform(5, 2, 1.0, plateau=math.inf)
    with pytest.raises(ValueError, match="^layer_sizes"):
        ContentLibrary(2, 2, np.array([[1.0, math.inf], [1.0, 1.0]]))


@pytest.mark.parametrize("counts, field", [
    ((3.0, 2), "file_count"), ((True, 2), "file_count"),
    ((3, 2.0), "layer_count"), ((3, np.float64(2)), "layer_count"),
], ids=["float-files", "bool-files", "float-layers", "numpy-float-layers"])
def test_counts_must_be_integers(counts, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ContentLibrary(*counts, np.ones((3, 2)))
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ContentLibrary.uniform(*counts)
    assert ContentLibrary.uniform(np.int64(3), np.int64(2)).shape == (3, 2)


@pytest.mark.parametrize("f, l, bad", [
    (1.5, 1, "file index 1.5"), (True, 2, "file index True"), (2.0, 1, "file index 2.0"),
    (2, 1.5, "layer index 1.5"), (1, False, "layer index False"),
], ids=["float-file", "bool-file", "integral-float-file", "float-layer", "bool-layer"])
def test_index_must_be_an_integer(lib, geoms, radio, f, l, bad):
    count = 20 if bad.startswith("file") else 2
    message = rf"^{bad} out of range: expected an integer in 1\.\.{count}$"
    for read in (quality_preference, super_layer_size):
        with pytest.raises(IndexError, match=message):
            read(lib, f, l)
    with pytest.raises(IndexError, match=message):
        hit_rate(f, l, 0.5, 0.5, lib, geoms, radio)
    if bad.startswith("file"):
        with pytest.raises(IndexError, match=message):
            request_probability(lib, f)
    assert super_layer_size(lib, np.int64(2), np.int64(1)) == super_layer_size(lib, 2, 1)
    assert hit_rate(np.int64(2), np.int64(1), 0.5, 0.5, lib, geoms, radio) == hit_rate(
        2, 1, 0.5, 0.5, lib, geoms, radio)


def test_library_immutable(lib):
    with pytest.raises(ValueError):
        lib.layer_sizes[0, 0] = 1.0


def test_preference_matrix_cached_read_only(lib):
    first = preference_matrix(lib)
    assert preference_matrix(lib) is first is lib.preference_matrix
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    assert abs(first.sum() - 1.0) <= 1e-12


def test_preference_matrix_per_library(lib):
    other = ContentLibrary.uniform(20, 2, 25e6, skewness=0.5, plateau=5.0)
    assert preference_matrix(other) is not preference_matrix(lib)
    assert not np.array_equal(preference_matrix(other), preference_matrix(lib))
    pf = request_distribution(other)
    assert np.allclose(preference_matrix(other).sum(axis=1), pf, rtol=0, atol=1e-15)
