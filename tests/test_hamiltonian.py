import math

import numpy as np
import pytest

from swapcool.hamiltonian import (
    MAX_LEVELS,
    Spectrum,
    build_model,
    double,
    min_m_bound,
    spectral_stats,
    spectrum_from_json,
    spectrum_from_text,
    spectrum_to_json,
    spectrum_to_text,
)


def test_model_a_dim8():
    spec = build_model("a", 8, 1.0)
    np.testing.assert_array_equal(spec.eigenvalues, [-1, 0, 0, 0, 0, 0, 0, 0])


def test_model_b_dim4():
    spec = build_model("b", 4, 1.0)
    np.testing.assert_array_equal(spec.eigenvalues, [-1, 0, 0, 1])


def test_model_c_dim4_bit_counts():
    # two binary digits: words 00,01,10,11 -> zeros-minus-ones 2,0,0,-2
    spec = build_model("c", 4, 1.0)
    np.testing.assert_array_equal(spec.eigenvalues, [-2, 0, 0, 2])


def test_model_d_dim16_three_bands():
    spec = build_model("d", 16, 1.0)
    expect = [-1] * 3 + [0] * 10 + [1] * 3
    np.testing.assert_array_equal(spec.eigenvalues, expect)
    assert spectral_stats(spec).ground_degeneracy == 3


@pytest.mark.parametrize("kind,dim", [("a", 2), ("a", 17), ("b", 3), ("b", 129),
                                      ("c", 8), ("c", 512), ("d", 4), ("d", 100)])
def test_models_sorted_with_dim_entries(kind, dim):
    spec = build_model(kind, dim, 0.5)
    assert spec.dim == dim
    assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_model_c_binomial_multiplicities():
    for dim in (8, 16, 64):
        spec = build_model("c", dim, 1.0)
        nbits = int(math.log2(dim))
        values, counts = np.unique(spec.eigenvalues, return_counts=True)
        for q in range(nbits + 1):
            level = -1.0 * (nbits - 2 * q)
            assert counts[np.searchsorted(values, level)] == math.comb(nbits, q)


def test_model_c_matches_bit_count_construction():
    # the binomial-multiplicity build is byte-identical to sorting the
    # per-word bit counts
    for nbits in range(1, 13):
        dim = 2 ** nbits
        ones = np.array([int.bit_count(x) for x in range(dim)])
        old = np.sort(np.sort(-1.0 * (nbits - 2 * ones)).astype(float))
        new = build_model("c", dim, 1.0).eigenvalues
        assert new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


def test_build_model_rejections():
    with pytest.raises(ValueError):
        build_model("c", 6, 1.0)       # not a power of 2
    with pytest.raises(ValueError):
        build_model("b", 2, 1.0)
    with pytest.raises(ValueError):
        build_model("d", 3, 1.0)
    with pytest.raises(ValueError):
        build_model("a", 8, -1.0)
    with pytest.raises(ValueError):
        build_model("z", 8, 1.0)


def test_double_two_levels():
    spec = double(Spectrum(np.array([-1.0, 0.0])))
    np.testing.assert_array_equal(spec.eigenvalues, [-1, 0, 0, 1])


def test_double_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ev = np.sort(rng.uniform(-2, 2, size=int(rng.integers(2, 7))))
        spec = Spectrum(ev)
        brute = np.sort([a - b for a in ev for b in ev])
        np.testing.assert_allclose(double(spec).eigenvalues, brute, atol=1e-14)


def test_double_model_a_dim3():
    spec = double(build_model("a", 3, 1.0))
    np.testing.assert_array_equal(spec.eigenvalues, [-1, -1, 0, 0, 0, 0, 0, 1, 1])
    assert spectral_stats(spec).ground_degeneracy == 2


def test_double_symmetric_and_grounded():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ev = np.sort(rng.uniform(-3, 3, size=5))
        spec = double(Spectrum(ev))
        d = spec.eigenvalues
        assert spec.dim == 25
        np.testing.assert_allclose(d, -d[::-1], atol=1e-14)   # symmetric multiset
        assert d[0] == pytest.approx(ev[0] - ev[-1])
        assert abs(d.mean()) < 1e-14


@pytest.mark.parametrize("kind,dim,gap,span,j", [
    ("a", 8, 1.0, 1.0, 1),
    ("b", 8, 1.0, 2.0, 1),
    ("d", 16, 1.0, 2.0, 3),
])
def test_spectral_stats_models(kind, dim, gap, span, j):
    stats = spectral_stats(build_model(kind, dim, 1.0))
    assert stats.gap == pytest.approx(gap)
    assert stats.span == pytest.approx(span)
    assert stats.ground_degeneracy == j


def test_spectral_stats_rejects_constant():
    with pytest.raises(ValueError):
        spectral_stats(Spectrum(np.array([1.0, 1.0, 1.0])))


def test_min_m_bound_model_a():
    spec = build_model("a", 8, 1.0)
    assert min_m_bound(spec, -1.0 / 8.0) == pytest.approx(4.0)


def test_min_m_bound_symmetric_vacuous():
    assert min_m_bound(build_model("b", 8, 1.0), 0.0) == pytest.approx(1.0)


def test_min_m_bound_doubled_always_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        ev = np.sort(rng.uniform(-2, 2, size=4))
        assert min_m_bound(double(Spectrum(ev)), 0.0) == pytest.approx(1.0)


def test_min_m_bound_rejects_high_energy():
    with pytest.raises(ValueError):
        min_m_bound(build_model("a", 8, 1.0), 0.5)


def test_text_round_trip():
    spec = build_model("c", 16, 1.0)
    back = spectrum_from_text(spectrum_to_text(spec))
    np.testing.assert_array_equal(back.eigenvalues, spec.eigenvalues)
    assert back.label == "c"
    assert spectrum_to_text(spec).startswith("#")


def test_json_round_trip():
    spec = double(build_model("a", 4, 1.0))
    back = spectrum_from_json(spectrum_to_json(spec))
    np.testing.assert_array_equal(back.eigenvalues, spec.eigenvalues)
    assert back.label == spec.label


def test_spectrum_rejects_unsorted():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spectrum_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.sort(np.array([-1.0, 0.0, bad])))


def test_overflowing_double_is_refused():
    # 1e308 - (-1e308) overflows to inf
    with pytest.raises(ValueError, match="finite"):
        double(build_model("b", 8, 1e308))


def test_level_cap_is_inclusive():
    # 8 MB of floats each: the cap itself builds, one level more is refused
    assert build_model("a", MAX_LEVELS, 1.0).dim == MAX_LEVELS
    assert double(build_model("a", 1024, 1.0)).dim == MAX_LEVELS
    with pytest.raises(ValueError, match=str(MAX_LEVELS)):
        build_model("a", MAX_LEVELS + 1, 1.0)
    with pytest.raises(ValueError, match=str(MAX_LEVELS)):
        double(build_model("a", 1025, 1.0))
