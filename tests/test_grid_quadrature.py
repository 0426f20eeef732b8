"""Grid containers and log-space quadrature against plain-float oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfsim.grid import GridFunction, default_grid_size, uniform_grid
from selfsim.quadrature import log_cumtrapz_from, log_of, log_trapz, weighted_transfer


def test_gridfunction_validates_shapes():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(np.linspace(0, 1, 5), np.zeros(4))


def test_cumtrapz_endpoint_equals_trapz():
    xi = uniform_grid(1.5, 257)
    f = GridFunction(xi, xi ** 2)
    cum = f.cumtrapz()
    assert cum.values[0] == 0.0
    assert cum.values[-1] == pytest.approx(np.trapezoid(f.values, xi))


@pytest.mark.parametrize("shape", [(), (2,)])
@pytest.mark.parametrize("uniform", [True, False])
def test_cumtrapz_bit_identical_to_scipy(shape, uniform):
    from scipy.integrate import cumulative_trapezoid
    rng = np.random.default_rng(7)
    xi = (uniform_grid(2.0, 301) if uniform
          else np.cumsum(rng.uniform(0.001, 0.05, 301)) - 3.0)
    vals = rng.standard_normal((301, *shape)) * np.exp(xi).reshape(-1, *[1] * len(shape))
    got = GridFunction(xi, vals).cumtrapz().values
    assert got.shape == vals.shape
    assert np.array_equal(got, cumulative_trapezoid(vals, xi, axis=0, initial=0))


def test_vector_values_tv_uses_euclidean_jumps():
    xi = np.linspace(0.0, 1.0, 3)
    vals = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
    assert GridFunction(xi, vals).tv() == pytest.approx(5.0)


def test_interpolation():
    xi = uniform_grid(1.0, 101)
    f = GridFunction(xi, xi)
    assert f(0.505) == pytest.approx(0.505)
    with pytest.raises(ValueError):
        GridFunction(xi, np.zeros((101, 2)))(0.0)


@given(hnp.arrays(np.float64, st.integers(2, 40),
                  elements=st.floats(-50, 50)))
def test_tv_bounds_endpoint_difference(vals):
    xi = np.linspace(0.0, 1.0, len(vals))
    f = GridFunction(xi, vals)
    assert f.tv() >= abs(vals[-1] - vals[0]) - 1e-12


@given(hnp.arrays(np.float64, st.integers(2, 40),
                  elements=st.floats(-50, 50)))
def test_monotone_iff_tv_equals_endpoint_gap(vals):
    xi = np.linspace(0.0, 1.0, len(vals))
    f = GridFunction(xi, np.sort(vals))
    assert f.is_monotone()
    assert f.tv() == pytest.approx(abs(np.sort(vals)[-1] - np.sort(vals)[0]))


def test_monotone_compares_grid_neighbours_and_rejects_vector_values():
    # components of vector values are not ordered in xi: (xi, 2 xi) rises in
    # both, and (sin 6xi, sin 6xi + 1) in neither, so no one answer fits
    xi = np.linspace(-1.0, 1.0, 5)
    assert GridFunction(xi, 2.0 * xi).is_monotone()
    assert not GridFunction(xi, np.sin(6.0 * xi)).is_monotone()
    for values in (np.stack([xi, 2.0 * xi], axis=1),
                   np.stack([np.sin(6.0 * xi), np.sin(6.0 * xi) + 1.0], axis=1)):
        with pytest.raises(ValueError, match="scalar values"):
            GridFunction(xi, values).is_monotone()


def test_default_grid_size_resolves_layer():
    assert default_grid_size(2.0, 0.1) == 800
    assert default_grid_size(2.0, 1.0) == 512  # floor
    assert default_grid_size(2.0, 0.0125) == 6400


@settings(deadline=None)
@given(st.floats(-30.0, 5.0), st.floats(0.2, 4.0))
def test_log_trapz_matches_linear_trapz(shift, width):
    x = np.linspace(-3.0, 3.0, 201)
    log_f = shift - (x / width) ** 2
    expected = np.trapezoid(np.exp(log_f), x)
    assert log_trapz(log_f, x) == pytest.approx(np.log(expected), rel=1e-12)


def test_log_trapz_handles_huge_exponents():
    # exp(600) overflows a float; the max-shifted version must not
    x = np.linspace(0.0, 1.0, 101)
    log_f = 600.0 * x
    assert log_trapz(log_f, x) == pytest.approx(
        np.log(np.trapezoid(np.exp(600.0 * (x - 1.0)), x)) + 600.0, rel=1e-12)


def test_log_cumtrapz_orientation_and_values():
    x = np.linspace(-1.0, 1.0, 401)
    log_f = -x ** 2
    anchor = 200
    log_abs, sign = log_cumtrapz_from(log_f, x, anchor)
    from scipy.integrate import cumulative_trapezoid
    lin = cumulative_trapezoid(np.exp(log_f), x, initial=0.0)
    lin = lin - lin[anchor]
    assert sign[anchor] == 0.0
    assert np.all(sign[:anchor] == -1.0)
    assert np.all(sign[anchor + 1:] == 1.0)
    got = sign * np.exp(log_abs, where=np.isfinite(log_abs),
                        out=np.zeros_like(log_abs))
    np.testing.assert_allclose(got, lin, rtol=1e-10, atol=1e-14)


def test_weighted_transfer_matches_naive_at_moderate_exponents():
    x = np.linspace(-1.0, 1.0, 801)
    log_phi = -x ** 2
    source = np.sin(3.0 * x)  # mixed sign: transfer each signed part
    anchor = 400
    pos, neg = weighted_transfer(np.stack([log_phi, log_phi]),
                                 log_of(np.maximum(np.stack([source, -source]), 0.0)),
                                 x, [anchor, anchor])
    got = pos - neg
    from scipy.integrate import cumulative_trapezoid
    inner = cumulative_trapezoid(source / np.exp(log_phi), x, initial=0.0)
    naive = np.exp(log_phi) * (inner - inner[anchor])
    np.testing.assert_allclose(got, naive, rtol=1e-8, atol=1e-12)


def test_weighted_transfer_survives_stiff_weights():
    # phi is a normalized Gaussian with exponent ~ 1/eps: the inner ratio
    # overflows any direct evaluation but the transfer stays O(1)
    eps = 0.01
    x = np.linspace(-2.0, 2.0, 4001)
    log_phi = -(x ** 2) / eps
    source = np.exp(log_phi)  # self-transfer
    out = weighted_transfer(log_phi[None], log_of(source)[None], x, [2000])
    assert np.all(np.isfinite(out))
    assert np.abs(out).max() < 4.0  # |J_{i->i}| <= interval length * phi scale


def test_weighted_transfer_of_zero_source_is_exactly_zero():
    x = np.linspace(-1.0, 1.0, 201)
    # the zero row sits between live rows of the same stacked call
    log_phi = np.stack([-x ** 2] * 3)
    source = np.stack([np.ones_like(x), np.zeros_like(x), np.ones_like(x)])
    out = weighted_transfer(log_phi, log_of(source), x, [50, 50, 150])[1]
    assert np.array_equal(out, np.zeros_like(x))
    assert not np.signbit(out).any()


def test_log_of_rejects_negative_weights():
    assert np.array_equal(log_of(np.array([0.0, 1.0])), [-np.inf, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        log_of(np.array([1.0, -1e-300]))
    # NaN and inf are not weights: a NaN must not be read as zero
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite nonnegative"):
            log_of(np.array([0.0, 1.0, bad]))
