import math

import numpy as np
import pytest

import ceapsk.sim as sim
from ceapsk.channel import (_complex_normal, _draw_channel, annulus_arrays,
                            ratio_cdf_m2, sample_rayleigh)
from ceapsk.optimizer import build_region_table
from ceapsk.rng import stream
from ceapsk.sim import SimConfig, run_csit_sweep


def _annulus(gains, power):
    inner, outer = annulus_arrays(np.array([gains], dtype=complex), power)
    return inner[0], outer[0]


def test_annulus_equal_gains():
    assert _annulus([1.0, 1.0], 2.0) == (0.0, pytest.approx(2.0))


def test_annulus_unequal_gains():
    inner, outer = _annulus([3.0, 1.0], 2.0)
    assert (inner, outer) == (pytest.approx(2.0), pytest.approx(4.0))
    assert inner / outer == pytest.approx(0.5)


def test_annulus_single_antenna():
    assert _annulus([1.0], 1.0) == (pytest.approx(1.0), pytest.approx(1.0))


def test_annulus_zero_channel_degenerate():
    assert _annulus([0.0, 0.0], 1.0) == (0.0, 0.0)


def test_annulus_scale_covariance():
    rng = np.random.default_rng(7)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    inner, outer = _annulus(h, 1.0)
    inner3, outer3 = _annulus(3.0 * h, 1.0)
    assert outer3 == pytest.approx(3.0 * outer)
    assert inner3 == pytest.approx(3.0 * inner)
    assert inner3 / outer3 == pytest.approx(inner / outer)


def test_annulus_invariants_random():
    h = sample_rayleigh(3, 1.0, 11, trials=1000)
    inner, outer = annulus_arrays(h, 2.0)
    assert np.all(inner >= 0)
    assert np.all(inner <= outer)
    # r>0 only when one magnitude dominates the sum of the others
    mags = np.abs(h)
    dominant = 2 * mags.max(axis=1) > mags.sum(axis=1)
    assert np.all((inner > 0) == dominant)


def test_sample_rayleigh_deterministic():
    a = sample_rayleigh(2, 1.0, 42, trials=10)
    b = sample_rayleigh(2, 1.0, 42, trials=10)
    np.testing.assert_array_equal(a, b)
    c = sample_rayleigh(2, 1.0, 43, trials=10)
    assert not np.array_equal(a, c)


def test_sample_rayleigh_moments():
    h = sample_rayleigh(2, 1.0, 5, trials=10 ** 6)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.01)


def test_ratio_cdf_values():
    assert ratio_cdf_m2(1.0 / 3.0) == pytest.approx(0.6)
    assert ratio_cdf_m2(0.0) == 0.0
    assert ratio_cdf_m2(1.0) == 1.0


def test_ratio_cdf_domain_error():
    with pytest.raises(ValueError):
        ratio_cdf_m2(-0.1)
    with pytest.raises(ValueError):
        ratio_cdf_m2(1.5)


def test_ratio_cdf_ks_distance():
    h = sample_rayleigh(2, 1.0, 3, trials=10 ** 6)
    inner, outer = annulus_arrays(h, 1.0)
    ratio = np.sort(inner / outer)
    grid = np.linspace(0.0, 1.0, 401)
    emp = np.searchsorted(ratio, grid, side="right") / ratio.size
    assert np.abs(emp - ratio_cdf_m2(grid)).max() < 0.005


# The CSIT sweep estimates h_hat = h - dh, dh ~ CN(0, beta / (1 + SNR_tr))


@pytest.fixture(scope="module")
def table16():
    return build_region_table(16)


def test_mmse_estimate_high_training_snr(table16):
    # at 140 dB of training the estimate is the channel: same errors as
    # the perfect-CSIT point
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=5000,
                    scheme="proposed-optimal", seed=3)
    curve = run_csit_sweep(cfg, table16, (140.0,))
    assert curve.errors[0] == curve.errors[1] > 0


def test_mmse_estimate_error_variance(table16, monkeypatch):
    # the sweep designs for h_hat = h - sd dh_unit, dh_unit the chunk's unit
    # error draw and sd^2 = beta / (1 + SNR_tr): beta / 2 at 0 dB of
    # training, beta / 11 at 10 dB, and 0 for the perfect-CSIT point
    seen = []
    annulus = sim._annulus

    def recording(h):
        seen.append(h)
        return annulus(h)
    monkeypatch.setattr(sim, "_annulus", recording)
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=2000,
                    scheme="proposed-optimal", seed=3)
    run_csit_sweep(cfg, table16, (0.0, 10.0))
    rng = stream(3, 3, 0)  # the sweep's stream for chunk 0
    h = _draw_channel(rng, 2, 2000, sim.PATH_LOSS)
    rng.integers(0, 16, size=2000)  # symbols
    _complex_normal(rng, 2000)  # noise
    dh_unit = _complex_normal(rng, (2000, 2))
    dh_unit /= np.sqrt(2.0)
    variances = [sim.PATH_LOSS / 2.0, sim.PATH_LOSS / 11.0, 0.0]
    assert len(seen) == len(variances)
    for h_hat, var in zip(seen, variances):
        np.testing.assert_array_equal(h_hat, h - math.sqrt(var) * dh_unit)
        assert np.mean(np.abs(h - h_hat) ** 2) == pytest.approx(var, rel=0.1)


def test_mmse_estimate_reproducible(table16):
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=5000,
                    scheme="proposed-optimal", seed=4)
    a = run_csit_sweep(cfg, table16, (0.0, 10.0))
    b = run_csit_sweep(cfg, table16, (0.0, 10.0))
    np.testing.assert_array_equal(a.errors, b.errors)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_draw_channel_bits(m):
    # the in-place draws keep the bits of the textbook sum-then-scale form:
    # the channel, then the engines' unit noise z and unit CSIT error
    rng, ref = stream(9, 1, 2), stream(9, 1, 2)
    h = _draw_channel(rng, m, 5000, 1e-9)
    want = np.sqrt(1e-9 / 2.0) * (ref.standard_normal((5000, m))
                                  + 1j * ref.standard_normal((5000, m)))
    assert h.shape == (5000, m)
    np.testing.assert_array_equal(h.view(np.uint64), want.view(np.uint64))
    for shape in (5000, (5000, m)):
        z = _complex_normal(rng, shape)
        z /= np.sqrt(2.0)
        want = (ref.standard_normal(shape)
                + 1j * ref.standard_normal(shape)) / np.sqrt(2.0)
        assert z.shape == want.shape
        np.testing.assert_array_equal(z.view(np.uint64), want.view(np.uint64))
