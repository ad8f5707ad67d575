import copy
import math

import numpy as np
import pytest

import ceapsk.sim as sim
from ceapsk.channel import (_channel_blocks, _complex_normal_blocks,
                            annulus_arrays, ratio_cdf_m2, sample_rayleigh)
from ceapsk.optimizer import build_region_table
from ceapsk.precoder import _BLOCK
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
    # NaN compares false both ways, so it fails a check for in-range values
    for x in (float("nan"), [0.5, float("nan")]):
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            ratio_cdf_m2(x)


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
    h = np.sqrt(sim.PATH_LOSS / 2.0) * _textbook(rng, (2000, 2))
    rng.integers(0, 16, size=2000)  # symbols
    _textbook(rng, 2000)  # noise
    dh_unit = _textbook(rng, (2000, 2)) / np.sqrt(2.0)
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


# the draws' trial counts: none, one, and either side of one and two blocks
_TRIALS = (0, 1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3)


def _textbook(rng, shape):
    """re + 1j im from two whole standard-normal draws, the real part first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _joined(pairs, shape):
    """The blocks of (lo, block) pairs joined, once their starts and sizes are
    checked against a whole draw of `shape`."""
    starts, blocks = [lo for lo, _ in pairs], [b for _, b in pairs]
    assert starts == list(range(0, shape[0], _BLOCK))
    assert [len(b) for b in blocks] == [min(_BLOCK, shape[0] - lo)
                                        for lo in starts]
    return np.concatenate(blocks) if blocks else np.empty(shape, complex)


def _assert_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("m", [1, 3, 8])
def test_draw_channel_bits(m):
    # the one channel draw, joined, and sample_rayleigh keep the bits of the
    # textbook sum-then-scale form, and the draw leaves the stream where the
    # whole draw leaves it
    for t in _TRIALS:
        rng, ref = stream(9, 1, 2), stream(9, 1, 2)
        want = np.sqrt(1e-9 / 2.0) * _textbook(ref, (t, m))
        _assert_bits(_joined(list(_channel_blocks(rng, m, t, 1e-9)), (t, m)),
                     want)
        np.testing.assert_array_equal(rng.standard_normal(5),
                                      ref.standard_normal(5))
        want = np.sqrt(1e-9 / 2.0) * _textbook(stream(9, 0x5241), (t, m))
        _assert_bits(sample_rayleigh(m, 1e-9, 9, trials=t), want)


@pytest.mark.parametrize("t, m, replayed", [
    pytest.param(t, m, k,
                 id=f"{t}-{m}" + ("", "-replay-re", "-replay-re-im")[k])
    for t in sorted({*_TRIALS, _BLOCK}) for m in (None, 1, 3, 8)
    for k in (0, 1, 2)])
def test_complex_normal_blocks_bits(t, m, replayed):
    # the engines' unit noise z and unit CSIT error: the blocks, joined and
    # scaled in place, are the textbook (re + 1j im) / sqrt(2) bit for bit,
    # whichever parts are replayed, and leave the stream where the whole draw
    # leaves it; the call itself moves it past the real parts, and past the
    # whole draw when both parts are replayed, so the blocks then leave it
    shape = (t,) if m is None else (t, m)
    rng, ref = stream(9, 3, 4), stream(9, 3, 4)
    past_re = copy.deepcopy(ref)
    past_re.standard_normal(shape)
    want = _textbook(ref, shape) / np.sqrt(2.0)
    blocks = _complex_normal_blocks(rng, shape, replayed=replayed)
    np.testing.assert_array_equal(
        copy.deepcopy(rng).standard_normal(5),
        copy.deepcopy(ref if replayed == 2 else past_re).standard_normal(5))
    got = _joined(list(blocks), shape)
    got /= np.sqrt(2.0)
    _assert_bits(got, want)
    np.testing.assert_array_equal(rng.standard_normal(5),
                                  ref.standard_normal(5))
