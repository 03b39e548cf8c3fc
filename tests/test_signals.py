import numpy as np
import pytest

from esc_lab import DitherConfig, demod_value, dither_value, new_dither


def test_fig1_dither_derived_values():
    cfg = new_dither([0.02], [1], 10.0)
    assert cfg.period == pytest.approx(2.0 * np.pi / 10.0, rel=1e-15)
    assert cfg.a0 == pytest.approx(0.02, rel=1e-15)
    assert cfg.n == 1
    assert cfg.r_max == 1


def test_a0_is_root_sum_square():
    cfg = new_dither([0.3, -0.4], [1, 2], 2.0)
    assert cfg.a0 == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize(
    "amps, rates, omega, match",
    [
        ([0.1, 0.1], [1, 1], 1.0, "distinct"),
        ([0.0], [1], 1.0, "non-zero"),
        ([0.1], [0], 1.0, "positive integers"),
        ([0.1], [-2], 1.0, "positive integers"),
        ([0.1], [1], 0.0, "omega"),
        ([0.1], [1], -3.0, "omega"),
        ([0.1, 0.2], [1], 1.0, "length"),
        ([0.1], [1.5], 1.0, "integers"),
    ],
)
def test_invalid_configs_rejected_with_distinct_errors(amps, rates, omega, match):
    with pytest.raises(ValueError, match=match):
        new_dither(amps, rates, omega)


def test_dither_value_pointwise():
    cfg = new_dither([0.02], [1], 10.0)
    assert dither_value(cfg, 0.0) == pytest.approx([0.0], abs=1e-15)
    assert dither_value(cfg, np.pi / 20.0) == pytest.approx([0.02], rel=1e-12)


def test_demod_value_pointwise():
    cfg = new_dither([0.02], [1], 10.0)
    assert demod_value(cfg, 0.0) == pytest.approx([0.0], abs=1e-12)
    assert demod_value(cfg, np.pi / 20.0) == pytest.approx([100.0], rel=1e-12)


def test_periodicity_on_grid():
    cfg = new_dither([0.5, 0.2, -0.1], [1, 3, 5], 7.0)
    ts = np.linspace(0.0, cfg.period, 41)
    s_batch, m_batch = dither_value(cfg, ts), demod_value(cfg, ts)
    for k, t in enumerate(ts):
        np.testing.assert_allclose(
            dither_value(cfg, t + cfg.period), dither_value(cfg, t), atol=1e-12
        )
        # a scalar time gives the per-channel formula's bits; a time array gives one row per time
        s = dither_value(cfg, t)
        assert np.array_equal(s, cfg.amplitudes * np.sin(cfg.omega * cfg.rates * t))
        assert np.array_equal(s_batch[k], s)
        assert np.array_equal(m_batch[k], demod_value(cfg, t))


def test_demodulation_identity_quadrature_oracle():
    # (1/T) * integral over one period of m_i * s_j must be delta_ij.
    cfg = new_dither([0.3, -0.07, 0.5], [2, 5, 9], 3.0)
    ts = np.linspace(0.0, cfg.period, 4097)
    m = demod_value(cfg, ts)
    s = dither_value(cfg, ts)
    assert m.shape == s.shape == (len(ts), cfg.n)
    for i in range(cfg.n):
        for j in range(cfg.n):
            integral = np.trapezoid(m[:, i] * s[:, j], ts) / cfg.period
            assert integral == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_washout_rejection_of_constants():
    cfg = new_dither([0.2, 0.04], [1, 4], 5.0)
    ts = np.linspace(0.0, cfg.period, 2049)
    m = demod_value(cfg, ts)
    for c in (1.0, -17.3, 256.0):
        for i in range(cfg.n):
            assert np.trapezoid(m[:, i] * c, ts) / cfg.period == pytest.approx(0.0, abs=1e-12)


def test_scaled_preserves_ratios():
    cfg = new_dither([0.3, -0.4], [1, 2], 2.0)
    small = cfg.scaled(0.05)
    assert small.a0 == pytest.approx(0.05, rel=1e-12)
    np.testing.assert_allclose(
        small.amplitudes / small.a0, cfg.amplitudes / cfg.a0, rtol=1e-12
    )
    assert small.omega == cfg.omega
    np.testing.assert_array_equal(small.rates, cfg.rates)
    with pytest.raises(ValueError):
        cfg.scaled(0.0)


def test_config_is_immutable():
    cfg = new_dither([0.1], [1], 1.0)
    with pytest.raises(Exception):
        cfg.amplitudes[0] = 5.0
    with pytest.raises(Exception):
        cfg.omega = 2.0  # frozen dataclass


def test_direct_dataclass_construction_validates():
    with pytest.raises(ValueError):
        DitherConfig(np.array([0.1, 0.2]), np.array([3, 3]), 1.0)
