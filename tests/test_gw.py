"""Tests for the GW analysis stack: SWSH, quadrature, extraction,
model waveforms, detector curves."""

import numpy as np
import pytest

from repro.gw import (
    ExtractionSphere,
    IMRWaveform,
    aplus_asd,
    ce_asd,
    colored_noise,
    gauss_legendre_rule,
    lebedev_rule,
    peters_merger_time,
    physical_strain,
    qnm_frequency,
    remnant_spin,
    resolution_requirements,
    snr_estimate,
    spin_weighted_ylm,
    symmetric_mass_ratio,
    wigner_d,
    ylm,
)


class TestSWSH:
    def test_y00(self):
        th, ph = np.array([0.3, 1.2]), np.array([0.1, 2.2])
        assert np.allclose(ylm(0, 0, th, ph), 1.0 / np.sqrt(4 * np.pi))

    def test_spin0_matches_scipy(self):
        from scipy.special import sph_harm_y

        rng = np.random.default_rng(0)
        th = rng.uniform(0.05, np.pi - 0.05, 10)
        ph = rng.uniform(0, 2 * np.pi, 10)
        for l in range(0, 4):
            for m in range(-l, l + 1):
                ours = ylm(l, m, th, ph)
                ref = sph_harm_y(l, m, th, ph)
                assert np.allclose(ours, ref, atol=1e-10), (l, m)

    def test_sm2_y22_closed_form(self):
        """_-2 Y_22 = sqrt(5/64π)(1 + cosθ)² e^{2iφ}."""
        th = np.linspace(0.01, np.pi - 0.01, 17)
        ph = np.linspace(0, 2 * np.pi, 17)
        ours = spin_weighted_ylm(-2, 2, 2, th, ph)
        ref = np.sqrt(5.0 / (64 * np.pi)) * (1 + np.cos(th)) ** 2 * np.exp(2j * ph)
        assert np.allclose(ours, ref, atol=1e-10)

    def test_orthonormality(self):
        rule = gauss_legendre_rule(16)
        th, ph = rule.theta, rule.phi
        for s in (0, -2):
            y22 = spin_weighted_ylm(s, 2, 2, th, ph)
            y21 = spin_weighted_ylm(s, 2, 1, th, ph)
            y33 = spin_weighted_ylm(s, 3, 3, th, ph)
            assert np.isclose(rule.integrate(y22 * np.conj(y22)).real, 1.0, atol=1e-8)
            assert abs(rule.integrate(y22 * np.conj(y21))) < 1e-10
            assert abs(rule.integrate(y22 * np.conj(y33))) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            spin_weighted_ylm(-2, 1, 0, 0.3, 0.0)
        with pytest.raises(ValueError):
            spin_weighted_ylm(0, 2, 5, 0.3, 0.0)
        with pytest.raises(ValueError):
            wigner_d(2, 3, 0, 0.1)

    def test_wigner_d_identity_at_zero(self):
        for l in (1, 2, 3):
            for m in range(-l, l + 1):
                for mp in range(-l, l + 1):
                    v = wigner_d(l, m, mp, np.array([0.0]))[0]
                    assert np.isclose(v, 1.0 if m == mp else 0.0, atol=1e-12)


class TestQuadrature:
    @pytest.mark.parametrize("order,npts", [(3, 6), (7, 26), (11, 50)])
    def test_lebedev_counts_and_weight_sum(self, order, npts):
        rule = lebedev_rule(order)
        assert len(rule) == npts
        assert np.isclose(rule.weights.sum(), 4 * np.pi)
        assert np.allclose(np.linalg.norm(rule.points, axis=1), 1.0)

    @pytest.mark.parametrize("order", [3, 7, 11])
    def test_lebedev_exactness(self, order):
        """Exact for spherical harmonics up to the rule's degree:
        ∮ Y_lm dΩ = 0 for l >= 1 and = √(4π) δ_l0."""
        rule = lebedev_rule(order)
        th, ph = rule.theta, rule.phi
        for l in range(1, order + 1):
            for m in range(-l, l + 1):
                v = rule.integrate(ylm(l, m, th, ph))
                assert abs(v) < 1e-10, (order, l, m)

    def test_lebedev_invalid_order(self):
        with pytest.raises(ValueError):
            lebedev_rule(5)

    def test_gauss_legendre_exactness(self):
        rule = gauss_legendre_rule(10)
        th, ph = rule.theta, rule.phi
        for l in range(1, 8):
            assert abs(rule.integrate(ylm(l, 0, th, ph))) < 1e-10
        assert np.isclose(rule.integrate(0 * th + 1.0).real, 4 * np.pi)


class TestExtractionSphere:
    def test_recovers_injected_mode(self):
        sph = ExtractionSphere(60.0, gauss_legendre_rule(12))
        th, ph = sph.rule.theta, sph.rule.phi
        coeff = 0.7 - 0.3j
        f = coeff * spin_weighted_ylm(-2, 2, 2, th, ph)
        got = sph.mode(f, 2, 2, s=-2)
        assert np.isclose(got, coeff, atol=1e-10)
        # orthogonal mode is empty
        assert abs(sph.mode(f, 2, 1, s=-2)) < 1e-10

    def test_modes_dict(self):
        sph = ExtractionSphere(50.0)
        f = np.ones(len(sph.rule), dtype=complex)
        modes = sph.modes(f, l_max=2, s=0)
        assert set(modes) == {(l, m) for l in range(3) for m in range(-l, l + 1)}
        assert np.isclose(modes[(0, 0)], np.sqrt(4 * np.pi), atol=1e-10)

    @pytest.mark.parametrize("s", [0, -2])
    def test_modes_are_bitwise_the_per_call_projection(self, s):
        """The cached conjugate basis projects exactly as evaluating
        the harmonic at every call did, on every call."""
        sph = ExtractionSphere(50.0, gauss_legendre_rule(8))
        th, ph = sph.rule.theta, sph.rule.phi
        rng = np.random.default_rng(7)
        for _ in range(2):  # the second call reads the cached basis
            f = (rng.standard_normal(len(sph.rule))
                 + 1j * rng.standard_normal(len(sph.rule)))
            got = sph.modes(f, l_max=3, s=s)
            for (l, m), value in got.items():
                ref = sph.rule.integrate(
                    f * np.conj(spin_weighted_ylm(s, l, m, th, ph)))
                assert value == ref, (l, m)
        assert len(sph._basis) == 16 - s * s

    def test_points_radius(self):
        sph = ExtractionSphere(75.0)
        assert np.allclose(np.linalg.norm(sph.points, axis=1), 75.0)


class TestWaveformModel:
    def test_symmetric_mass_ratio(self):
        assert symmetric_mass_ratio(1.0) == pytest.approx(0.25)
        assert symmetric_mass_ratio(4.0) == pytest.approx(4.0 / 25.0)

    def test_peters_matches_paper_scale(self):
        """Paper Table I merger times for large q come from PN decay:
        q=64 at d=8 is ~6000 M."""
        assert 4000 < peters_merger_time(64.0, 8.0) < 8000
        assert 15000 < peters_merger_time(256.0, 8.0) < 30000

    def test_remnant_spin_range(self):
        assert 0.6 < remnant_spin(1.0) < 0.75  # ~0.686 for equal mass
        assert remnant_spin(10.0) < remnant_spin(1.0)

    def test_qnm_frequency(self):
        w = qnm_frequency(1.0)
        assert 0.3 < w.real < 0.7  # M ω ≈ 0.55 for a_f ~ 0.69
        assert w.imag < 0.0  # damped

    def test_chirp_frequency_increases(self):
        wf = IMRWaveform(mass_ratio=1.0, t_merge=200.0)
        t = np.linspace(0.0, 199.0, 500)
        w = wf.frequency(t)
        assert np.all(np.diff(w) >= -1e-12)

    def test_waveform_chirps_then_rings_down(self):
        wf = IMRWaveform(mass_ratio=1.0, t_merge=150.0)
        t = np.linspace(0.0, 250.0, 4000)
        h = wf.h(t)
        amp = np.abs(h)
        i_peak = np.argmax(amp)
        assert 100.0 < t[i_peak] < 170.0  # peak near merger
        # ringdown decays
        assert amp[-1] < 0.05 * amp[i_peak]
        # inspiral amplitude grows
        assert amp[i_peak] > 2.0 * amp[100]

    def test_psi4_shape(self):
        wf = IMRWaveform(mass_ratio=2.0, t_merge=100.0)
        t = np.linspace(0.0, 150.0, 2000)
        p4 = wf.psi4(t)
        assert p4.shape == t.shape
        assert np.all(np.isfinite(p4))


class TestTable1:
    def test_resolutions_match_paper(self):
        from repro.analysis import PAPER_TABLE1, table1_row

        for q, row in PAPER_TABLE1.items():
            ours = table1_row(float(q))
            assert np.isclose(ours.dx_small, row["dx_bh1"], rtol=0.02), q
            assert np.isclose(ours.dx_large, row["dx_bh2"], rtol=0.02), q

    def test_timesteps_match_paper(self):
        from repro.analysis import PAPER_TABLE1, table1_row

        for q, row in PAPER_TABLE1.items():
            ours = table1_row(float(q))
            assert np.isclose(ours.timesteps, row["timesteps"], rtol=0.25), q


class TestDetector:
    def test_asd_minima_in_band(self):
        f = np.geomspace(5.0, 4000.0, 400)
        ap = aplus_asd(f)
        ce = ce_asd(f)
        # CE more sensitive than A+ through the bucket
        band = (f > 20) & (f < 500)
        assert np.all(ce[band] < ap[band])
        assert 5e-25 < ap[band].min() < 5e-24
        assert 1e-25 < ce[band].min() < 2e-24

    def test_colored_noise_psd(self):
        """Generated noise has roughly the requested spectral density."""
        dt = 1.0 / 4096
        n = 1 << 16
        x = colored_noise(n, dt, aplus_asd, np.random.default_rng(1))
        f = np.fft.rfftfreq(n, dt)
        psd = np.abs(np.fft.rfft(x)) ** 2 * 2 * dt / n
        band = (f > 100) & (f < 300)
        ratio = np.sqrt(psd[band].mean()) / aplus_asd(f[band]).mean()
        assert 0.5 < ratio < 2.0

    def test_physical_strain_scaling(self):
        t = np.linspace(0, 100, 100)
        h = np.ones_like(t) + 0j
        ts, strain = physical_strain(h, t, total_mass_msun=65.0,
                                     distance_mpc=410.0)
        assert ts[-1] == pytest.approx(100 * 65 * 4.925490947e-6)
        assert 1e-21 < strain[0] < 1e-19

    def test_snr_louder_when_closer(self):
        wf = IMRWaveform(mass_ratio=1.0, t_merge=150.0, amplitude=1.0)
        tg = np.linspace(0, 200, 4096)
        h = wf.h(tg)
        t1, s1 = physical_strain(h, tg, distance_mpc=400.0)
        t2, s2 = physical_strain(h, tg, distance_mpc=100.0)
        dt = t1[1] - t1[0]
        assert snr_estimate(s2, dt, ce_asd) > 3.0 * snr_estimate(s1, dt, ce_asd)
