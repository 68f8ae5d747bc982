"""Sampling theory (section 4.3): the paper's numbers must come out."""

import math

import pytest

from repro.sampling.theory import (
    achieved_error,
    injection_space_size,
    proportion_ci,
    sample_size,
    sample_size_oversampled,
    stratified_error_rate,
    z_alpha,
)


#: ``(alpha, float.hex(scipy.stats.norm.ppf(1 - alpha / 2)))``, recorded
#: from SciPy 1.17.1.  Covers the usual confidence levels, both sides of
#: the ``exp(-2)`` branch (alpha = 2 exp(-2) ~ 0.2707), the ``x >= 8``
#: tail past ``exp(-32)`` (alpha below ~2.5e-14) and the alphas whose
#: ``1 - alpha/2`` rounds to 1.0 (z = inf).
SCIPY_Z = (
    (8.673617379884035e-19, 'inf'),
    (5.551115123125783e-17, 'inf'),
    (1e-16, 'inf'),
    (1.1102230246251565e-16, 'inf'),
    (2.220446049250313e-16, '0x1.06b48528cea52p+3'),
    (2.5e-16, '0x1.06b48528cea52p+3'),
    (4.440892098500626e-16, '0x1.04074bdbf8865p+3'),
    (5e-16, '0x1.04074bdbf8865p+3'),
    (8.881784197001252e-16, '0x1.01532601cc032p+3'),
    (1e-15, '0x1.0072d19333a0dp+3'),
    (2e-15, '0x1.fc40a0611cdf1p+2'),
    (3.552713678800501e-15, '0x1.f7aa70f82ba54p+2'),
    (5e-15, '0x1.f4c078725fc96p+2'),
    (1e-14, '0x1.ef51a42dc43ddp+2'),
    (1.4210854715202004e-14, '0x1.ec71cda10b3e5p+2'),
    (2.5075047787206466e-14, '0x1.e7c542344a945p+2'),
    (2.532833109818835e-14, '0x1.e7b2a0970a9cep+2'),
    (2.5581614409170236e-14, '0x1.e7a027f3bb461p+2'),
    (5.684341886080802e-14, '0x1.e0f84de931856p+2'),
    (1e-12, '0x1.c85a0613db301p+2'),
    (1e-10, '0x1.9de286c2b3b2dp+2'),
    (1e-08, '0x1.6ec44304efb0dp+2'),
    (1e-06, '0x1.39109ad34337ap+2'),
    (1e-05, '0x1.1ab2f81de6a8cp+2'),
    (0.0001, '0x1.f1feea391d182p+1'),
    (0.00014285714285714287, '0x1.e6ce3951bbfd6p+1'),
    (0.0005, '0x1.bd896d05013cap+1'),
    (0.001, '0x1.a52ffadd2f906p+1'),
    (0.0025, '0x1.82fcda30291dcp+1'),
    (0.005, '0x1.674ce1ece6f39p+1'),
    (0.01, '0x1.49b4c64d69160p+1'),
    (0.02, '0x1.29c5c4630ff0ep+1'),
    (0.045, '0x1.0098847487e1ap+1'),
    (0.05, '0x1.f5c0331eeff84p+0'),
    (0.08, '0x1.c02cf65d973e3p+0'),
    (0.1, '0x1.a515209676abbp+0'),
    (0.12, '0x1.8e05a46d7a544p+0'),
    (0.123456789, '0x1.8a594b1f83b2cp+0'),
    (0.15, '0x1.7085226d3e526p+0'),
    (0.2, '0x1.4813c36e26d32p+0'),
    (0.25, '0x1.267d4c07b0566p+0'),
    (0.27, '0x1.1a624ec451c66p+0'),
    (0.2706, '0x1.1a07d2c204b8ep+0'),
    (0.27067056620255486, '0x1.19fd30befa106p+0'),
    (0.27067056647322535, '0x1.19fd30bc4de03p+0'),
    (0.2706705664732254, '0x1.19fd30bc4de03p+0'),
    (0.27067056647322546, '0x1.19fd30bc4de03p+0'),
    (0.270670566743896, '0x1.19fd30b9a1b02p+0'),
    (0.2707, '0x1.19f8c1839e936p+0'),
    (0.271, '0x1.19cb93a3ac3b0p+0'),
    (0.3, '0x1.0953b2d85bb6cp+0'),
    (0.3333333333333333, '0x1.ef51e127b42d5p-1'),
    (0.4, '0x1.aee8fa73a1334p-1'),
    (0.5, '0x1.5956b87528a49p-1'),
    (0.6, '0x1.0c7e39582c5fap-1'),
    (0.75, '0x1.464965bdc7eafp-2'),
    (0.9, '0x1.015abc78e92d5p-3'),
    (0.987654321, '0x1.fb0a3a97ee0f2p-7'),
    (0.99, '0x1.9ab25cd23fc22p-7'),
    (0.999999, '0x1.506f177a952c3p-20'),
)


class TestZAlpha:
    @pytest.mark.parametrize("alpha,z_hex", SCIPY_Z)
    def test_bit_identical_to_scipy(self, alpha, z_hex):
        assert z_alpha(alpha) == float.fromhex(z_hex)

    def test_table_spans_every_branch(self):
        branch = 2 * math.exp(-2)
        tail = 2 * math.exp(-32)
        alphas = [a for a, _ in SCIPY_Z]
        assert any(a < branch for a in alphas)
        assert any(a > branch for a in alphas)
        assert any(a < tail and z != "inf" for a, z in SCIPY_Z)
        assert {0.05, 0.01, 0.1} <= set(alphas)

    def test_95_percent(self):
        assert z_alpha(0.05) == pytest.approx(1.96, abs=0.005)

    def test_99_percent(self):
        assert z_alpha(0.01) == pytest.approx(2.576, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            z_alpha(0.0)
        with pytest.raises(ValueError):
            z_alpha(1.5)


class TestSampleSize:
    def test_paper_achieved_error_range(self):
        """400-500 injections at 95% -> d in 4.4-4.9 percent."""
        assert 0.0438 <= achieved_error(500) <= 0.044
        assert 0.0489 <= achieved_error(400) <= 0.0491

    def test_oversampling_maximizes(self):
        assert sample_size(0.05, p=0.5) >= sample_size(0.05, p=0.3)
        assert sample_size_oversampled(0.05) == sample_size(0.05, p=0.5)

    def test_inverse_relationship(self):
        n = sample_size_oversampled(0.044)
        assert achieved_error(n) <= 0.044

    def test_smaller_d_needs_more_samples(self):
        assert sample_size_oversampled(0.01) > sample_size_oversampled(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_size(0.0)
        with pytest.raises(ValueError):
            sample_size(0.05, p=1.5)
        with pytest.raises(ValueError):
            achieved_error(0)


class TestProportionCI:
    def test_basic(self):
        p, lo, hi = proportion_ci(50, 100)
        assert p == 0.5
        assert lo == pytest.approx(0.5 - 1.96 * math.sqrt(0.25 / 100), abs=1e-3)
        assert hi == pytest.approx(0.5 + 1.96 * math.sqrt(0.25 / 100), abs=1e-3)

    def test_clamped_to_unit_interval(self):
        _, lo, _ = proportion_ci(0, 10)
        _, _, hi = proportion_ci(10, 10)
        assert lo == 0.0 and hi == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_ci(5, 0)
        with pytest.raises(ValueError):
            proportion_ci(11, 10)


class TestInjectionSpace:
    def test_paper_example(self):
        """512 x 64 x 120 ~ 3.9e6 (the smallest-region space)."""
        assert injection_space_size(512, 64, 120) == 3_932_160

    def test_validation(self):
        with pytest.raises(ValueError):
            injection_space_size(0, 1, 1)


class TestStratifiedErrorRate:
    def test_known_zero_stratum_reduces_to_errors_over_n(self):
        # the --prune-masked identity: tallying pruned trials as CORRECT
        # is the stratified estimator with a known-zero pruned stratum
        assert stratified_error_rate(3, 10, 40) == pytest.approx(3 / 50)

    def test_nothing_pruned_is_the_plain_rate(self):
        assert stratified_error_rate(2, 8, 0) == pytest.approx(0.25)

    def test_everything_pruned(self):
        assert stratified_error_rate(0, 0, 25) == 0.0

    def test_nonzero_pruned_stratum_weighting(self):
        # 10 executed at 50%, 10 pruned at a (hypothetical) known 10%
        assert stratified_error_rate(5, 10, 10, pruned_rate=0.1) == (
            pytest.approx(0.3)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            stratified_error_rate(0, 0, 0)
        with pytest.raises(ValueError):
            stratified_error_rate(5, 4, 1)
        with pytest.raises(ValueError):
            stratified_error_rate(1, 4, 1, pruned_rate=1.5)
