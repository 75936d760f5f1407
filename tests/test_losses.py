"""Loss values against frozen independent evaluations, loss identities,
gradient checks, and the masking rules."""

from dataclasses import fields, replace

import numpy as np
import pytest

from noisebench import (
    LossConfig,
    LossFamily,
    Origin,
    cce,
    lq_loss,
    mask_threshold,
    one_hot,
    selective_batch_loss,
    soft_bootstrap,
)
from noisebench.errors import ConfigError

from conftest import finite_difference, random_simplex, relative_error

LOSS_GRAD_TOL = 1e-5


def single(p, label, k):
    return np.asarray([p], dtype=np.float64), one_hot([label], k)


class TestCCE:
    def test_perfect_prediction(self):
        probs, targets = single([1.0, 0.0, 0.0], 0, 3)
        losses, _ = cce(probs, targets)
        assert losses[0] == 0.0

    def test_half_confidence(self):
        probs, targets = single([0.5, 0.3, 0.2], 0, 3)
        losses, _ = cce(probs, targets)
        assert losses[0] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_uniform_twenty_classes(self):
        probs = np.full((1, 20), 0.05)
        losses, _ = cce(probs, one_hot([7], 20))
        assert losses[0] == pytest.approx(np.log(20.0), rel=1e-12)

    def test_gradient_formula(self):
        probs, targets = single([0.5, 0.3, 0.2], 0, 3)
        _, grads = cce(probs, targets)
        np.testing.assert_allclose(grads, [[-2.0, 0.0, 0.0]])


class TestSoftBootstrap:
    def test_beta_one_is_exactly_cce(self):
        rng = np.random.default_rng(0)
        probs = random_simplex(rng, 50, 6)
        targets = one_hot(rng.integers(6, size=50), 6)
        l_soft, g_soft = soft_bootstrap(probs, targets, beta=1.0)
        l_cce, g_cce = cce(probs, targets)
        np.testing.assert_array_equal(l_soft, l_cce)
        np.testing.assert_array_equal(g_soft, g_cce)

    def test_beta_zero_uniform_is_entropy(self):
        probs, targets = single([0.5, 0.5], 0, 2)
        losses, _ = soft_bootstrap(probs, targets, beta=0.0)
        assert losses[0] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_frozen_value(self):
        # 0.3 * (-ln 0.7) + 0.7 * H((0.7, 0.2, 0.1)), evaluated at high
        # precision with mpmath and frozen here.
        probs, targets = single([0.7, 0.2, 0.1], 0, 3)
        losses, _ = soft_bootstrap(probs, targets, beta=0.3)
        assert losses[0] == pytest.approx(0.66827546996195583, rel=1e-12)

    def test_beta_out_of_range(self):
        probs, targets = single([0.7, 0.3], 0, 2)
        with pytest.raises(ConfigError):
            soft_bootstrap(probs, targets, beta=1.5)


class TestLq:
    def test_zero_loss_at_certainty(self):
        for q in (0.1, 0.5, 1.0):
            probs, targets = single([1.0, 0.0], 0, 2)
            losses, _ = lq_loss(probs, targets, q)
            assert losses[0] == 0.0

    def test_q_one_is_one_minus_p(self):
        rng = np.random.default_rng(1)
        probs = random_simplex(rng, 100, 5)
        labels = rng.integers(5, size=100)
        losses, grads = lq_loss(probs, one_hot(labels, 5), 1.0)
        p_true = probs[np.arange(100), labels]
        np.testing.assert_array_equal(losses, 1.0 - p_true)
        # q = 1 weighs every sample equally: the true-class gradient is -1.
        np.testing.assert_array_equal(grads[np.arange(100), labels], -1.0)

    def test_frozen_value(self):
        probs, targets = single([0.05, 0.95], 0, 2)
        losses, _ = lq_loss(probs, targets, 0.7)
        assert losses[0] == pytest.approx(1.2531102819834585, rel=1e-12)

    def test_q_zero_rejected(self):
        probs, targets = single([0.5, 0.5], 0, 2)
        with pytest.raises(ConfigError, match="cce"):
            lq_loss(probs, targets, 0.0)

    def test_small_q_approaches_cce(self):
        rng = np.random.default_rng(20)
        probs = random_simplex(rng, 1000, 20)
        targets = one_hot(rng.integers(20, size=1000), 20)
        l_q, _ = lq_loss(probs, targets, 1e-3)
        l_c, _ = cce(probs, targets)
        assert np.all(np.abs(l_q - l_c) < 5e-3 * (1.0 + l_c))


class TestMonotonicityAndGradientScale:
    def test_losses_decrease_in_true_class_probability(self):
        p_true = np.linspace(0.01, 0.99, 60)
        probs = np.stack([p_true, 1.0 - p_true], axis=1)
        targets = one_hot(np.zeros(60, dtype=int), 2)
        for losses in (
            cce(probs, targets)[0],
            soft_bootstrap(probs, targets, 0.5)[0],
            lq_loss(probs, targets, 0.7)[0],
        ):
            assert np.all(np.diff(losses) < 0)

    def test_cce_gradient_blows_up_but_lq_q1_stays_flat(self):
        for p in (1e-3, 1e-6):
            probs, targets = single([p, 1.0 - p], 0, 2)
            _, g_cce = cce(probs, targets)
            _, g_lq = lq_loss(probs, targets, 1.0)
            clamped = max(p, 1e-7)
            assert abs(g_cce[0, 0]) == pytest.approx(1.0 / clamped, rel=1e-12)
            assert abs(g_lq[0, 0]) == 1.0


class TestLossGradients:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda p, t: cce(p, t),
            lambda p, t: soft_bootstrap(p, t, 0.3),
            lambda p, t: lq_loss(p, t, 0.7),
        ],
    )
    def test_against_finite_differences(self, fn):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 8))
            probs = 0.05 + 0.9 * random_simplex(rng, 1, k)  # keep clear of the clamp
            targets = one_hot([int(rng.integers(k))], k)
            _, grads = fn(probs, targets)
            fd = finite_difference(lambda: float(fn(probs, targets)[0].sum()), probs)
            assert relative_error(grads, fd) < LOSS_GRAD_TOL


class TestMaskThreshold:
    def test_max_rule(self):
        kept, t = mask_threshold(
            np.array([1.0, 2.0, 10.0]), LossConfig(family="mask_max", m=0.5)
        )
        assert t == 5.0
        np.testing.assert_array_equal(kept, [0, 1])

    def test_all_equal_falls_back_to_keeping_everything(self):
        kept, t = mask_threshold(
            np.array([3.0, 3.0, 3.0]), LossConfig(family="mask_max", m=0.5)
        )
        assert t == pytest.approx(1.5)
        np.testing.assert_array_equal(kept, [0, 1, 2])

    def test_stat_rule_frozen_example(self):
        # median = 2.5, population std = sqrt(1.25), t = 2.5 + 0.4 * std.
        kept, t = mask_threshold(
            np.array([1.0, 2.0, 3.0, 4.0]), LossConfig(family="mask_stat", l=0.4)
        )
        assert t == pytest.approx(2.947213595499958, rel=1e-12)
        np.testing.assert_array_equal(kept, [0, 1])

    def test_m_one_keeps_the_maximum(self):
        losses = np.random.default_rng(4).uniform(0.1, 5.0, size=64)
        kept, _ = mask_threshold(losses, LossConfig(family="mask_max", m=1.0))
        assert kept.size == 64

    def test_huge_l_keeps_all(self):
        losses = np.random.default_rng(5).uniform(0.1, 5.0, size=64)
        kept, _ = mask_threshold(losses, LossConfig(family="mask_stat", l=1e9))
        assert kept.size == 64

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            mask_threshold(np.array([]), LossConfig(family="mask_max", m=0.5))


class TestSelectiveBatchLoss:
    def test_cce_is_the_mean(self):
        rng = np.random.default_rng(6)
        probs = random_simplex(rng, 8, 4)
        targets = one_hot(rng.integers(4, size=8), 4)
        origins = [Origin.CLEAN] * 4 + [Origin.NOISY] * 4
        total, grads = selective_batch_loss(probs, targets, origins, LossConfig())
        losses, per_grads = cce(probs, targets)
        assert total == pytest.approx(losses.mean(), rel=1e-12)
        np.testing.assert_allclose(grads, per_grads / 8)

    def test_selective_lq_mixes_families(self):
        probs = np.array([[0.6, 0.4], [0.3, 0.7]])
        targets = one_hot([0, 0], 2)
        cfg = LossConfig(family="lq", q=0.7, selective=True)
        total, _ = selective_batch_loss(
            probs, targets, [Origin.CLEAN, Origin.NOISY], cfg
        )
        expected = (cce(probs[:1], targets[:1])[0][0]
                    + lq_loss(probs[1:], targets[1:], 0.7)[0][0]) / 2
        assert total == pytest.approx(expected, rel=1e-12)

    def test_selective_masking_protects_clean_samples(self):
        # The unique maximum loss sits on a noisy sample: it gets discarded
        # while every clean sample stays, per a brute-force recount.
        rng = np.random.default_rng(7)
        probs = random_simplex(rng, 6, 3)
        labels = rng.integers(3, size=6)
        probs[5, labels[5]] = 1e-6  # force the worst loss onto sample 5
        probs /= probs.sum(axis=1, keepdims=True)
        targets = one_hot(labels, 3)
        origins = [Origin.CLEAN] * 3 + [Origin.NOISY] * 3
        cfg = LossConfig(family="mask_max", m=0.5, selective=True)
        total, grads = selective_batch_loss(probs, targets, origins, cfg)

        losses, _ = cce(probs, targets)
        t = 0.5 * losses.max()
        kept = [i for i in range(6) if i < 3 or losses[i] <= t]
        assert 5 not in kept
        assert total == pytest.approx(losses[kept].mean(), rel=1e-12)
        assert np.all(grads[5] == 0.0)
        assert all(np.any(grads[i] != 0.0) for i in range(3))

    def test_unknown_origin_flag(self):
        probs = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="origin"):
            selective_batch_loss(probs, one_hot([0], 2), ["mystery"], LossConfig())

    def test_equal_losses_with_one_clean_sample(self):
        # m < 1 discards every sample of an all-equal batch; with selective
        # set the clean one is never discarded, so it is all that is kept,
        # and without it the keep-all fallback keeps all four.
        probs = np.full((4, 2), 0.5)
        origins = [Origin.NOISY, Origin.CLEAN, Origin.NOISY, Origin.NOISY]
        for selective, expected in ((True, [1]), (False, [0, 1, 2, 3])):
            cfg = LossConfig(family="mask_max", m=0.5, selective=selective)
            _, grads = selective_batch_loss(probs, one_hot([0] * 4, 2), origins, cfg)
            assert np.flatnonzero(grads.any(axis=1)).tolist() == expected


def _inline_masked_loss(probs, targets, clean, cfg):
    """The masking branch of selective_batch_loss written out inline, with
    its own threshold: the reference that the rule shared with
    mask_threshold must match bit for bit."""
    losses, grads = cce(probs, targets)
    wide = losses.astype(np.float64)
    if cfg.family is LossFamily.MASK_MAX:
        t = cfg.m * float(wide.max())
    else:
        t = float(np.median(wide)) + cfg.l * float(wide.std())
    within = losses <= t
    kept = np.flatnonzero((clean | within) if cfg.selective else within)
    if kept.size == 0:
        kept = np.arange(len(losses))
    out = np.zeros_like(grads)
    out[kept] = grads[kept] / kept.size
    return float(losses[kept].mean()), out


class TestMaskingOracle:
    @pytest.mark.parametrize("selective", [False, True])
    @pytest.mark.parametrize("family", ["mask_max", "mask_stat"])
    def test_bits_match_the_inline_rule(self, family, selective):
        rng = np.random.default_rng(8)
        for trial in range(300):
            b = int(rng.integers(2, 65))
            k = int(rng.integers(2, 6))
            probs = random_simplex(rng, b, k).astype(np.float32 if trial % 2 else np.float64)
            labels = rng.integers(k, size=b)
            if trial % 5 == 0:  # degenerate: every sample has the same loss
                probs[:] = probs[0]
                labels[:] = labels[0]
            clean = rng.random(b) < [0.0, 0.3, 1.0][trial % 3]
            param = float(rng.uniform(0.0, 1.0 if family == "mask_max" else 3.0))
            cfg = LossConfig(family=family, selective=selective,
                             **{"m" if family == "mask_max" else "l": param})
            targets = one_hot(labels, k)
            origins = [Origin.CLEAN if c else Origin.NOISY for c in clean]
            total, grads = selective_batch_loss(probs, targets, origins, cfg)
            ref_total, ref_grads = _inline_masked_loss(probs, targets, clean, cfg)
            assert total == ref_total
            assert grads.dtype == ref_grads.dtype and np.array_equal(grads, ref_grads)


class TestLossConfigLabel:
    def test_default_parameters_keep_their_names(self):
        names = [LossConfig(family=f).label() for f in LossFamily]
        assert names == ["cce", "soft_b0.3", "lq_q0.7", "mask_max_m0.5", "mask_stat_l1.9"]
        assert LossConfig(family="lq", q=1).label() == "lq_q1"
        assert LossConfig(family="lq", q=1e-7).label() == "lq_q1e-07"
        assert LossConfig(family="lq", q=0.25, selective=True).label() == "lq_q0.25_sel"

    @pytest.mark.parametrize("q,name", [(0.7000001, "lq_q0.7000001"),
                                        (0.1234567, "lq_q0.1234567")])
    def test_a_parameter_that_g_would_round_is_named_in_full(self, q, name):
        assert LossConfig(family="lq", q=q).label() == name

    def test_every_field_a_family_reads_changes_the_label(self):
        # Cell files are named by the label, so two configs that train
        # differently must not share one. Each family is built with only
        # the fields it holds. Losses 0.1 ... 8 spread across every
        # threshold below; clean and noisy samples alternate.
        losses = np.linspace(0.1, 8.0, 16)
        p_true = np.exp(-losses)
        probs = np.column_stack([p_true] + [(1.0 - p_true) / 3] * 3)
        targets = one_hot([0] * 16, 4)
        origins = [Origin.CLEAN, Origin.NOISY] * 8
        base = dict(beta=0.3, q=0.7, m=0.5, l=1.0)
        other = dict(beta=0.8, q=0.2, m=0.9, l=0.0)  # a bool field is flipped
        names = [f.name for f in fields(LossConfig) if f.name != "family"]
        read = set()
        for family in LossFamily:
            held = [name for name in names if getattr(LossConfig(family=family), name) is not None]
            cfg = LossConfig(family=family, **{name: base[name] for name in held if name in base})
            total, grads = selective_batch_loss(probs, targets, origins, cfg)
            for name in held:
                value = getattr(cfg, name)
                changed = replace(cfg, **{name: not value if isinstance(value, bool)
                                          else other[name]})
                total2, grads2 = selective_batch_loss(probs, targets, origins, changed)
                if total2 != total or not np.array_equal(grads2, grads):
                    read.add(name)
                    assert changed.label() != cfg.label(), (family, name)
        assert read == set(names)  # every field is read by some family


class TestLossConfigFields:
    """A LossConfig holds only the fields its family reads, whether it is
    built in Python or from a config file."""

    def test_each_family_holds_its_own_defaults_and_nothing_else(self):
        held = {}
        for family in LossFamily:
            values = {f.name: getattr(LossConfig(family=family), f.name)
                      for f in fields(LossConfig) if f.name != "family"}
            held[family.value] = {name: v for name, v in values.items() if v is not None}
        assert held == {"cce": {}, "soft": {"beta": 0.3, "selective": False},
                        "lq": {"q": 0.7, "selective": False},
                        "mask_max": {"m": 0.5, "selective": False},
                        "mask_stat": {"l": 1.9, "selective": False}}

    def test_selective_cce_is_an_error_not_a_second_cell(self):
        # It named a cell all_cce_sel that trained the networks of all_cce.
        with pytest.raises(ConfigError, match="the cce family reads no key 'selective'"):
            LossConfig(selective=True)
        with pytest.raises(ConfigError, match="the cce family reads no key 'selective'"):
            LossConfig(family="cce", selective=False)

    @pytest.mark.parametrize("family,key", [
        (family.value, key) for family in LossFamily for key in ("beta", "q", "m", "l")
        if (family.value, key) not in {("soft", "beta"), ("lq", "q"), ("mask_max", "m"),
                                       ("mask_stat", "l")}])
    def test_another_familys_parameter_names_the_family_and_the_key(self, family, key):
        # In range for every family, so only the family rule can reject it.
        with pytest.raises(ConfigError, match=f"the {family} family reads no key '{key}'"):
            LossConfig(family=family, **{key: 0.5})

    def test_another_family_is_not_a_replace_away(self):
        with pytest.raises(ConfigError, match="the lq family reads no key 'beta'"):
            replace(LossConfig(family="soft"), family="lq")
