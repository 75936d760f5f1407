"""Tests of the benchmark's own logic. Run with:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import run

run._import_package()

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from noisebench import layers  # noqa: E402

TINY = {
    "desk_cell": workloads.DeskSizes(clips_per_class=10, test_per_class=4, epochs=3,
                                     warmup_epochs=1, rerun_epochs=2),
    "paper_net": workloads.PaperSizes(n_mels=16, frames=16, channels=(2, 3, 4), kernel=3,
                                      n_classes=4, batch=8, train_batches=2,
                                      patches_per_clip=(1, 2, 3), check_clips=2),
    "ingest": workloads.IngestSizes(n_classes=2, train_per_class=2, test_per_class=1,
                                    min_s=0.5, max_s=5.0, n_distractors=1),
}


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and d [8, 9];
    # a has child c [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 8.0, 9.0, 0, None],
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def _naive_conv_count(x, w, pad):
    """Direct loops over a stride-1 convolution, counting multiply-adds."""
    b, c, h, wd = x.shape
    f, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    out = np.zeros((b, f, ho, wo))
    macs = 0
    for n in range(b):
        for o in range(f):
            for i in range(ho):
                for j in range(wo):
                    for ci in range(c):
                        for di in range(k):
                            for dj in range(k):
                                out[n, o, i, j] += w[o, ci, di, dj] * xp[n, ci, i + di, j + dj]
                                macs += 1
    return out, macs


def test_conv_flops_match_a_hand_count():
    conv = layers.Conv2d(2, 3, 3, "same", np.random.default_rng(0), np.float64)
    x = np.random.default_rng(1).standard_normal((2, 2, 4, 5))
    expected, macs = _naive_conv_count(x, conv.weight.value, conv.pad)
    np.testing.assert_allclose(conv.forward(x, train=False), expected, atol=1e-12)
    assert macs == 2 * 4 * 5 * 3 * 2 * 3 * 3
    assert spans.conv_flops(2, 4, 5, 2, 3, 3) == 2 * macs

    tracer = spans.Tracer()
    # Stages are counted from their leading batch norm, as in build_baseline.
    tracer.instrument_network(layers.Network([layers.BatchNorm(2, dtype=np.float64), conv]))
    conv.forward(x, train=True)
    conv.backward(np.ones((2, 3, 4, 5)))
    tracer.uninstall()
    fwd, bwd = tracer.spans
    assert fwd[0] == "layers.conv1.fwd" and bwd[0] == "layers.conv1.bwd"
    assert fwd[4] == {"flop": 2 * macs, "im2col_bytes": 2 * 4 * 5 * 2 * 3 * 3 * 8}
    assert bwd[4] == {"flop": 4 * macs}
    assert "forward" not in vars(conv)


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name][0]

    def digest(seed, sub):
        return workloads.input_digest(setup(seed, TINY[name], tmp_path / sub))

    first = digest(3, "a")
    assert digest(3, "b") == first
    assert digest(4, "c") != first


def test_tracer_patches_every_binding_and_restores_them():
    from noisebench import losses, training

    original = losses.selective_batch_loss
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert training.selective_batch_loss is losses.selective_batch_loss
        assert training.selective_batch_loss is not original
    finally:
        tracer.uninstall()
    assert training.selective_batch_loss is original
    assert losses.selective_batch_loss is original


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_prints_every_metric(name, trace, tmp_path, capsys):
    result = run.run_one(name, 5, 0.5, trace, sizes=TINY[name], workdir=tmp_path / "w")
    assert result["problems"] == [] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in table]
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for key in metrics.PHASE_NAMES[name]:
            assert result["named"][key]["value"] > 0
    if name == "desk_cell" and not trace:
        assert result["named"]["run_s"]["value"] == result["metrics"]["op_s"]["value"]
    run._report(result)
    printed = capsys.readouterr().out
    for key in list(result["metrics"]) + list(result["named"]) + ["op_error_rate"]:
        assert f" {key} " in printed
    json.dumps({k: v for k, v in result.items() if k != "spans"})
    assert not (tmp_path / "w").exists()


def test_layers_read_zero_on_ingest_and_waste_ratios_are_one(tmp_path):
    ingest = run.run_one("ingest", 1, 0.5, True, sizes=TINY["ingest"], workdir=tmp_path / "i")
    assert all(m["value"] == 0 for k, m in ingest["metrics"].items()
               if k.startswith("layers."))
    assert ingest["metrics"]["features.filterbank_calls_per_clip"]["value"] == 1.0
    paper = run.run_one("paper_net", 1, 0.5, True, sizes=TINY["paper_net"],
                        workdir=tmp_path / "p")
    assert paper["metrics"]["training.forward_calls_per_clip"]["value"] == 1.0
    assert paper["metrics"]["layers.conv2.gflop_per_s"]["value"] > 0


def test_float64_check_fails_a_conv_that_computes_wrong_numbers(tmp_path, monkeypatch):
    sizes = TINY["paper_net"]
    state = workloads.paper_setup(2, sizes, tmp_path)
    good = workloads.Outcome()
    workloads._paper_float64_check(state, good)
    assert good.failed == 0 and good.attempted == sizes.check_clips

    forward = layers.Conv2d.forward

    def flipped_kernel(self, x, train):
        # A classic kernel bug: convolution instead of cross-correlation.
        if x.dtype != np.float32:
            return forward(self, x, train)
        w = self.weight.value.copy()
        self.weight.value[...] = w[:, :, ::-1, ::-1]
        try:
            return forward(self, x, train)
        finally:
            self.weight.value[...] = w

    monkeypatch.setattr(layers.Conv2d, "forward", flipped_kernel)
    bad = workloads.Outcome()
    workloads._paper_float64_check(state, bad)
    assert bad.failed == sizes.check_clips
