"""Same bits, pinned: sha256 digests of the numbers a change that claims to
keep them must leave alone, checked against ``tests/data/bit_pins.json``.

One child process computes every digest with ``OPENBLAS_NUM_THREADS=1``,
because desk conv weight gradients move with the BLAS thread count. The
pins hold for the numpy version, OpenBLAS version and OpenBLAS core name
stored beside them; under other facts the test prints the digests it
computed and skips. A change that moves bits on purpose rewrites the pins
in the same commit (``OPENBLAS_NUM_THREADS=1 python tests/test_bit_pins.py
--write``) and records the old digests, the new ones and why.

``python tests/test_bit_pins.py`` prints the facts and digests as JSON.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from noisebench import FeatureConfig, LossConfig, NoiseSpec, build_baseline, one_hot
from noisebench.audio_io import AudioClip
from noisebench.datasets import Origin, Split
from noisebench.features import extract_logmel
from noisebench.losses import selective_batch_loss
from noisebench.noise import inject_noise
from noisebench.training import PatchSet, precompute_features, predict_clips, run_single
from test_acceptance import TREND_FEATURES, TREND_TRAIN, _trend_dataset

PINS = Path(__file__).parent / "data" / "bit_pins.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def machine_facts() -> dict:
    """What the pinned bits depend on besides the code: numpy, its OpenBLAS
    and the kernel set OpenBLAS picked for this CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            core = get().decode()
    return {"numpy": np.__version__, "openblas": blas.get("version"), "core": core}


def _digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and other values (repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def compute_digests() -> dict:
    """Each pinned digest, by name."""
    out = {}
    for name, cfg in (("logmel_default", FeatureConfig()), ("logmel_desk", TREND_FEATURES)):
        rng = np.random.default_rng(7)
        t = np.arange(3 * cfg.sample_rate) / cfg.sample_rate
        samples = (0.3 * np.sin(2 * np.pi * 440.0 * t)
                   + 0.1 * rng.standard_normal(t.size)).astype(np.float32)
        m = extract_logmel(AudioClip(samples, cfg.sample_rate, "tone"), cfg)
        out[name] = _digest(m.values, m.frame_rate)

    clips, manifest, noisy_clips, noisy_manifest, pool = _trend_dataset()
    features = precompute_features(noisy_clips, TREND_FEATURES)
    for family, loss in (("cce", LossConfig()), ("lq", LossConfig(family="lq", q=0.7))):
        cfg = replace(TREND_TRAIN, loss=loss, seed=100)
        run = run_single(noisy_clips, noisy_manifest, TREND_FEATURES, cfg, features)
        history = [(e.epoch, e.train_loss, e.val_accuracy, e.learning_rate) for e in run.history]
        out[f"run_{family}"] = _digest(history, run.accuracy, *run.network.get_state(),
                                       run.standardizer.mean, run.standardizer.std)

    pairs = [(c, r) for c, r in zip(clips, manifest.records)
             if r.split is Split.TRAIN and r.origin is Origin.NOISY]
    for name, spec in (("inject_fsdnoisy18k", NoiseSpec.fsdnoisy18k_estimate(seed=5)),
                       ("inject_iv40", NoiseSpec(p_incorrect_iv=0.4, seed=5))):
        new_clips, records, log = inject_noise([c for c, _ in pairs], [r for _, r in pairs],
                                               spec, pool, manifest.n_classes)
        out[name] = _digest(
            *[(c.clip_id, c.sample_rate) for c in new_clips], *[c.samples for c in new_clips],
            [(r.clip_id, r.class_index, r.origin.value, r.split.value, r.noisy_small)
             for r in records],
            [(k, e.noise_type.value, e.original_label, e.source_clip_ids)
             for k, e in log.entries.items()])

    out["grads_paper_b64"] = paper_gradients(64)
    out["grads_paper_b37"] = paper_gradients(37)

    net = build_baseline(96, 86, 20, seed=4)
    rng = np.random.default_rng(11)
    clip_index = np.repeat(np.arange(24), 3)
    patches = PatchSet(rng.standard_normal((72, 1, 96, 86)).astype(np.float32),
                       np.zeros(72, int), np.array([Origin.CLEAN] * 72, dtype=object),
                       clip_index, [f"c{i}" for i in range(24)], np.zeros(24, int), 20)
    out["predict_clips_paper"] = _digest(*predict_clips(net, patches))

    return out


def paper_gradients(batch: int, nudge: bool = False) -> str:
    """Digest of one paper-shape training step's loss and parameter
    gradients; with ``nudge``, conv1's first weight starts one ulp up."""
    net = build_baseline(96, 86, 20, seed=3)
    if nudge:
        w = net.layers[2].weight.value
        w.flat[0] = np.nextafter(w.flat[0], np.float32(np.inf))
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 1, 96, 86)).astype(np.float32)
    labels = rng.integers(0, 20, batch)
    origins = np.array([Origin.NOISY] * batch, dtype=object)
    probs = net.forward(x, train=True)
    total, grads = selective_batch_loss(probs, one_hot(labels, 20), origins, LossConfig())
    net.zero_grads()
    net.backward(grads.astype(np.float32))
    return _digest(total, *[p.grad for p in net.params()])


@pytest.fixture(scope="module")
def child_digests():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_same_bits_as_the_pins(child_digests):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if child_digests["facts"] != pins["facts"]:
        print(json.dumps(child_digests, indent=2))
        pytest.skip(f"pins hold for {pins['facts']}, this machine is {child_digests['facts']}")
    assert child_digests["digests"] == pins["digests"]


def test_one_ulp_in_one_conv_weight_moves_the_digest(child_digests):
    assert child_digests["nudged"] != child_digests["digests"]["grads_paper_b37"]


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("the pins hold at one BLAS thread: set OPENBLAS_NUM_THREADS=1")
    result = {"facts": machine_facts(), "digests": compute_digests(),
              "nudged": paper_gradients(37, nudge=True)}
    if sys.argv[1:] == ["--write"]:
        pins = {"facts": result["facts"], "digests": result["digests"]}
        PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
