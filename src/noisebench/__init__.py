"""Training toolkit for sound event classification under label noise."""

from .audio_io import AudioClip, read_wav, write_wav
from .datasets import (
    DatasetManifest,
    LabelRecord,
    Origin,
    Split,
    Subset,
    gen_synthetic_dataset,
    load_manifest,
    select_subset,
)
from .features import (
    FeatureConfig,
    LogMelMatrix,
    extract_logmel,
    mel_filterbank,
    patchify,
    stft_power,
)
from .layers import Network, build_baseline, load_checkpoint, save_checkpoint
from .losses import (
    LossConfig,
    LossFamily,
    cce,
    lq_loss,
    mask_threshold,
    one_hot,
    selective_batch_loss,
    soft_bootstrap,
)
from .noise import NoiseSpec, NoiseType, ProvenanceLog, inject_noise, noise_report
from .optim import Adam
from .training import (
    RunReport,
    TrainConfig,
    predict_clip,
    run_experiment,
    run_single,
    stratified_val_split,
    train,
)

__version__ = "0.1.0"
