"""End-to-end experiment pipeline: generate, train, evaluate, compare, analyze.

Each command takes one config, which is checked when built, and writes
under its ``output_dir`` only:

    dataset/                      generated phantom dataset
    checkpoints/<scheme>/         trained weights + loss.csv
    metrics/<scheme>_<noise>.csv  per-sample metrics
    compare.csv                   schemes x metrics aggregate
    dct/<name>.{csv,pgm}          spectrum and frequency-gradient heatmaps

``train``, ``eval`` and ``compare`` run one path (:func:`_run`) under one
rule: first load every checkpoint directory the command reads (both of
each scheme it scores, and the tc-trained application network when it
trains nnv's denoiser) and check its fit by ``config.check_fit``, the rule
the config's own networks pass when it is built; a listed directory that
is missing fails unless the command trains it. Only then are the dataset
splits it uses read or generated, once, so such a failure writes nothing.
Then it trains what is missing (``eval`` never trains) and scores. Each
checkpoint directory is loaded once (tc's application network serves tc,
hv and nnv, and nnv's training), and each test noise's corrupted test set
is made once, since the dirty images depend only on the noise spec and the
sample index. ``eval`` scores one scheme, ``compare`` every scheme, at
every test noise of the config, through one function, so each metrics file
is the same bytes whichever command wrote it; another test noise is one more
entry of ``test_noises``. Evaluation denoises every test image of every
denoiser scheme on every core this process may run on, in forked children
that write each output into its slot of one shared mapping made before
they fork (:func:`_denoise`), before it scores any scheme in this process;
on one core, or where ``os.sched_getaffinity`` or ``os.fork`` is missing,
it runs every denoiser pass here. A traced run times only this process's
share of those passes. All artifacts are pure functions of the config,
whatever the core count.
"""

from __future__ import annotations

import mmap
import os
from pathlib import Path

import numpy as np

from . import dct as dct_mod
from . import metrics as metrics_mod
from . import schemes as schemes_mod
from .autodiff import Tensor, _wrap
from .config import ExperimentConfig, check_fit
from .data import SPLITS, Sample, generate_dataset, load_dataset, load_dataset_spec, save_dataset
from .errors import CheckpointError, ConfigError
from .networks import Model, build_network, load_checkpoint, save_checkpoint
from .noise import noise_tag
from .schemes import HV, NNV, TC, TD, TrainResult
from .tensorio import read_tensor, write_csv


def _dataset_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.output_dir) / "dataset"


def _checkpoint_dir(cfg: ExperimentConfig, scheme: str) -> Path:
    return Path(cfg.output_dir) / "checkpoints" / scheme


def ensure_dataset(cfg: ExperimentConfig, splits: tuple = SPLITS):
    """(train, test) samples: the ``splits`` named are read if the dataset
    was already generated for this spec (a split not named is None), else
    the dataset is generated and both are returned. The manifest alone
    decides, so a stale dataset's samples are never read."""
    ddir = _dataset_dir(cfg)
    if (ddir / "manifest.json").is_file() and load_dataset_spec(ddir) == cfg.dataset:
        _, train, test = load_dataset(ddir, splits)
        return train, test
    train, test = generate_dataset(cfg.dataset)
    save_dataset(cfg.dataset, train, test, ddir)
    return train, test


def cmd_generate(cfg: ExperimentConfig) -> Path:
    train, test = generate_dataset(cfg.dataset)
    save_dataset(cfg.dataset, train, test, _dataset_dir(cfg))
    return _dataset_dir(cfg)


# ---------------------------------------------------------------------------
# Training


def _save_trained(model: Model, result: TrainResult, ckpt: Path) -> None:
    """loss.csv first, then the checkpoint, whose manifest comes last of all."""
    write_csv(ckpt / "loss.csv", ["epoch", "train_loss", "val_loss"], result.trace)
    save_checkpoint(model, ckpt, epoch=result.best_epoch)


_ROLES = ("application", "denoiser")


def _scheme_dirs(cfg: ExperimentConfig, scheme: str) -> tuple[Path, Path | None]:
    """(application, denoiser) checkpoint directories the scheme routes
    through: the config's override, else the conventional layout, where hv
    and nnv route through the clean-trained (tc) application network."""
    for o in cfg.checkpoint_overrides:
        if o.scheme == scheme:
            return Path(o.application), None if o.denoiser is None else Path(o.denoiser)
    app_dir = _checkpoint_dir(cfg, TD if scheme == TD else TC)
    return app_dir, _checkpoint_dir(cfg, scheme) if scheme in (HV, NNV) else None


def _complete(ckpt: Path) -> bool:
    return (ckpt / "manifest.json").is_file()


def _needs_training(cfg: ExperimentConfig, scheme: str) -> bool:
    """Whether the scheme has a checkpoint to train (never under an override)."""
    dirs = [d for d in _scheme_dirs(cfg, scheme) if d is not None]
    overridden = any(o.scheme == scheme for o in cfg.checkpoint_overrides)
    return not overridden and not all(_complete(d) for d in dirs)


def _train(cfg: ExperimentConfig, scheme: str, train_samples: list[Sample], loaded: dict) -> None:
    """Train and save the scheme's missing checkpoints, application first.
    nnv's denoiser trains through the application network in ``loaded``
    (see :func:`_load`), which training leaves bit-identical, because it is
    frozen and runs in eval mode, so evaluation can reuse it."""
    app_dir, den_dir = _scheme_dirs(cfg, scheme)
    if not _complete(app_dir):
        model = build_network(cfg.application)
        noise = cfg.train_noise if scheme == TD else None
        result = schemes_mod.train_application(model, train_samples, cfg.train, noise, cfg.seed)
        _save_trained(model, result, app_dir)
    if den_dir is not None and not _complete(den_dir):
        denoiser = build_network(cfg.denoiser)
        if scheme == HV:
            result = schemes_mod.train_denoiser_hv(denoiser, train_samples, cfg.train, cfg.train_noise, cfg.seed)
        else:
            app_model = _load(cfg, app_dir, loaded, "application", scheme)
            result = schemes_mod.train_denoiser_nnv(
                denoiser, app_model, train_samples, cfg.train, cfg.train_noise, cfg.seed
            )
        _save_trained(denoiser, result, den_dir)


# ---------------------------------------------------------------------------
# Evaluation


def _load(cfg: ExperimentConfig, ckpt: Path, loaded: dict, role: str, scheme: str) -> Model:
    """The ``role`` model of ``scheme`` at ``ckpt``; never trains.

    ``loaded`` maps a resolved checkpoint directory to its model. A
    directory already in it is not read again, so schemes that route through
    one checkpoint share one model: evaluation runs every model in eval
    mode, which changes neither weights nor batchnorm statistics. The model
    must fit its role by :func:`config.check_fit`, checked on every use,
    since one directory can serve two roles.
    """
    key = ckpt.resolve()
    if key not in loaded:
        if not _complete(ckpt):
            raise CheckpointError(f"missing {role} checkpoint for scheme {scheme!r} at {ckpt}")
        loaded[key], _ = load_checkpoint(ckpt)
    check_fit(loaded[key].spec, role, cfg.dataset, f"{role} checkpoint for scheme {scheme!r} at {ckpt}")
    return loaded[key]


def _metrics_path(cfg: ExperimentConfig, scheme: str, tag: str) -> Path:
    return Path(cfg.output_dir) / "metrics" / f"{scheme}_{tag}.csv"


def _denoise(jobs: list) -> list[Tensor]:
    """Eval-mode output of each (denoiser, image) job, in job order.

    Every output lands in its slot of one anonymous shared mapping, made
    before any fork, each slot the size of its job's input (a denoiser's
    output has its input's shape). The jobs are cut into contiguous spans,
    one per core this process may run on (one span without
    ``os.sched_getaffinity`` or ``os.fork``). This process fills the first
    span and forks a child per other span, which fills that span's slots
    and leaves through ``os._exit``, so nothing of the parent's (exit
    handlers, buffered output) runs twice. A child never waits on this
    process, so reaping every child, on every path, cannot hang. A span
    whose child exited non-zero is run again here, so its error is raised as
    on one core. Each output is copied out of the mapping unvalidated, as an
    op's output is.
    """
    if not jobs:
        return []
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1
    bounds = [-(-len(jobs) * k // cores) for k in range(cores + 1)]
    first, *rest = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    ends = np.cumsum([0] + [image.size for _, image in jobs])
    flat = np.frombuffer(mmap.mmap(-1, 4 * int(ends[-1])), dtype=np.float32)
    slots = [flat[a:b].reshape(image.shape) for a, b, (_, image) in zip(ends, ends[1:], jobs)]

    def fill(span: slice) -> None:
        for (denoiser, image), slot in zip(jobs[span], slots[span]):
            slot[...] = denoiser.forward(image, train=False).data

    children: dict = {}  # pid -> span of each forked child
    try:
        for span in rest:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    fill(span)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = span
        fill(first)
    finally:
        failed = [span for pid, span in children.items() if os.waitpid(pid, 0)[1] != 0]
    for span in failed:
        fill(span)
    return [_wrap(slot.copy()) for slot in slots]


def _evaluate(cfg: ExperimentConfig, models: dict, test_samples: list[Sample]) -> list:
    """Score each scheme's (application, denoiser or None) pair at every
    test noise of the config and write its per-sample CSV; returns one
    (scheme, noise tag, report) row per pair. Each noise's dirty images are
    made once, and every scheme's denoised images (:func:`_denoise`) are
    made before the first is scored. ``eval`` and ``compare`` both score
    here."""
    dirty = [schemes_mod.corrupt_samples(test_samples, noise, "test") for noise in cfg.test_noises]
    jobs = [(den, image) for _, den in models.values() if den is not None for images in dirty for image in images]
    denoised = iter(_denoise(jobs))
    rows: list[tuple[str, str, metrics_mod.MetricsReport]] = []
    for scheme, (application, denoiser) in models.items():
        for test_noise, images in zip(cfg.test_noises, dirty):
            if denoiser is not None:
                images = [next(denoised) for _ in images]
            report = schemes_mod.evaluate_scheme(application, test_samples, images)
            tag = noise_tag(test_noise)
            metrics_mod.write_per_sample_csv(report, _metrics_path(cfg, scheme, tag))
            rows.append((scheme, tag, report))
    return rows


# ---------------------------------------------------------------------------
# Commands


def _check_scheme(cfg: ExperimentConfig, scheme: str) -> None:
    """``train`` and ``eval`` act only on a scheme the config names."""
    if scheme not in cfg.schemes:
        raise ConfigError(f"scheme {scheme!r} is not in the config's scheme list {list(cfg.schemes)}")


def _run(cfg: ExperimentConfig, trains: tuple[str, ...], scores: tuple[str, ...]) -> list:
    """Train the missing checkpoints of the schemes ``trains``, then score
    the schemes ``scores`` through :func:`_evaluate`; returns its rows. The
    steps, in order, are the module's rule: load and fit-check every listed
    checkpoint directory through :func:`_load`, read or generate the splits
    used, train in config order, score. One ``loaded`` dict serves them all.
    """
    trains = tuple(scheme for scheme in trains if _needs_training(cfg, scheme))
    loaded: dict = {}
    for scheme in cfg.schemes:
        app_dir, den_dir = _scheme_dirs(cfg, scheme)
        reads_app = scheme in scores or (scheme == NNV and scheme in trains and not _complete(den_dir))
        listed = (app_dir if reads_app else None, den_dir if scheme in scores else None)
        for role, ckpt in zip(_ROLES, listed):
            if ckpt is not None and (_complete(ckpt) or scheme not in trains):
                _load(cfg, ckpt, loaded, role, scheme)
    splits = (("train",) if trains else ()) + (("test",) if scores else ())
    train_samples, test_samples = ensure_dataset(cfg, splits) if splits else (None, None)
    for scheme in trains:
        _train(cfg, scheme, train_samples, loaded)
    models = {}
    for scheme in scores:
        dirs = zip(_ROLES, _scheme_dirs(cfg, scheme))
        models[scheme] = tuple(None if d is None else _load(cfg, d, loaded, role, scheme) for role, d in dirs)
    return _evaluate(cfg, models, test_samples) if scores else []


def cmd_train(cfg: ExperimentConfig, scheme: str) -> dict:
    """Train the scheme's missing checkpoints (nnv's needs tc's application
    network); returns {"application": Path, "denoiser": Path | None}."""
    _check_scheme(cfg, scheme)
    _run(cfg, (scheme,), ())
    return dict(zip(_ROLES, _scheme_dirs(cfg, scheme)))


def cmd_eval(cfg: ExperimentConfig, scheme: str) -> list:
    """Evaluate one trained scheme at every test noise of the config;
    returns one (report, csv path) pair per test noise, in config order."""
    _check_scheme(cfg, scheme)
    return [(report, _metrics_path(cfg, scheme, tag)) for _, tag, report in _run(cfg, (), (scheme,))]


def cmd_compare(cfg: ExperimentConfig):
    """Train whatever is missing, evaluate every scheme at every test noise,
    and write the aggregate comparison CSV. Returns (rows, csv path): one
    (scheme, noise tag, report) row per evaluated combination."""
    rows = _run(cfg, cfg.schemes, cfg.schemes)
    path = Path(cfg.output_dir) / "compare.csv"
    metrics_mod.write_compare_csv(rows, path)
    return rows, path


# ---------------------------------------------------------------------------
# DCT analysis


def cmd_dct(cfg: ExperimentConfig, image_path, checkpoint=None) -> list[Path]:
    """Spectrum heatmap of an image; with a checkpoint, also the
    frequency-gradient heatmap of that model on the image."""
    out = Path(cfg.output_dir) / "dct"
    image_path = Path(image_path)
    image = read_tensor(image_path)
    stem = image_path.name.split(".")[0]
    produced: list[Path] = []
    produced += dct_mod.export_heatmap(dct_mod.spectrum_sd(image), out / f"{stem}.spectrum")
    if checkpoint is not None:
        model, _ = load_checkpoint(Path(checkpoint))
        grid = dct_mod.frequency_gradient(dct_mod.sum_head(model), image)
        produced += dct_mod.export_heatmap(grid, out / f"{stem}.freqgrad")
    return produced

