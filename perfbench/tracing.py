"""Span tracer that wraps taskdenoise's public functions from outside.

Nothing under ``src/`` knows about it. :meth:`Tracer.install` replaces each
traced function in the module that looks it up at call time (``schemes``
binds ``backward``, ``adam_step`` and ``apply_noise`` by name at import,
``experiment`` binds ``load_dataset`` and ``load_checkpoint`` the same way,
``networks`` calls ops through the ``autodiff`` module), wraps
``Model.forward`` of each network class, and times an op's backward by
wrapping the ``backward_fn`` of the record the op just appended to the
public ``Tape.records``. :meth:`Tracer.uninstall` puts every original back,
so untraced iterations run the unmodified program.

A span records its name, start, end and parent; spans of one iteration
share the iteration id. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from taskdenoise import autodiff, data, experiment, metrics, networks, schemes
from taskdenoise.rng import Rng

_perf = time.perf_counter

# op function -> span group; the group names the per-layer metric
_OP_GROUPS = {
    "conv2d": "conv2d",
    "transpose_conv2d": "transpose_conv2d",
    "maxpool2d": "maxpool2d",
    "batchnorm2d": "batchnorm2d",
    "relu": "elementwise",
    "add": "elementwise",
    "sub": "elementwise",
    "concat_channels": "elementwise",
    "flatten": "elementwise",
    "linear": "elementwise",
}
_LOSSES = ("cross_entropy_loss", "mse_loss")
_NETWORK_CLASSES = (networks.RedCnn, networks.McDnCnn, networks.NoNewNet2d, networks.Ccnn)


def _conv_flops(args, out) -> int:
    """Multiply-adds x2 of one conv pass: 2*C_out*C_in*k*k*H_out*W_out."""
    cout, cin, kh, kw = args[1].shape
    return 2 * cout * cin * kh * kw * out.shape[1] * out.shape[2]


def _tconv_flops(args, out) -> int:
    """Same count for a transposed conv, whose small side is its input."""
    cin, cout, kh, kw = args[1].shape
    return 2 * cout * cin * kh * kw * args[0].shape[1] * args[0].shape[2]


_FLOPS = {"conv2d": _conv_flops, "transpose_conv2d": _tconv_flops}


class Tracer:
    """In-memory spans plus per-iteration busy time, self time and counts."""

    def __init__(self):
        self.spans: list[tuple] = []  # (iteration, span id, parent id, name, start, end)
        self.iteration = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, parent id, name, start, child seconds]
        self._tapes: list = []
        self._step_start = 0.0
        self._scheme: str | None = None
        self._originals: list[tuple] = []
        self._reset_counters()

    # -- span bookkeeping -------------------------------------------------

    def _reset_counters(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.flops = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.step_s: dict[str, list[float]] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)

    def _open(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, _perf(), 0.0])

    def _close(self) -> None:
        end = _perf()
        span_id, parent, name, start, child = self._stack.pop()
        duration = end - start
        self.spans.append((self.iteration, span_id, parent, name, start, end))
        self.busy[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a CLI call."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._reset_counters()

    def end_iteration(self) -> dict:
        """Per-layer metrics of the iteration just traced: name -> value."""
        b, calls = self.busy, self.calls
        out: dict[str, float] = {}
        for group in ("conv2d", "transpose_conv2d", "maxpool2d", "batchnorm2d", "elementwise", "loss"):
            out[f"autodiff.{group}.fwd_s"] = b[f"autodiff.{group}.fwd"]
            out[f"autodiff.{group}.bwd_s"] = b[f"autodiff.{group}.bwd"]
        out["autodiff.conv2d.calls"] = calls["autodiff.conv2d.fwd"]
        out["autodiff.transpose_conv2d.calls"] = calls["autodiff.transpose_conv2d.fwd"]
        out["autodiff.backward.s"] = b["autodiff.backward"]
        out["autodiff.backward.self_s"] = self.self_s["autodiff.backward"]
        conv_s = sum(b[f"autodiff.{g}.{d}"] for g in ("conv2d", "transpose_conv2d") for d in ("fwd", "bwd"))
        out["autodiff.conv.gflop"] = self.flops / 1e9
        out["autodiff.conv.gflop_per_s"] = self.flops / 1e9 / conv_s if conv_s else 0.0
        out["optim.adam_step.s"] = b["optim.adam_step"]
        out["optim.adam_step.calls"] = calls["optim.adam_step"]
        for cls in _NETWORK_CLASSES:
            out[f"networks.{cls.kind}.fwd_s"] = b[f"networks.{cls.kind}.fwd"]
        out["networks.save_checkpoint.s"] = b["networks.save_checkpoint"]
        for name in ("networks.load_checkpoint", "data.load_dataset"):
            out[f"{name}.s"] = b[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.useful_frac"] = len(self.distinct[name]) / calls[name] if calls[name] else 0.0
        for scheme in schemes.SCHEME_KINDS:
            out[f"schemes.train.{scheme}_s"] = b[f"schemes.train.{scheme}"]
            steps = self.step_s[scheme]
            out[f"schemes.step_ms.{scheme}"] = 1e3 * statistics.median(steps) if steps else 0.0
        out["schemes.evaluate_scheme.s"] = b["schemes.evaluate_scheme"]
        out["schemes.predict.s"] = b["schemes.predict"]
        out["noise.apply_noise.s"] = b["noise.apply_noise"]
        out["noise.apply_noise.calls"] = calls["noise.apply_noise"]
        for method in ("gaussian", "poisson", "uniform"):
            out[f"rng.{method}.s"] = b[f"rng.{method}"]
        for name in ("data.generate_dataset", "data.save_dataset"):
            out[f"{name}.s"] = b[name]
        out["tensorio.read.s"] = b["tensorio.read"]
        out["tensorio.read.mb"] = self.read_bytes / 1e6
        out["tensorio.write.s"] = b["tensorio.write"]
        out["tensorio.write.mb"] = self.write_bytes / 1e6
        for name in ("hausdorff", "evaluate_segmentation_sample", "write_per_sample_csv"):
            out[f"metrics.{name}.s"] = b[f"metrics.{name}"]
        stages = [f"experiment.stage.{s}" for s in ("generate", "train", "eval")]
        for stage in stages:
            out[f"{stage}_s"] = b[stage]
        out["experiment.self_s"] = sum(self.self_s[stage] for stage in stages)
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: iteration, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for iteration, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"iter": iteration, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_op(self, fn, group: str, flops=None):
        tracer = self
        fwd, bwd = f"autodiff.{group}.fwd", f"autodiff.{group}.bwd"

        def wrapper(*args, **kwargs):
            tape = tracer._tapes[-1] if tracer._tapes else None
            before = len(tape.records) if tape is not None else 0
            tracer._open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            pass_flops = flops(args, out) if flops is not None else 0
            tracer.flops += pass_flops
            if tape is not None and len(tape.records) > before:
                record = tape.records[-1]
                record.backward_fn = tracer._wrap_backward(record.backward_fn, bwd, pass_flops)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_backward(self, backward_fn, name: str, pass_flops: int):
        tracer = self

        def wrapper(g):
            tracer._open(name)
            try:
                grads = backward_fn(g)
            finally:
                tracer._close()
            # one pass per computed input or kernel gradient
            tracer.flops += pass_flops * sum(1 for d in grads[:2] if d is not None)
            return grads

        return wrapper

    def install(self) -> None:
        """Wrap every traced function; :meth:`uninstall` undoes it."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        tracer = self
        for fn_name, group in _OP_GROUPS.items():
            self._patch(autodiff, fn_name, self._wrap_op(getattr(autodiff, fn_name), group, _FLOPS.get(fn_name)))
        for fn_name in _LOSSES:
            self._patch(schemes, fn_name, self._wrap_op(getattr(schemes, fn_name), "loss"))
        self._patch(schemes, "backward", self._wrap(schemes.backward, "autodiff.backward"))

        class TracedTape(schemes.Tape):
            def __enter__(self):
                tape = super().__enter__()
                tracer._tapes.append(self)
                tracer._step_start = _perf()
                return tape

            def __exit__(self, *exc):
                tracer._tapes.pop()
                return super().__exit__(*exc)

        self._patch(schemes, "Tape", TracedTape)

        def step_done(args, result):
            if tracer._scheme is not None:
                tracer.step_s[tracer._scheme].append(_perf() - tracer._step_start)

        self._patch(schemes, "adam_step", self._wrap(schemes.adam_step, "optim.adam_step", after=step_done))
        self._patch(schemes, "apply_noise", self._wrap(schemes.apply_noise, "noise.apply_noise"))
        self._patch(schemes, "evaluate_scheme", self._wrap(schemes.evaluate_scheme, "schemes.evaluate_scheme"))
        self._patch(schemes, "predict", self._wrap(schemes.predict, "schemes.predict"))

        def training(fn, scheme_of):
            def wrapper(*args, **kwargs):
                tracer._scheme = scheme_of(args, kwargs)
                tracer._open(f"schemes.train.{tracer._scheme}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()
                    tracer._scheme = None

            wrapper.__wrapped__ = fn
            return wrapper

        def app_scheme(args, kwargs):
            noise = args[3] if len(args) > 3 else kwargs.get("noise_spec")
            return schemes.TC if noise is None else schemes.TD

        self._patch(schemes, "train_application", training(schemes.train_application, app_scheme))
        self._patch(schemes, "train_denoiser_hv", training(schemes.train_denoiser_hv, lambda a, k: schemes.HV))
        self._patch(schemes, "train_denoiser_nnv", training(schemes.train_denoiser_nnv, lambda a, k: schemes.NNV))

        for fn_name in ("hausdorff", "evaluate_segmentation_sample", "write_per_sample_csv"):
            self._patch(metrics, fn_name, self._wrap(getattr(metrics, fn_name), f"metrics.{fn_name}"))

        def distinct(name):
            return lambda args, kwargs: tracer.distinct[name].add(str(args[0] if args else kwargs["directory"]))

        self._patch(experiment, "generate_dataset", self._wrap(experiment.generate_dataset, "data.generate_dataset"))
        self._patch(experiment, "save_dataset", self._wrap(experiment.save_dataset, "data.save_dataset"))
        self._patch(experiment, "load_dataset",
                    self._wrap(experiment.load_dataset, "data.load_dataset", before=distinct("data.load_dataset")))
        self._patch(experiment, "save_checkpoint",
                    self._wrap(experiment.save_checkpoint, "networks.save_checkpoint"))
        self._patch(experiment, "load_checkpoint",
                    self._wrap(experiment.load_checkpoint, "networks.load_checkpoint",
                               before=distinct("networks.load_checkpoint")))

        def read_done(args, array):
            tracer.read_bytes += 4 * array.size

        def write_start(args, kwargs):
            tracer.write_bytes += 4 * args[1].size

        for module in (networks, data):
            self._patch(module, "read_tensor", self._wrap(module.read_tensor, "tensorio.read", after=read_done))
            self._patch(module, "write_tensor",
                        self._wrap(module.write_tensor, "tensorio.write", before=write_start))

        for cls in _NETWORK_CLASSES:
            self._patch(cls, "forward", self._wrap(cls.forward, f"networks.{cls.kind}.fwd"))
        for method in ("gaussian", "poisson", "uniform"):
            self._patch(Rng, method, self._wrap(getattr(Rng, method), f"rng.{method}"))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
