"""Span tracing of texsyn from outside, by wrapping its public functions.

``Tracer.install`` swaps each traced function for a wrapper in every
texsyn module that holds a reference to it (modules import each other's
functions by name), and ``uninstall`` puts the originals back.  A span is
(name, start, end, parent, layer); its self time is its duration minus the
durations of its direct children.  Counters (ops, tensordot calls, output
bytes, finite checks) are plain sums, kept without spans because they fire
thousands of times per step.

A conv2d or full_conv2d call is attributed to a named layer by the kernel
it receives: generator and transfer parameters by the kernel Tensor,
extractor weights by the kernel's ndarray, which ``extract`` wraps in a
fresh Tensor on every call.  The backward time of a convolution is the
time spent in the ``_backward`` closure of its result tensor, which the
wrapper replaces with a timed one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# traced function -> span name; "module:attr" or "module:Class.method"
SPANS = {
    "texsyn.generator:generate": "generator.generate",
    "texsyn.extractor:extract": "extractor.extract",
    "texsyn.losses:texture_loss": "losses.texture_loss",
    "texsyn.losses:diversity_loss": "losses.diversity_loss",
    "texsyn.optim:Adam.step": "optim.adam_step",
    "texsyn.trainer:train_step": "trainer.train_step",
    "texsyn.trainer:precompute_targets": "trainer.precompute_targets",
    "texsyn.transfer:transfer": "transfer.forward",
    "texsyn.autodiff:backward": "autodiff.backward",
    "texsyn.images:load_image": "images.load_image",
    "texsyn.images:save_image": "images.save_image",
    "texsyn.serialize:load_tensors": "serialize.load_tensors",
    "texsyn.serialize:save_tensors": "serialize.save_tensors",
    "texsyn.cli:main": "cli.main",
}
# functions whose result holds parameters whose kernels name layers
PARAM_SOURCES = (
    "texsyn.generator:init_params",
    "texsyn.generator:load_model",
    "texsyn.transfer:init_transfer_params",
)
CONVS = {"texsyn.autodiff:conv2d": "autodiff.conv2d", "texsyn.autodiff:full_conv2d": "autodiff.full_conv2d"}

GENERATOR_LAYERS = ("seed", "scale1", "scale2", "scale3", "selector.scale1", "selector.scale2", "selector.scale3", "rgb")
EXTRACTOR_LAYERS = ("conv1_1", "conv2_1", "conv3_1", "conv4_1", "conv4_2", "conv5_1")
TRANSFER_LAYERS = ("enc1", "enc2", "dec1", "dec2", "dec3")
LAYERS = GENERATOR_LAYERS + EXTRACTOR_LAYERS + TRANSFER_LAYERS

# per-layer metric -> (span name, time kind); kind "total" or "self"
TIMED = {
    "generator.generate_ms": ("generator.generate", "total"),
    "extractor.extract_ms": ("extractor.extract", "total"),
    "losses.texture_loss_ms": ("losses.texture_loss", "total"),
    "losses.diversity_loss_ms": ("losses.diversity_loss", "total"),
    "optim.adam_step_ms": ("optim.adam_step", "total"),
    "trainer.train_step.self_ms": ("trainer.train_step", "self"),
    "transfer.forward_ms": ("transfer.forward", "total"),
    "autodiff.backward.self_ms": ("autodiff.backward", "self"),
    "autodiff.conv2d.fwd_ms": ("autodiff.conv2d.fwd", "total"),
    "autodiff.conv2d.bwd_ms": ("autodiff.conv2d.bwd", "total"),
    "autodiff.full_conv2d.fwd_ms": ("autodiff.full_conv2d.fwd", "total"),
    "autodiff.full_conv2d.bwd_ms": ("autodiff.full_conv2d.bwd", "total"),
    "images.save_image_ms": ("images.save_image", "total"),
    "serialize.load_tensors_ms": ("serialize.load_tensors", "total"),
    "serialize.save_tensors_ms": ("serialize.save_tensors", "total"),
    "cli.main.self_ms": ("cli.main", "self"),
}


def _resolve(target: str):
    module_name, attr = target.split(":")
    owner = sys.modules[module_name]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, layer or None]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []  # (owner, attr, original)
        self._param_layers = {}  # id(kernel Tensor) -> layer
        self._array_layers = {}  # id(kernel ndarray) -> layer

    # -- recording ---------------------------------------------------------
    def open(self, name: str, layer: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, layer])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- layer names -------------------------------------------------------
    def register_params(self, params) -> None:
        """Name each kernel tensor of generator or transfer parameters."""
        self._param_layers = {
            id(t): name.removesuffix(".kernel")
            for name, t in params.tensors.items()
            if name.endswith(".kernel")
        }

    def register_extractor(self, extractor) -> None:
        self._array_layers = {
            id(arr): name.removesuffix(".kernel")
            for name, arr in extractor.weights.items()
            if name.endswith(".kernel")
        }

    def _layer(self, kernel) -> str:
        return self._param_layers.get(id(kernel)) or self._array_layers.get(
            id(kernel.data), "unnamed"
        )

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            # an extract whose image needs no gradient reads an input image
            const = name == "extractor.extract" and not args[1].requires_grad
            index = self.open(name, "const-input" if const else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _conv_wrapper(self, name, fn):
        def wrapper(input, kernel, *args, **kwargs):
            layer = self._layer(kernel)
            index = self.open(name + ".fwd", layer)
            try:
                out = fn(input, kernel, *args, **kwargs)
            finally:
                self.close(index)
            closure = out._backward
            if closure is not None:

                def timed_backward(g):
                    i = self.open(name + ".bwd", layer)
                    try:
                        return closure(g)
                    finally:
                        self.close(i)

                out._backward = timed_backward
            return out

        return wrapper

    def _patch_everywhere(self, target: str, make) -> None:
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        wrapper = make(original)
        holders = [owner] + [
            m for n, m in list(sys.modules.items()) if n.startswith("texsyn") and m is not owner
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def install(self) -> None:
        import texsyn.autodiff as ad

        for target, name in SPANS.items():
            self._patch_everywhere(target, lambda fn, name=name: self._span_wrapper(name, fn))
        for target in PARAM_SOURCES:
            name = target.removeprefix("texsyn.").replace(":", ".")
            self._patch_everywhere(
                target, lambda fn, name=name: self._span_wrapper(name, fn, self.register_params)
            )
        for target, name in CONVS.items():
            self._patch_everywhere(target, lambda fn, name=name: self._conv_wrapper(name, fn))

        counts = self.counts
        check, result, tensordot = ad._check_finite, ad._result, np.tensordot

        def counted_check(array, op):
            t0 = time.perf_counter()
            try:
                check(array, op)
            finally:
                counts["finite_check_s"] += time.perf_counter() - t0

        def counted_result(data, parents, grad_fn, op):
            counts["ops"] += 1
            counts["out_bytes"] += data.nbytes
            return result(data, parents, grad_fn, op)

        def counted_tensordot(*args, **kwargs):
            counts["tensordot"] += 1
            return tensordot(*args, **kwargs)

        for owner, attr, wrapper in (
            (ad, "_check_finite", counted_check),
            (ad, "_result", counted_result),
            (np, "tensordot", counted_tensordot),
        ):
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------
    def span_times(self) -> tuple:
        """(total seconds, self seconds) per span name and per (name, layer)."""
        total, own = defaultdict(float), defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, layer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, layer) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            if layer is not None:
                total[(name, layer)] += end - start
        return total, own

    def metrics(self, ops: int) -> dict:
        """Per-operation per-layer metrics from everything recorded."""
        total, own = self.span_times()
        out = {}
        for metric, (span, kind) in TIMED.items():
            seconds = (own if kind == "self" else total)[span]
            out[metric] = (1e3 * seconds / ops, "ms")
        content = sum(
            end - start
            for name, start, end, parent, layer in self.spans
            if name == "extractor.extract" and layer == "const-input"
            and (parent < 0 or self.spans[parent][0] != "trainer.precompute_targets")
        )
        out["transfer.content_extract_ms"] = (1e3 * content / ops, "ms")
        out["autodiff.finite_check_ms"] = (1e3 * self.counts["finite_check_s"] / ops, "ms")
        out["autodiff.ops"] = (self.counts["ops"] / ops, "count")
        out["numpy.tensordot.calls"] = (self.counts["tensordot"] / ops, "count")
        out["autodiff.out_mb"] = (self.counts["out_bytes"] / 1e6 / ops, "MB")
        for layer in LAYERS:
            fwd = total[("autodiff.conv2d.fwd", layer)] + total[("autodiff.full_conv2d.fwd", layer)]
            bwd = total[("autodiff.conv2d.bwd", layer)] + total[("autodiff.full_conv2d.bwd", layer)]
            out[f"layer.{layer}.fwd_ms"] = (1e3 * fwd / ops, "ms")
            out[f"layer.{layer}.bwd_ms"] = (1e3 * bwd / ops, "ms")
        return out
