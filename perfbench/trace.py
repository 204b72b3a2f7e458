"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces public functions of the ``flowvos`` modules with
timing wrappers while it is installed, and puts every original back when it
is removed.  A function imported by name into another module is bound there
too, so each binding is found by identity and wrapped where it lives.

Each call becomes a span named ``<layer>.<operation>``, where the layer is
the ``flowvos`` module.  Spans nest: a span's self time is its duration
minus the time its child spans cover.  Aggregates stay in memory: per span
name the call count and the list of durations, per layer the self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

# (module, attribute, span name); an attribute "Class.method" wraps a method.
TARGETS = (
    ("flowvos.data_io", "load_sequence", "data_io.load_sequence"),
    ("flowvos.flow_embed", "embed_flow", "flow_embed.embed_flow"),
    ("flowvos.backbone", "extract", "backbone.extract"),
    ("flowvos.backbone", "encode_label", "backbone.encode_label"),
    ("flowvos.fusion", "fuse", "fusion.fuse"),
    ("flowvos.decoder", "fuse_pyramid", "decoder.fuse_pyramid"),
    ("flowvos.decoder", "decode", "decoder.decode"),
    ("flowvos.target_model", "apply", "target_model.apply"),
    ("flowvos.target_model", "residual_and_loss", "target_model.residual"),
    ("flowvos.learner", "optimize", None),          # init_fit or update_fit
    ("flowvos.learner", "conjugate_gradient", "learner.cg"),
    ("flowvos.autodiff", "conv2d", "autodiff.conv2d"),
    ("flowvos.autodiff", "Linearization.jvp", "autodiff.jvp"),
    ("flowvos.autodiff", "Linearization.vjp", "autodiff.vjp"),
    ("flowvos.autodiff", "Tape.backward", "autodiff.backward"),
    ("flowvos.pipeline", "Adam.step", "pipeline.adam_step"),
    ("flowvos.pipeline", "infer_sequence", "pipeline.infer_sequence"),
    ("flowvos.pipeline", "train_offline", "pipeline.train_offline"),
)


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Install with ``with Tracer(...) as tr:``; aggregates stay readable after.

    ``init_iters`` is the outer-iteration budget the program passes to
    ``optimize`` for a fit from annotated frames (frame 0, and the inner fit
    of training); any other budget is an online update fit.
    """

    def __init__(self, init_iters: int):
        self.init_iters = init_iters
        self.durations: dict = defaultdict(list)    # span name -> seconds
        self.self_time: dict = defaultdict(float)   # layer -> seconds
        self.outer_iters = 0
        self.matvecs: list = []                      # seconds, one JVP + one VJP
        self.nonmonotone_fits = 0
        self._stack: list = []
        self._pending_jvp: Optional[float] = None
        self._patches: list = []                     # (owner, attr, original)

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "flowvos"
                                         or name.startswith("flowvos."))]
        for modname, attr, span in TARGETS:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._wrap(original, span))
                continue
            original = getattr(home, attr)
            wrapper = (self._wrap_optimize(original) if span is None
                       else self._wrap(original, span))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn: Callable, args, kwargs):
        frame = _Frame()
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1].child += dt
            self.durations[name].append(dt)
            self.self_time[name.split(".")[0]] += dt - frame.child
            self._on_span(name, dt)

    def _on_span(self, name: str, dt: float) -> None:
        # gauss_newton forms each CG matvec as lin.jvp then lin.vjp; the
        # first vjp of an outer step (the gradient) has no jvp before it
        if name == "autodiff.jvp":
            self._pending_jvp = dt
        elif name == "autodiff.vjp" and self._pending_jvp is not None:
            self.matvecs.append(self._pending_jvp + dt)
            self._pending_jvp = None
        else:
            self._pending_jvp = None

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return wrapper

    def _wrap_optimize(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iters = kwargs.get("outer_iters")
            kind = "init_fit" if iters in (None, self.init_iters) else "update_fit"
            res = self._span(f"learner.{kind}", fn, args, kwargs)
            losses = list(res.losses)
            self.outer_iters += len(losses) - 1
            if any(b > a for a, b in zip(losses, losses[1:])):
                self.nonmonotone_fits += 1
            return res

        return wrapper

    # -- aggregates --------------------------------------------------------

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median_ms(self, name: str) -> float:
        """Median duration of one call in ms; 0.0 when the span never ran."""
        d = self.durations.get(name)
        return float(np.median(d)) * 1e3 if d else 0.0

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def reset(self) -> None:
        """Drop the aggregates, such as those of set-up and warm-up."""
        self.durations.clear()
        self.self_time.clear()
        self.outer_iters = 0
        self.matvecs = []
        self.nonmonotone_fits = 0
        self._pending_jvp = None
