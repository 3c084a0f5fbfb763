"""In-memory span tracer that wraps the package's entry points from outside.

A span is (name, start, end, parent index). Spans are kept in a list while
the traced rep runs and written out once at the end. The package itself is
not modified: ``Tracer.patched()`` swaps attributes on the package's modules
and classes for timing wrappers and restores the originals on exit, so
untraced reps run the pristine code.

Call sites that a module imported by name must be patched in the importing
module's namespace: ``apply_at_position`` is bound in both ``adalase.augment``
(looked up by ``Network.forward_with_tap`` at call time) and ``adalase.data``
(used by ``pseudo_val_batch``), and the trainer binds ``batch_iter``,
``pseudo_val_batch``, ``one_hot``, ``grad_dot``, ``sample_position`` and
``averaged_update`` in its own namespace.
"""

import contextlib
from collections import defaultdict
from time import perf_counter

LAYER_TYPES = ("Dense", "Conv2d", "ReLU", "MaxPool2x2", "ResidualBlock",
               "GlobalAvgPool", "Reshape")

# augmentation spans the three workloads can reach: (kind, tap positions, has grad_fn)
AUG_SPANS = (("mixup", range(4), True), ("cutout", range(2), True), ("rotation", (0,), False))


def span_names():
    """Every span name the traced run reports, in report order."""
    names = ["config.load", "config.make_splits", "config.make_network"]
    for t in LAYER_TYPES:
        names += [f"engine.layers.{t}.fwd", f"engine.layers.{t}.bwd"]
    for kind, positions, has_grad in AUG_SPANS:
        for p in positions:
            names.append(f"augment.{kind}.P{p}")
            if has_grad:
                names.append(f"augment.{kind}.P{p}.grad")
    names += ["engine.network.forward_with_tap", "engine.network.backward",
              "engine.network.predict", "engine.network.param_plumbing",
              "data.batch_iter", "data.pseudo_val_batch", "data.one_hot",
              "ratios.sample_position", "ratios.update", "ratios.project",
              "trainer.train", "trainer.sgd_step", "trainer.grad_dot",
              "trainer.evaluate", "trainer.probe",
              "reporting.write", "engine.checkpoint.save"]
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _exit(self, idx, name, t0):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self._stack[-1] if self._stack else -1)

    def wrap(self, name, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        def traced(*args, **kwargs):
            idx = self._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, name, t0)
        return traced

    def _wrap_generator(self, name, fn):
        # a span covers each step of the generator, not the consumer's loop body
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter()
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx, name, t0)
                yield item
        return traced

    def _wrap_apply_at_position(self, fn):
        def traced(spec, *args, **kwargs):
            position = kwargs.get("position", args[3] if len(args) > 3 else 0)
            name = f"augment.{spec.kind}.P{position}"
            idx = self._enter()
            t0 = perf_counter()
            try:
                outcome = fn(spec, *args, **kwargs)
            finally:
                self._exit(idx, name, t0)
            if outcome.grad_fn is not None:
                outcome.grad_fn = self.wrap(name + ".grad", outcome.grad_fn)
            return outcome
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers on every internal call site; restore on exit."""
        from adalase import augment, data, ratios, trainer
        from adalase.engine import layers, network

        saved = []

        def patch(owner, attr, wrapper):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper(original))

        for t in LAYER_TYPES:
            cls = getattr(layers, t)
            patch(cls, "forward", lambda f, t=t: self.wrap(f"engine.layers.{t}.fwd", f))
            patch(cls, "backward", lambda f, t=t: self.wrap(f"engine.layers.{t}.bwd", f))
        net_cls = network.Network
        for attr in ("forward_with_tap", "backward", "predict"):
            patch(net_cls, attr, lambda f, a=attr: self.wrap(f"engine.network.{a}", f))
        for attr in ("param_vector", "set_param_vector", "grad_vector"):
            patch(net_cls, attr, lambda f: self.wrap("engine.network.param_plumbing", f))
        for mod in (augment, data):
            patch(mod, "apply_at_position", self._wrap_apply_at_position)
        patch(trainer, "batch_iter", lambda f: self._wrap_generator("data.batch_iter", f))
        for attr, name in (("pseudo_val_batch", "data.pseudo_val_batch"),
                           ("one_hot", "data.one_hot"),
                           ("sample_position", "ratios.sample_position"),
                           ("averaged_update", "ratios.update"),
                           ("grad_dot", "trainer.grad_dot"),
                           ("sgd_momentum_step", "trainer.sgd_step"),
                           ("evaluate", "trainer.evaluate"),
                           ("probe_layer_losses", "trainer.probe")):
            patch(trainer, attr, lambda f, n=name: self.wrap(n, f))
        # private helper: a later change may rename it, so its span is optional
        if "_project_bounded" in ratios.__dict__:
            patch(ratios, "_project_bounded", lambda f: self.wrap("ratios.project", f))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Per span name: (calls, self seconds). Self = duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, t0, t1, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += (t1 - t0) - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")
