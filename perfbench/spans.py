"""Span recorder that traces ``tempersmc`` from outside the package.

``installed(recorder)`` wraps every public function of each layer module and
rebinds each wrapper wherever a ``tempersmc`` module holds the function, so
calls through ``from .config import build_model`` are traced too.  Three
closures that carry the particle work are wrapped on the objects that hold
them: the potential ``log_g`` and the finite ``sample_batch`` of each model
from ``config.build_model``, and the target density of each family from
``config.build_family`` (counted, not timed).  The mapper from
``cli.make_mapper`` times each task.  Every rebinding is undone on exit.

Spans are kept in memory as (name, start, end, parent index) and only
summarised or written out after the traced call returns.
"""

import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

LAYERS = ("config", "streams", "particles", "tempering", "rwm", "finite", "oracle",
          "stabilitylab", "cli")
TASK = "stabilitylab.task"


class Recorder:
    """Spans and counters of one traced call."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recording a span; ``after(args, result)`` may replace the result."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), math.nan, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            return result if after is None else after(args, result)

        return traced

    def table(self):
        """Per span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")

    # hooks applied to the results of particular public functions

    def _model(self, args, model):
        potentials = replace(model.potentials,
                             log_g=self.wrap("tempering.log_g", model.potentials.log_g))
        kernels = model.kernels
        if model.is_finite:
            kernels = replace(kernels, sample_batch=self.wrap("finite.sample_batch",
                                                              kernels.sample_batch))
        return replace(model, kernels=kernels, potentials=potentials)

    def _family(self, args, fam):
        log_unnorm, counts = fam.target.log_unnorm, self.counts

        def counted(x):
            counts["target_evals"] += math.prod(np.shape(x)[:-1])
            return log_unnorm(x)

        return replace(fam, target=replace(fam.target, log_unnorm=counted))

    def _mapper(self, args, mapper):
        return lambda fn, items: mapper(self.wrap(TASK, fn), items)

    def _smc_step(self, args, ens):
        self.counts["particle_steps"] += args[0].n_particles
        return ens

    def _csv(self, args, result):
        self.counts["csv_bytes"] += os.path.getsize(args[0])
        return result

    def hooks(self):
        return {
            "config.build_model": self._model,
            "config.build_family": self._family,
            "cli.make_mapper": self._mapper,
            "particles.smc_step": self._smc_step,
            "cli.write_csv": self._csv,
        }


def package_modules():
    return [m for name, m in sys.modules.items()
            if name == "tempersmc" or name.startswith("tempersmc.")]


@contextmanager
def installed(recorder):
    """Trace the public functions of every layer while the block runs."""
    hooks = recorder.hooks()
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"tempersmc.{layer}")
        for attr, fn in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, recorder.wrap(name, fn, hooks.get(name)))
    patched = []
    try:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        yield recorder
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
