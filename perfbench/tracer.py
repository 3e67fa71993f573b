"""Layer tracer that wraps the package's public functions from outside.

Several modules import their collaborators by value (``from .classifier
import classify``), so patching only the defining module would miss most
calls.  ``install`` therefore replaces every binding of a traced function in
every loaded ``turnoutguard`` module; the workloads check the call counts it
sees against the counts each run implies.

Spans are aggregated as they close: per name, the call count, the total time
and the self time (total minus the time covered by traced child spans).  A
few hooks count work at the same boundaries: DTW cells, window rows the
previous forecast already projected, curves classified before.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

PACKAGE = "turnoutguard"

# (module, attribute); a dotted attribute names a method of a class
TARGETS = (
    ("curvegen", "generate_lifecycle"),
    ("curvegen", "inject_attack"),
    ("dataio", "make_dataset"),
    ("dataio", "read_corpus"),
    ("forecaster", "train"),
    ("forecaster", "forward"),
    ("forecaster", "forward_samples"),
    ("forecaster", "load_model"),
    ("comparator", "dtw"),
    ("comparator", "euclidean"),
    ("comparator", "validate"),
    ("comparator", "calibrate"),
    ("classifier", "classify"),
    ("classifier", "extract_features"),
    ("classifier", "build_reference"),
    ("investigator", "window_shows_progression"),
    ("investigator", "investigate"),
    ("pipeline", "Pipeline.bootstrap"),
    ("pipeline", "Pipeline.step"),
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _length(x) -> int:
    return x.samples.size if hasattr(x, "samples") else np.asarray(x).size


def dtw_cells(n: int, m: int, band: int | None) -> int:
    """Cells the warping recurrence fills: n*m, or the banded corridor."""
    if n < m:
        n, m = m, n
    if band is None:
        return n * m
    r = max(int(band), n - m)
    i = np.arange(1, n + 1)
    return int(np.clip(np.minimum(m, i + r) - np.maximum(1, i - r) + 1, 0, None).sum())


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.dtw_cells = 0
        self.window_pushes = 0
        self.forward_rows = 0
        self.forward_repeat_rows = 0
        self.classify_repeats = 0
        self.train_epochs = 0
        self.calibrate_pairs = 0
        self.reference_curves = 0
        self._stack: list[float] = []      # child time of each open span
        self._patches: list[tuple] = []    # (owner, attribute, original)
        # curves are held, not only their ids, so no id is reused
        self._prev_window: list = []
        self._classified: dict[int, object] = {}

    # -- hooks: count work at the boundary, after the call -----------------

    def _on_dtw(self, args, kwargs, result):
        self.dtw_cells += dtw_cells(_length(args[0]), _length(args[1]), kwargs.get("band"))

    def _on_forward(self, args, kwargs, result):
        curves = args[1].curves
        seen = {id(c) for c in self._prev_window}
        self.forward_rows += len(curves)
        self.forward_repeat_rows += sum(id(c) in seen for c in curves)
        self._prev_window = curves

    def _on_classify(self, args, kwargs, result):
        curve = args[0]
        if id(curve) in self._classified:
            self.classify_repeats += 1
        else:
            self._classified[id(curve)] = curve

    def _on_train(self, args, kwargs, result):
        self.train_epochs += result[1].epochs_run

    def _on_calibrate(self, args, kwargs, result):
        self.calibrate_pairs += len(args[1])

    def _on_build_reference(self, args, kwargs, result):
        self.reference_curves += result.n_reference

    def _hooks(self):
        return {
            "comparator.dtw": self._on_dtw,
            "forecaster.forward": self._on_forward,
            "classifier.classify": self._on_classify,
            "forecaster.train": self._on_train,
            "comparator.calibrate": self._on_calibrate,
            "classifier.build_reference": self._on_build_reference,
        }

    # -- patching -----------------------------------------------------------

    def _span(self, name, fn, hook):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _push_counter(self, fn):
        def push(window, curve):
            self.window_pushes += 1
            return fn(window, curve)

        return push

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every binding; curve identities from earlier runs are forgotten."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._prev_window = []
        self._classified = {}
        hooks = self._hooks()
        modules = _package_modules()
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._span(name, getattr(cls, method), hooks.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._span(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        window_cls = importlib.import_module(f"{PACKAGE}.dataio").CurveWindow
        self._set(window_cls, "push", self._push_counter(window_cls.push))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def mean(self, name: str, unit: float) -> float:
        s = self.stat(name)
        return s.total / s.calls * unit if s.calls else 0.0


def _package_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
