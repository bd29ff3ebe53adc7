"""Spans and counts around the public functions of each spinaxes layer.

``Tracer.install`` replaces each listed function under every name the
package binds it to (``spinaxes.axes.polynomial_roots``, ``spinaxes.cli.
rho_to_t``, ...), so calls the program makes internally, such as
``extract_mar`` calling ``polynomial_roots``, nest as spans.  Spans stay in
memory; self times and counts are computed from them when a run ends.
A listed function that the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Functions timed as spans, by layer (module of src/spinaxes/).
SPANNED = {
    "angular": ("wigner_d_matrix",),
    "tensors": ("rho_to_t", "t_to_rho", "rotate_t"),
    "axes": (
        "extract_mar",
        "mar_polynomial",
        "polynomial_roots",
        "roots_to_axes",
        "axes_to_tensor",
        "fit_radius",
        "collinearity_check",
    ),
    "pfunc": ("t_from_distribution", "rho_from_distribution", "ylm_squared_t"),
    "symmetric": ("ensemble_to_rho",),
    "fileio": ("load_state", "load_tensor", "load_ensemble", "load_expansion", "dump_state", "dump_tensor"),
    "cli": ("main",),
}
# Functions called too often for spans; only their calls are counted.
COUNTED = {"angular": ("cg_value", "spherical_harmonic")}

# Per-layer metric -> the spans whose self times it sums.
TIME_METRICS = {
    "axes.extract_mar_ms": ("axes.extract_mar",),
    "axes.mar_polynomial_ms": ("axes.mar_polynomial",),
    "axes.polynomial_roots_ms": ("axes.polynomial_roots",),
    "axes.roots_to_axes_ms": ("axes.roots_to_axes",),
    "axes.axes_to_tensor_ms": ("axes.axes_to_tensor",),
    "axes.fit_radius_ms": ("axes.fit_radius",),
    "axes.collinearity_check_ms": ("axes.collinearity_check",),
    "tensors.rho_to_t_ms": ("tensors.rho_to_t",),
    "tensors.t_to_rho_ms": ("tensors.t_to_rho",),
    "tensors.rotate_t_ms": ("tensors.rotate_t",),
    "angular.wigner_d_matrix_ms": ("angular.wigner_d_matrix",),
    "pfunc.t_from_distribution_ms": ("pfunc.t_from_distribution",),
    "pfunc.rho_from_distribution_ms": ("pfunc.rho_from_distribution",),
    "pfunc.ylm_squared_t_ms": ("pfunc.ylm_squared_t",),
    "symmetric.ensemble_to_rho_ms": ("symmetric.ensemble_to_rho",),
    "cli.main_ms": ("cli.main",),
    "fileio.load_ms": ("fileio.load_state", "fileio.load_tensor", "fileio.load_ensemble", "fileio.load_expansion"),
    "fileio.dump_ms": ("fileio.dump_state", "fileio.dump_tensor"),
}
COUNT_METRICS = {
    "angular.cg_value_calls": "angular.cg_value",
    "angular.spherical_harmonic_calls": "angular.spherical_harmonic",
    "axes.ranks_decomposed": "axes.ranks_decomposed",
    "axes.multiple_roots": "axes.multiple_roots",
}
COLD = "tensors.rho_to_t_cold"


class Tracer:
    """Installs span and count wrappers; ``paused`` lets checks call the program untraced."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._seen_spins: set = set()

    def install(self) -> None:
        self.absent = []
        for layers, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for layer, names in layers.items():
                try:
                    module = importlib.import_module(f"spinaxes.{layer}")
                except ImportError:
                    module = None
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        self.absent.append(f"{layer}.{name}")
                        continue
                    self._patch(original, make(f"{layer}.{name}", original))

    def _patch(self, original, wrapper) -> None:
        owners = [m for n, m in list(sys.modules.items()) if m is not None and n.split(".")[0] == "spinaxes"]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            label = self._label(name, args)
            index = len(self.spans)
            self.spans.append([label, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = perf_counter()
            self._observe(name, result)
            return result

        return wrapper

    def _label(self, name: str, args) -> str:
        """The first rho_to_t of each spin in a process builds its operators cold."""
        if name == "tensors.rho_to_t" and args:
            spin = str(getattr(args[0], "j", None))
            if spin not in self._seen_spins:
                self._seen_spins.add(spin)
                return COLD
        return name

    def _observe(self, name: str, result) -> None:
        if name == "axes.polynomial_roots":
            try:
                roots, at_infinity = result
                self.counts["axes.multiple_roots"] += sum(1 for _, mult in roots if mult > 1) + (at_infinity > 1)
            except (TypeError, ValueError):
                pass
        elif name == "axes.extract_mar":
            ranks = getattr(result, "ranks", ())
            self.counts["axes.ranks_decomposed"] += sum(1 for r in ranks if getattr(r, "axes", ()))

    def self_seconds(self) -> dict:
        """Span name -> total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return dict(totals)

    def dump(self, path: str, import_s: float) -> None:
        """Write this process's totals for a parent benchmark to absorb."""
        with open(path, "w") as fh:
            json.dump({"self_s": self.self_seconds(), "counts": dict(self.counts), "import_s": import_s, "absent": self.absent}, fh)


class ChildTotals:
    """Totals absorbed from traced CLI child processes."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.import_s = 0.0
        self.absent: set = set()

    def absorb(self, path: str) -> None:
        with open(path) as fh:
            data = json.load(fh)
        self.self_s.update(data["self_s"])
        self.counts.update(data["counts"])
        self.import_s += data["import_s"]
        self.absent.update(data["absent"])


def per_layer(self_s: dict, counts, rounds: int, cold_s: float, import_s: float) -> dict:
    """Per-layer metrics per round of the workload's batch, times in ms."""
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = (1e3 * sum(self_s.get(n, 0.0) for n in names) / rounds, "ms")
    for metric, name in COUNT_METRICS.items():
        out[metric] = (counts.get(name, 0) / rounds, "count")
    out["tensors.rho_to_t_cold_ms"] = (1e3 * cold_s, "ms")
    out["cli.import_ms"] = (1e3 * import_s / rounds, "ms")
    return out
