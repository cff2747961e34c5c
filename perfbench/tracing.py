"""Span tracing of the axisphere package from outside it.

A ``Tracer`` wraps the public functions of each layer: it replaces the
function in every ``axisphere`` namespace that holds it, because
``axisphere.cli`` binds ``from .energy import ...`` names at import while the
modules call each other through their own globals.  Each call records a span
(layer, start, end, parent span, item id) in memory; counts taken from the
arguments and results (solver iterations, grid cells) are summed per layer.
No file of the package changes.

Per layer the tracer reports ``calls``; ``busy_s``, the time inside the
layer's outermost spans; ``self_s``, span time minus the time of traced
child spans, for layers that call other traced layers; and its counts.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

Count = Callable[[tuple, dict, Any, "BaseException | None"], dict[str, int]]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _solver(args, kwargs, result, error) -> dict[str, int]:
    if error is not None:
        return {"iterations": 0, "failed": 1}
    return {"iterations": int(result.iterations), "failed": int(not result.converged)}


def _raised(args, kwargs, result, error) -> dict[str, int]:
    return {"failed": int(error is not None)}


def _meridian_cells(args, kwargs, result, error) -> dict[str, int]:
    r, z = _arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "z")
    return {"cells": (len(r) - 1) * (len(z) - 1)}


def _profile_nodes(args, kwargs, result, error) -> dict[str, int]:
    return {"nodes": len(_arg(args, kwargs, 0, "profile").grid)}


def _field_cells(args, kwargs, result, error) -> dict[str, int]:
    nr, nz = _arg(args, kwargs, 0, "field").phi.shape
    return {"cells": (nr - 1) * (nz - 1)}


@dataclass(frozen=True)
class Layer:
    """A traced layer: the functions (``Class.method`` for construction)
    of one module whose calls it times, and the counts it keeps."""

    name: str
    module: str
    targets: tuple[str, ...]
    counts: tuple[str, ...] = ()
    count: Count | None = None
    self_time: bool = False


RUNNERS = ("run_proposition_sweep", "run_dipole_tradeoff", "run_t0_energy",
           "run_relaxation_check", "run_sigma")

LAYERS: tuple[Layer, ...] = (
    Layer("variational.minimize_I_numerical", "axisphere.variational",
          ("minimize_I_numerical",), ("iterations", "failed"), _solver, self_time=True),
    Layer("variational.isotonic_regression", "axisphere.variational", ("isotonic_regression",)),
    Layer("variational.gap_lower_bound", "axisphere.variational", ("gap_lower_bound",),
          self_time=True),
    Layer("variational.closed_form", "axisphere.variational", ("g0_construct", "I_functional")),
    Layer("energy.minimize_meridian_energy", "axisphere.energy", ("minimize_meridian_energy",),
          ("iterations", "failed"), _solver, self_time=True),
    Layer("energy.meridian_kernel", "axisphere.energy",
          ("meridian_cell_energy", "meridian_cell_energy_grad"), ("cells",), _meridian_cells),
    Layer("energy.radial", "axisphere.energy",
          ("dirichlet_energy_radial", "area_radial", "conformality_gap"), ("nodes",),
          _profile_nodes),
    Layer("energy.energy_3d", "axisphere.energy", ("energy_3d",), ("cells",), _field_cells),
    Layer("geometry.degree_from_flux", "axisphere.geometry", ("degree_from_flux",)),
    Layer("geometry.profiles", "axisphere.geometry",
          ("u0_profile", "u_eps_profile", "geometric_grid")),
    Layer("connection.kantorovich_dual", "axisphere.connection", ("kantorovich_dual",),
          ("failed",), _raised),
    Layer("connection.min_connection_assignment", "axisphere.connection",
          ("min_connection_assignment",)),
    Layer("connection.min_connection_bruteforce", "axisphere.connection",
          ("min_connection_bruteforce",)),
    Layer("connection.SingularityConfig", "axisphere.connection", ("SingularityConfig.__init__",)),
    *(Layer(f"cli.{runner}", "axisphere.cli", (runner,), self_time=True) for runner in RUNNERS),
)


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "axisphere" or name.startswith("axisphere."))]


class Tracer:
    """Records spans of the layers' calls while installed."""

    def __init__(self) -> None:
        self.item = -1  # id of the benchmark item being run, stamped on each span
        self.missing: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._layer = array("i")
        self._parent = array("i")
        self._item = array("i")
        self._nested = array("b")  # inside another span of the same layer
        self._stack = [-1]
        self._depth = [0] * len(LAYERS)
        self._totals = [dict.fromkeys(layer.counts, 0) for layer in LAYERS]
        self._patches: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        for index, layer in enumerate(LAYERS):
            module = sys.modules.get(layer.module)
            for target in layer.targets:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    if f"{layer.module}.{target}" not in self.missing:
                        self.missing.append(f"{layer.module}.{target}")
                    continue
                wrapper = self._wrap(index, original, layer.count)
                if owner_name:  # a class attribute: every namespace shares the class
                    self._patch(owner, attr, wrapper)
                    continue
                for namespace in _package_modules():
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, index: int, fn: Callable, count: Count | None) -> Callable:
        starts, ends, layer_ids = self._start, self._end, self._layer
        parents, items, nested = self._parent, self._item, self._nested
        stack, depth, totals = self._stack, self._depth, self._totals[index]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            layer_ids.append(index)
            parents.append(stack[-1])
            items.append(self.item)
            nested.append(depth[index] > 0)
            ends.append(0.0)
            depth[index] += 1
            stack.append(span)
            result = error = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[span] = clock()
                stack.pop()
                depth[index] -= 1
                if count is not None:
                    for key, value in count(args, kwargs, result, error).items():
                        totals[key] += value

        return traced

    @property
    def spans(self) -> int:
        return len(self._start)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded."""
        start = np.frombuffer(self._start, dtype=float)
        dur = np.frombuffer(self._end, dtype=float) - start
        layer = np.frombuffer(self._layer, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        nested = np.frombuffer(self._nested, dtype=np.int8).astype(bool)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out: dict[str, float] = {}
        for index, lay in enumerate(LAYERS):
            sel = layer == index
            out[f"{lay.name}.calls"] = int(np.count_nonzero(sel))
            out[f"{lay.name}.busy_s"] = float(np.sum(dur[sel & ~nested]))
            if lay.self_time:
                out[f"{lay.name}.self_s"] = float(np.sum(dur[sel] - child[sel]))
            for key in lay.counts:
                out[f"{lay.name}.{key}"] = self._totals[index][key]
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times in seconds from tracer creation."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "layer", "start_s", "end_s", "parent", "item"])
            for span in range(len(self._start)):
                writer.writerow([span, LAYERS[self._layer[span]].name,
                                 f"{self._start[span] - self._t0:.7f}",
                                 f"{self._end[span] - self._t0:.7f}",
                                 self._parent[span], self._item[span]])
