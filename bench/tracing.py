"""Timing shims for the traced run, installed from outside the library.

Each traced function is replaced by a shim on every ``sphtor`` module
attribute (or class attribute) that binds it, so calls made inside the
package are counted as well as the benchmark's own.  A shim counts calls and
self time: its wall time minus the wall time of the traced calls it made.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

# metric prefix -> (module, attribute path)
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("hammocks.hom_dim", "sphtor.hammocks", "hom_dim"),
    ("hammocks.ext_dim", "sphtor.hammocks", "ext_dim"),
    ("extensions.ptolemy_arcs", "sphtor.extensions", "ptolemy_arcs"),
    ("extensions.e_set", "sphtor.extensions", "e_set"),
    ("extensions.middle_terms", "sphtor.extensions", "middle_terms"),
    ("closure.ptolemy_closure", "sphtor.closure", "ptolemy_closure"),
    ("closure.extension_closure_oracle", "sphtor.closure", "extension_closure_oracle"),
    ("closure.symbolic_closure", "sphtor.closure", "symbolic_closure"),
    ("closure.is_torsion_class", "sphtor.closure", "is_torsion_class"),
    ("orbit.OrbitCategory.init", "sphtor.orbit", "OrbitCategory.__init__"),
    ("orbit.OrbitCategory.torsion_classes", "sphtor.orbit", "OrbitCategory.torsion_classes"),
    ("orbit.OrbitCategory.e_set", "sphtor.orbit", "OrbitCategory.e_set"),
    ("orbit.OrbitCategory.closure", "sphtor.orbit", "OrbitCategory.closure"),
    ("cli.build_parser", "sphtor.cli", "build_parser"),
    ("cli.run", "sphtor.cli", "run"),
)

# counters beyond calls and self time: name -> unit
EXTRA_COUNTERS = {
    "extensions.ptolemy_arcs.productive_ratio": "ratio",
    "extensions.e_set.productive_ratio": "ratio",
    "closure.ptolemy_closure.input_arcs": "count",
    "closure.ptolemy_closure.output_arcs": "count",
    "closure.symbolic_closure.window_runs": "count",
}


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for prefix, _, _ in TRACED:
        out.append((f"{prefix}.calls", "count"))
        out.append((f"{prefix}.self_s", "s"))
    out.extend(EXTRA_COUNTERS.items())
    out.append(("trace.overhead", "%"))
    return out


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = {prefix: 0 for prefix, _, _ in TRACED}
        self.self_s: Dict[str, float] = {prefix: 0.0 for prefix, _, _ in TRACED}
        self.productive = {"extensions.ptolemy_arcs": 0, "extensions.e_set": 0}
        self.input_arcs = 0
        self.output_arcs = 0
        self.window_runs = 0
        self._symbolic_depth = 0
        self._children: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- shims ------------------------------------------------------------------

    def _shim(self, prefix: str, fn: Callable) -> Callable:
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = time.perf_counter

        def shim(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[prefix] += elapsed - children.pop()
                calls[prefix] += 1
                if children:
                    children[-1] += elapsed

        return shim

    def _decorate(self, prefix: str, shim: Callable) -> Callable:
        """Wrap the bare shim with the counters a few layers carry."""
        if prefix in self.productive:

            def productive(a, b):
                result = shim(a, b)
                if result.all if prefix == "extensions.ptolemy_arcs" else result:
                    self.productive[prefix] += 1
                return result

            return productive
        if prefix == "closure.ptolemy_closure":

            def closure(w, arcs_in):
                arcs_in = tuple(arcs_in)
                self.input_arcs += len(arcs_in)
                if self._symbolic_depth:
                    self.window_runs += 1
                result = shim(w, arcs_in)
                self.output_arcs += len(result)
                return result

            return closure
        if prefix == "closure.symbolic_closure":

            def symbolic(*args, **kwargs):
                self._symbolic_depth += 1
                try:
                    return shim(*args, **kwargs)
                finally:
                    self._symbolic_depth -= 1

            return symbolic
        return shim

    def install(self) -> None:
        owners = [importlib.import_module(module_name) for _, module_name, _ in TRACED]
        packages = [m for name, m in sys.modules.items() if name == "sphtor" or name.startswith("sphtor.")]
        for (prefix, _, path), owner in zip(TRACED, owners):
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._decorate(prefix, self._shim(prefix, original))
            if outer:  # a method: one binding, on its class
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in packages:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- report -----------------------------------------------------------------

    def metrics(self, overhead_pct: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for prefix, _, _ in TRACED:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.self_s"] = self.self_s[prefix]
        for prefix, hits in self.productive.items():
            calls = self.calls[prefix]
            out[f"{prefix}.productive_ratio"] = hits / calls if calls else 0.0
        out["closure.ptolemy_closure.input_arcs"] = self.input_arcs
        out["closure.ptolemy_closure.output_arcs"] = self.output_arcs
        out["closure.symbolic_closure.window_runs"] = self.window_runs
        out["trace.overhead"] = overhead_pct
        return out

