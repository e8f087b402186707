"""Spans around windquad's layer functions, installed from outside `src/`.

`from .x import y` binds `y` in the importing module at import time, so a
function is wrapped where its caller looks it up, not where it is defined.
One layer name can have several lookup sites (`adaptive.nn_output` is
called from the controller and from the synthetic plant).

A span is (name index, start ns, end ns, parent span index or -1).  Spans
are kept in memory and written out when the command ends.
"""

import importlib
import time

#: (layer name, module holding the lookup site, attribute path)
SITES = (
    ("aero.resultant_wrench", "windquad.sim", "resultant_wrench"),
    ("aero.solve_thrust_inflow", "windquad.aero", "solve_thrust_inflow"),
    ("dynamics.step_rk4", "windquad.sim", "step_rk4"),
    ("dynamics.simplified_wrench", "windquad.sim", "simplified_wrench"),
    ("se3.expm_so3", "windquad.dynamics", "expm_so3"),
    ("se3.orthonormalize", "windquad.dynamics", "orthonormalize"),
    ("controller.step", "windquad.controller", "GeometricAdaptiveController.step"),
    ("controller.compute_Rc", "windquad.controller", "compute_Rc"),
    ("controller.compute_Omega_c", "windquad.controller", "compute_Omega_c"),
    ("controller.compute_moment", "windquad.controller", "compute_moment"),
    ("se3.attitude_error", "windquad.controller", "attitude_error"),
    ("adaptive.nn_output", "windquad.controller", "nn_output"),
    ("adaptive.nn_output", "windquad.sim", "nn_output"),
    ("adaptive.update_weights", "windquad.controller", "update_weights"),
    ("scenarios.trajectory_at", "windquad.sim", "trajectory_at"),
    ("scenarios.wind_at", "windquad.sim", "wind_at"),
    ("stability.lyapunov_value", "windquad.sim", "lyapunov_value"),
    ("sim.run_simulation", "windquad.cli", "run_simulation"),
    ("sim.summarize", "windquad.sim", "summarize"),
    ("sim.write_csv", "windquad.cli", "write_csv"),
    ("config.load_config", "windquad.cli", "load_config"),
    ("stability.build_pd_matrices", "windquad.cli", "build_pd_matrices"),
    ("config.calibrate_simplified", "windquad.config", "calibrate_simplified"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in SITES))


def _owner(module, path):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    """Wraps every site in SITES; `restore()` puts the originals back."""

    def __init__(self):
        self.spans = []
        self.csv_rows = 0
        self._stack = []
        self._saved = []

    def _wrap(self, index, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_rows = name == "sim.write_csv"

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            if counts_rows:
                self.csv_rows += len(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, module, path in SITES:
            owner, attr = _owner(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(LAYERS.index(name), name, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for _, module, path in SITES:
            owner, attr = _owner(module, path)
            if hasattr(getattr(owner, attr), "__wrapped__"):
                raise RuntimeError(f"{module}.{path} was not restored")


def layer_stats(spans):
    """Per-layer call durations [us] and total self time [us] of one command.

    Self time is a span's duration minus the durations of its traced
    children.  Returns {layer: (durations_us list, self_us_total)}.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations = {name: [] for name in LAYERS}
    self_ns = dict.fromkeys(LAYERS, 0)
    for (index, start, end, _), children in zip(spans, child_ns):
        name = LAYERS[index]
        durations[name].append((end - start) / 1e3)
        self_ns[name] += end - start - children
    return {name: (durations[name], self_ns[name] / 1e3) for name in LAYERS}
