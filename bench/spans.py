"""Span recording around the library's public functions, from outside.

For a traced pass the benchmark replaces each function in ``WRAPPED`` with
a timing wrapper on every ``infomarkets`` module attribute that is bound to
it, so both the package namespace and the modules that imported the
function by name (``infomarkets.fpm.apply_report``) resolve to the wrapper.
A wrapped name that no longer exists is recorded as absent instead of
failing, so later refactors keep the trace usable.

Spans live in flat arrays (name, parent span, op instance, start, end,
exit code) and are only written out when the run ends.  Self time is a
span's duration minus the durations of its direct children; calls nest
strictly in one thread, so the children never overlap.
"""
import importlib
import sys
import time
from array import array

import numpy as np

#: layer module -> public functions wrapped in a traced pass
WRAPPED = {
    "montecarlo": ("simulate", "per_trial_records", "deviation_test"),
    "fpm": ("fpm_run", "fpm_expected_reward"),
    "mvp": ("mvp_run", "time_value_mass"),
    "belief": ("apply_report",),
    "scoring": ("score", "expected_score"),
    "info_model": ("v_sequence",),
    "equilibrium": ("mvp_equilibrium", "mvp_br_derivative", "mvp_welfare",
                    "mvp_agent_reward", "mvp_principal_utility",
                    "batch_equilibrium", "batch_welfare"),
    "numerics": ("solve_decreasing_foc", "integrate_decaying"),
    "pm_baseline": ("pm_race_equilibrium", "pm_batch_equilibrium",
                    "pm_batch_welfare"),
    "experiments": ("run_experiment",),
    "cli": ("main",),
}

#: span exit codes
OK, NUMERICAL_ERROR, OTHER_ERROR, UNCERTIFIED = 0, 1, 2, 3

_SOLVE = "numerics.solve_decreasing_foc"


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.code = array("b")
        self.start = array("d")
        self.end = array("d")
        self.op_instance = -1
        self._stack = [-1]
        self._wrappers = []     # (function, wrapper)
        self._installed = []    # (module, attribute, original)
        self._numerical_error = None
        self._foc_tol = None

    def prepare(self) -> None:
        """Import every layer and build one wrapper per function that exists."""
        for module_name, functions in WRAPPED.items():
            try:
                module = importlib.import_module(f"infomarkets.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{f}" for f in functions)
                continue
            for fname in functions:
                fn = getattr(module, fname, None)
                qualified = f"{module_name}.{fname}"
                if not callable(fn):
                    self.absent.append(qualified)
                    continue
                self._wrappers.append((fn, self._wrap(fn, qualified)))
        errors = sys.modules.get("infomarkets.errors")
        self._numerical_error = getattr(errors, "NumericalError", ())
        numerics = sys.modules.get("infomarkets.numerics")
        self._foc_tol = getattr(numerics, "FOC_TOL", None)

    def install(self) -> None:
        by_id = {id(fn): wrapper for fn, wrapper in self._wrappers}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "infomarkets"
                                      or mod_name.startswith("infomarkets.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, qualified: str):
        name_id = len(self.names)
        self.names.append(qualified)
        names, parents, ops, codes = self.name, self.parent, self.op, self.code
        starts, ends, stack = self.start, self.end, self._stack
        perf_counter = time.perf_counter
        certify = self._certify if qualified == _SOLVE else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_instance)
            codes.append(OK)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                codes[idx] = (NUMERICAL_ERROR if isinstance(exc, self._numerical_error)
                              else OTHER_ERROR)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if certify is not None and not certify(result):
                codes[idx] = UNCERTIFIED
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualified)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _certify(self, result) -> bool:
        """The solver's own certificate: a root within FOC_TOL, or a signed corner."""
        residual = getattr(result, "residual", None)
        if residual is None or self._foc_tol is None or not np.isfinite(residual):
            return False
        if not getattr(result, "corner", False):
            return abs(residual) <= self._foc_tol
        return residual <= 0.0 if result.effort == 0.0 else residual >= 0.0

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "code": np.frombuffer(self.code, dtype=np.int8),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), absent=np.array(self.absent, dtype=str),
                 **self.arrays())


def per_instance_totals(tracer: Tracer, num_instances: int) -> dict[str, np.ndarray]:
    """Per op instance and span name: calls, seconds, self seconds, codes.

    Each returned array has shape ``(num_instances, len(tracer.names))``.
    ``under_mvp_run`` counts spans whose direct parent is ``mvp.mvp_run``.
    """
    a = tracer.arrays()
    k = len(tracer.names)
    size = num_instances * k
    n_spans = a["name"].size
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=n_spans)
    self_s = dur - child
    keep = a["op"] >= 0
    key = a["op"][keep].astype(np.int64) * k + a["name"][keep]

    def total(weights=None, mask=None):
        kk, ww = key, weights
        if mask is not None:
            kk = key[mask[keep]]
            ww = None if weights is None else weights[mask[keep]]
        return np.bincount(kk, weights=ww, minlength=size).reshape(num_instances, k)

    parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
    mvp_run = tracer.names.index("mvp.mvp_run") if "mvp.mvp_run" in tracer.names else -2
    return {
        "calls": total(),
        "s": total(dur[keep]),
        "self_s": total(self_s[keep]),
        "numerical_errors": total(mask=a["code"] == NUMERICAL_ERROR),
        "certified": total(mask=a["code"] == OK),
        "under_mvp_run": total(mask=parent_name == mvp_run),
    }
