"""Config-driven experiment grids emitted as CSV tables.

Each experiment reproduces one of the library's reference parameter sweeps
at desk scale: how the expected score grows with reports, and how
equilibrium effort responds to ease, noise and substitutability of the
information, plus the welfare comparison grid.  Output is one CSV per
experiment (curves as columns, 9-significant-digit floats, LF endings)
together with a small JSON manifest; plotting is left to external tools.

Every row that contains a solved equilibrium also carries its FOC residual
and corner flag, so a table is self-certifying.

``_TABLE`` declares each experiment once: its runner and the default of
every parameter the runner reads.  A config may override those defaults
and name no other key.
"""
import json
import os
import platform
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .equilibrium import (LatencyFamily, mvp_equilibrium,
                          mvp_principal_utility, mvp_welfare)
from .errors import NumericalError, read_config
from .info_model import (InformationModel, ScoreSequence, expected_base_score,
                         v_sequence)
from .mvp import TimeValue
from .pm_baseline import AccessFunction, pm_batch_equilibrium, pm_batch_welfare
from .pm_baseline import pm_race_equilibrium
from .scoring import ScoringRule


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(x) for x in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _grid(lo: float, hi: float, step: float) -> list[float]:
    count = round((hi - lo) / step)
    return [lo + k * step for k in range(count + 1)]


@contextmanager
def _at(experiment: str, where: str):
    """A NumericalError or ValueError raised inside names the experiment and
    ``where``: the grid point, or the parameters read before the grid."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{experiment} failed at {where}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{experiment} failed at {where}: {exc}") from exc


def _mvp(lam: float, h: TimeValue, v: ScoreSequence, n: int):
    """The symmetric MVP equilibrium at exponential latency rate ``lam``."""
    return mvp_equilibrium(LatencyFamily.exponential(lam), h, v, n)


def _lam_header(lams) -> list[str]:
    """One effort and one residual column per latency rate."""
    return [f"mvp_{col}_lam_{format_number(lam)}"
            for lam in lams for col in ("effort", "residual")]


def run_fig_late(params: dict):
    with _at("fig_late", f"alpha={params['alpha']}, beta={params['beta']}, "
                         f"k_max={params['k_max']}, scale={params['scale']}"):
        k_max = int(params["k_max"])
        rule = ScoringRule("quadratic", params["scale"])
        model = InformationModel.binary_noisy(params["alpha"], params["beta"])
        v = v_sequence(model, rule, k_max)
        base = expected_base_score(model, rule)
    rows = [(k, base + v[k], 0.0 if k == 0 else v[k] - v[k - 1])
            for k in range(k_max + 1)]
    return ["k", "expected_score", "marginal_reward"], rows


def run_fig_eas(params: dict):
    with _at("fig_eas", f"n={params['n']}, v={params['v']}, eta={params['eta']}"):
        n = int(params["n"])
        v = ScoreSequence(np.asarray(params["v"], float))
        h = TimeValue.exponential(params["eta"])
        pm = pm_race_equilibrium(v, n)
    rows = []
    for lam in params["lambda_grid"]:
        with _at("fig_eas", f"grid point lambda={lam}"):
            eq = _mvp(lam, h, v, n)
            rows.append((lam, pm.effort, eq.effort, eq.residual, int(eq.corner),
                         mvp_welfare(LatencyFamily.exponential(lam), h, v, n,
                                     eq.effort)))
    return ["lambda", "pm_effort", "mvp_effort", "mvp_residual", "mvp_corner",
            "mvp_welfare"], rows


def run_fig_noise(params: dict):
    lams = params["lambdas"]
    with _at("fig_noise", f"n={params['n']}, scale={params['scale']}, "
                          f"eta={params['eta']}"):
        n = int(params["n"])
        rule = ScoringRule("quadratic", params["scale"])
        h = TimeValue.exponential(params["eta"])
    rows = []
    for beta in params["beta_grid"]:
        with _at("fig_noise", f"grid point alpha={params['alpha']}, beta={beta}"):
            v = v_sequence(InformationModel.binary_noisy(params["alpha"], beta), rule, n)
            pm = pm_race_equilibrium(v, n)  # refuses n < 2 before v[2] is read
            row = [beta, v[1], v[2], pm.effort]
        for lam in lams:
            with _at("fig_noise", f"grid point beta={beta}, lambda={lam}"):
                eq = _mvp(lam, h, v, n)
            row += [eq.effort, eq.residual]
        rows.append(tuple(row))
    return ["beta", "v1", "v2", "pm_effort"] + _lam_header(lams), rows


def run_fig_subst(params: dict):
    lams = params["lambdas"]
    with _at("fig_subst", f"n={params['n']}, eta={params['eta']}"):
        n = int(params["n"])
        h = TimeValue.exponential(params["eta"])
    rows = []
    for v1 in params["v1_grid"]:
        with _at("fig_subst", f"grid point v1={v1}, v2={params['v2']}"):
            v = ScoreSequence(np.array([0.0, v1, max(v1, params["v2"])]))
            row = [v1, pm_race_equilibrium(v, n).effort]
        for lam in lams:
            with _at("fig_subst", f"grid point v1={v1}, lambda={lam}"):
                eq = _mvp(lam, h, v, n)
            row += [eq.effort, eq.residual]
        rows.append(tuple(row))
    return ["v1", "pm_effort"] + _lam_header(lams), rows


def run_fig_original(params: dict):
    lam = params["lambda"]
    header = ["n"]
    for kind in ("linear", "exponential"):
        header += [f"{kind}_opt_effort", f"{kind}_opt_welfare", f"{kind}_opt_cost",
                   f"{kind}_self_effort", f"{kind}_self_welfare", f"{kind}_self_cost",
                   f"{kind}_self_residual", f"{kind}_self_corner"]
    rows = []
    for n in params["n_grid"]:
        row = [n]
        for kind in ("linear", "exponential"):
            with _at("fig_original", f"grid point kind={kind}, n={n}, lambda={lam}"):
                F = AccessFunction(kind, lam)
                eq = pm_batch_equilibrium(F, n)  # refuses n < 2 before n - 1 divides
                if kind == "linear":
                    c_opt = 1.0 / lam - lam ** (-n / (n - 1))
                else:
                    c_opt = np.log(lam) / (n * lam)
                row += [c_opt, pm_batch_welfare(F, n, c_opt), n * c_opt,
                        eq.effort, pm_batch_welfare(F, n, eq.effort), n * eq.effort,
                        eq.residual, int(eq.corner)]
        rows.append(tuple(row))
    return header, rows


def run_fig_welfare_heatmap(params: dict):
    with _at("fig_welfare_heatmap", f"eta={params['eta']}"):
        h = TimeValue.exponential(params["eta"])
    rows = []
    for n in params["n_grid"]:
        with _at("fig_welfare_heatmap", f"grid point n={n}"):
            v = ScoreSequence(np.array([0.0] + [1.0] * n))
            pm = pm_race_equilibrium(v, n)  # the race does not depend on the rate
        for lam in params["lambda_grid"]:
            with _at("fig_welfare_heatmap", f"grid point n={n}, lambda={lam}"):
                latency = LatencyFamily.exponential(lam)
                eq = _mvp(lam, h, v, n)
                rows.append((n, lam, pm.effort,
                             mvp_welfare(latency, h, v, n, pm.effort),
                             eq.effort, mvp_welfare(latency, h, v, n, eq.effort),
                             mvp_principal_utility(latency, h, v, n, eq.effort),
                             eq.residual, int(eq.corner)))
    return ["n", "lambda", "pm_effort", "pm_welfare", "mvp_effort",
            "mvp_welfare", "mvp_principal_utility", "mvp_residual",
            "mvp_corner"], rows


#: experiment name -> (runner, default parameters)
_TABLE = {
    "fig_original": (run_fig_original, {"lambda": 3.0, "n_grid": list(range(2, 51))}),
    "fig_late": (run_fig_late, {"alpha": 0.02, "beta": 0.2, "k_max": 10, "scale": 1.0}),
    "fig_eas": (run_fig_eas, {
        "lambda_grid": _grid(0.5, 2.0, 0.05) + _grid(2.1, 3.0, 0.1) + _grid(3.5, 15.0, 0.5),
        "eta": 1.0, "n": 2, "v": [0.0, 2.0, 3.0]}),
    "fig_noise": (run_fig_noise, {
        "alpha": 0.1, "scale": 20.0, "eta": 1.0, "n": 2,
        "beta_grid": _grid(0.0, 0.095, 0.005) + _grid(0.1, 0.38, 0.02),
        "lambdas": [0.5, 1.0, 3.0, 12.0]}),
    "fig_subst": (run_fig_subst, {"v2": 2.0, "v1_grid": _grid(1.0, 2.0, 0.04),
                                  "eta": 1.0, "n": 2, "lambdas": [1.0, 2.0, 4.0, 8.0]}),
    "fig_welfare_heatmap": (run_fig_welfare_heatmap, {
        "n_grid": list(range(2, 12)), "lambda_grid": [0.5 * k for k in range(3, 13)],
        "eta": 1.0}),
}
EXPERIMENTS = tuple(_TABLE)


def _config_type(default) -> str:
    """The config type a parameter must have, read off its default."""
    if isinstance(default, list):
        return "list of " + _config_type(default[0])
    return "integer" if isinstance(default, int) else "number"


def run_experiment(name: str, parameters: dict | None = None,
                   output_path: str = ".") -> list[str]:
    """Evaluate one experiment grid; returns the paths written.

    ``parameters`` overrides the experiment's defaults key by key; it is
    read through :func:`errors.read_config` with one field per default,
    typed by :func:`_config_type`.  A key that is not among them, or a
    value whose type differs from its default's (an integer, a number, or
    a list of either), is a ValueError, raised before any file is written.
    The manifest records the resolved parameters.
    """
    if name not in _TABLE:
        raise ValueError(f"unknown experiment {name!r}, try one of {EXPERIMENTS}")
    runner, defaults = _TABLE[name]
    resolved = read_config(f"{name} parameters", {} if parameters is None else parameters,
                           {key: (_config_type(value), value)
                            for key, value in defaults.items()})
    started = time.perf_counter()
    header, rows = runner(resolved)
    os.makedirs(output_path, exist_ok=True)
    csv_path = os.path.join(output_path, f"{name}.csv")
    write_csv(csv_path, header, rows)
    manifest = {
        "experiment": name,
        "parameters": resolved,
        "files": [os.path.basename(csv_path)],
        "rows": len(rows),
        "versions": {"infomarkets": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__},
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    manifest_path = os.path.join(output_path, f"{name}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, manifest_path]
