"""Parameter sweeps over named output quantities.

A sweep walks one or more parameter paths (zipped when several are
given) and evaluates the requested quantities on columns: each touched
record is built once with every swept field holding its whole column,
and each quantity is evaluated once on those records. Row order
follows the value lists.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import core
from .core import DeviceParams, PumpState
from .deviceio import DeviceBundle
from .errors import ParameterError
from .spectra import (MechanicalMode, lumped_mode, sideband_rate,
                      steady_state_coherent_phonons)
from .swap import QubitConfig, coupling_g_em, qubit_impedance, swap_feasibility


@dataclass(frozen=True)
class SweepSpec:
    """Zipped parameter paths and the quantities to evaluate per row."""

    targets: tuple       # ((path, (v0, v1, ...)), ...)
    quantities: tuple    # quantity names

    def __post_init__(self):
        if not self.targets:
            raise ParameterError("sweep needs at least one parameter path")
        lengths = {len(vals) for _, vals in self.targets}
        if len(lengths) != 1:
            raise ParameterError("zipped sweep value lists must share a length")
        if min(lengths) < 1:
            raise ParameterError("sweep needs at least one value")
        if not self.quantities:
            raise ParameterError("sweep needs at least one quantity")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise ParameterError(
                f"unknown quantity name(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(QUANTITIES))}")

    @classmethod
    def from_range(cls, path: str, start: float, stop: float, count: int,
                   scale: str, quantities) -> "SweepSpec":
        if count < 1:
            raise ParameterError(f"count must be >= 1 (got {count!r})")
        if count > 1 and not start < stop:
            raise ParameterError(f"need start < stop (got {start!r}, {stop!r})")
        if scale == "linear":
            values = np.linspace(start, stop, count)
        elif scale == "log":
            if start <= 0:
                raise ParameterError("log scale needs start > 0")
            values = np.geomspace(start, stop, count)
        else:
            raise ParameterError(f"scale must be 'linear' or 'log' (got {scale!r})")
        return cls(((path, tuple(float(v) for v in values)),),
                   tuple(quantities))

    @property
    def n_rows(self) -> int:
        return len(self.targets[0][1])


def _pump(bundle: DeviceBundle) -> PumpState:
    if bundle.pump is None:
        raise ParameterError("quantity needs a [pump] section or pump overrides")
    return bundle.pump


def _qubit(bundle: DeviceBundle) -> QubitConfig:
    if bundle.qubit is None:
        raise ParameterError("quantity needs a [qubit] section")
    return bundle.qubit


def _principal_mode(bundle: DeviceBundle) -> MechanicalMode:
    return bundle.modes[0] if bundle.modes else lumped_mode(bundle.device)


def _n_c(bundle, env):
    return core.resolve_photon_number(bundle.device, _pump(bundle))


def _coherent_phonons(bundle, env):
    if env["drive.p_mu"] is None:
        raise ParameterError("quantity needs drive.p_mu")
    mode = _principal_mode(bundle)
    return steady_state_coherent_phonons(mode, env["drive.p_mu"], mode.f)


# name -> f(bundle, env), env holding "temperature" and "drive.p_mu". The
# efficiencies and C_om use the bare mechanical linewidth gamma_m.
QUANTITIES = {
    "n_c": _n_c,
    "gamma_om": lambda b, env: core.backaction_rate(b.device, _n_c(b, env)),
    "gamma_tot": lambda b, env: core.total_mech_linewidth(
        b.device, _n_c(b, env), _pump(b).sign),
    "c_om": lambda b, env: core.cooperativity(b.device, _n_c(b, env),
                                              b.device.gamma_m),
    "eta_o": lambda b, env: core.efficiencies(b.device, b.device.gamma_m)[0],
    "eta_em": lambda b, env: core.efficiencies(b.device, b.device.gamma_m)[1],
    "eta_tot": lambda b, env: core.total_efficiency(b.device, _pump(b),
                                                    _pump(b).sign),
    "n_th": lambda b, env: core.thermal_occupation(b.device.f_m,
                                                   env["temperature"]),
    "coherent_phonons": _coherent_phonons,
    "coherent_peak_area": lambda b, env: _coherent_phonons(b, env) * sideband_rate(
        _principal_mode(b), _n_c(b, env), b.device.kappa_o),
    "z_q": lambda b, env: qubit_impedance(_qubit(b), b.device),
    "g_em": lambda b, env: coupling_g_em(b.device, _qubit(b)),
    "c_em": lambda b, env: swap_feasibility(b.device, _qubit(b)).c_em,
    "threshold_gamma": lambda b, env: swap_feasibility(
        b.device, _qubit(b)).threshold_gamma,
}


def _with_columns(bundle: DeviceBundle, columns: dict, env: dict):
    """(bundle, env) with each dotted parameter path set to its column."""
    changes, env = {"device": {}, "pump": {}, "qubit": {}}, dict(env)
    for path, column in columns.items():
        head, _, field = path.partition(".")
        if head == "device":
            if field not in DeviceParams.__dataclass_fields__:
                raise ParameterError(f"unknown device field {field!r}")
        elif head == "pump":
            _pump(bundle)
            if field not in ("n_c", "p_on_chip", "detuning"):
                raise ParameterError(f"unknown pump field {field!r}")
            if field != "detuning":     # a swept n_c clears the power, and back
                changes["pump"]["p_on_chip" if field == "n_c" else "n_c"] = None
        elif head == "qubit":
            if field not in _qubit(bundle).__dataclass_fields__:
                raise ParameterError(f"unknown qubit field {field!r}")
        elif head == "drive" and field in ("p_mu", "p_mu_w"):
            env["drive.p_mu"] = column
            continue
        elif head == "temperature" and not field:
            env["temperature"] = column
            continue
        else:
            raise ParameterError(
                f"unknown parameter path {path!r}; use device.<field>, "
                "pump.<field>, qubit.<field>, drive.p_mu, or temperature")
        changes[head][field] = column
    records = {head: replace(getattr(bundle, head), **fields)
               for head, fields in changes.items() if fields}
    return replace(bundle, **records), env


def run_sweep(spec: SweepSpec, bundle: DeviceBundle, *,
              temperature: float = 300.0,
              drive_p_mu: float | None = None) -> list[dict]:
    """One row per value set; row order follows the value lists.

    Rows pumped at detuning >= 0 and < 0 are evaluated as two groups,
    because the detuning sign picks the branch of the chain.
    """
    columns = {path: np.asarray(values, dtype=float)
               for path, values in spec.targets}
    env = {"temperature": temperature, "drive.p_mu": drive_p_mu}
    blue = columns.get("pump.detuning", np.zeros(spec.n_rows)) >= 0
    results = {name: np.empty(spec.n_rows) for name in spec.quantities}
    for rows in (blue, ~blue):
        if rows.any():
            group, group_env = _with_columns(
                bundle, {path: col[rows] for path, col in columns.items()}, env)
            for name in spec.quantities:
                results[name][rows] = QUANTITIES[name](group, group_env)
    table = {**columns, **results}
    return [dict(zip(table, row))
            for row in zip(*(col.tolist() for col in table.values()))]
