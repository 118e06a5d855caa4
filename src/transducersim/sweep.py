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
from .spectra import sideband_rate, steady_state_coherent_phonons
from .swap import QubitConfig, coupling_g_em, qubit_impedance, swap_feasibility
from .trace import grid


# paths that set the same value as another path
_ALIASES = {"drive.p_mu_w": "drive.p_mu"}


@dataclass(frozen=True)
class SweepSpec:
    """Zipped parameter paths and the quantities to evaluate per row."""

    targets: tuple       # ((path, (v0, v1, ...)), ...)
    quantities: tuple    # quantity names

    def __post_init__(self):
        if not self.targets:
            raise ParameterError("sweep needs at least one parameter path")
        seen = {}
        for path, _ in self.targets:
            key = _ALIASES.get(path, path)
            if key in seen:
                alias = "" if seen[key] == path else f" (as {seen[key]!r})"
                raise ParameterError(
                    f"parameter path {path!r} is swept twice{alias}")
            seen[key] = path
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
        values = grid(start, stop, count, ("start", "stop", "count"), scale)
        return cls(((path, tuple(values.tolist())),), tuple(quantities))

    @property
    def n_rows(self) -> int:
        return len(self.targets[0][1])


def _pump(bundle: DeviceBundle) -> PumpState:
    if bundle.pump is None:
        raise ParameterError(core.NO_PUMP)
    return bundle.pump


def _qubit(bundle: DeviceBundle) -> QubitConfig:
    if bundle.qubit is None:
        raise ParameterError("quantity needs a [qubit] section")
    return bundle.qubit


def _n_c(bundle, env):
    return core.resolve_photon_number(bundle.device, _pump(bundle))


def _c_om(bundle, env):
    dev = bundle.device
    c_om = core.cooperativity(dev, _n_c(bundle, env), dev.gamma_m)
    core.stable_sign(dev, c_om * dev.gamma_m, _pump(bundle).sign)
    return c_om


def _coherent_phonons(bundle, env):
    if env["drive.p_mu"] is None:
        raise ParameterError("quantity needs drive.p_mu")
    mode = bundle.mechanical_modes[0]
    return steady_state_coherent_phonons(mode, env["drive.p_mu"], mode.f)


# name -> f(bundle, env), env holding "temperature" and "drive.p_mu". The
# efficiencies and C_om use the bare mechanical linewidth gamma_m.
QUANTITIES = {
    "n_c": _n_c,
    "gamma_om": lambda b, env: core.backaction_rate(b.device, _n_c(b, env)),
    "gamma_tot": lambda b, env: core.total_mech_linewidth(
        b.device, _n_c(b, env), _pump(b).sign),
    "c_om": _c_om,
    "eta_o": lambda b, env: core.efficiencies(b.device, b.device.gamma_m)[0],
    "eta_em": lambda b, env: core.efficiencies(b.device, b.device.gamma_m)[1],
    "eta_tot": lambda b, env: core.total_efficiency(b.device, _pump(b),
                                                    _pump(b).sign),
    "n_th": lambda b, env: core.thermal_occupation(b.device.f_m,
                                                   env["temperature"]),
    "coherent_phonons": _coherent_phonons,
    "coherent_peak_area": lambda b, env: _coherent_phonons(b, env) * sideband_rate(
        b.mechanical_modes[0], _n_c(b, env), b.device.kappa_o),
    "z_q": lambda b, env: qubit_impedance(_qubit(b), b.device),
    "g_em": lambda b, env: coupling_g_em(b.device, _qubit(b)),
    "c_em": lambda b, env: swap_feasibility(b.device, _qubit(b)).c_em,
    "threshold_gamma": lambda b, env: swap_feasibility(
        b.device, _qubit(b)).threshold_gamma,
}


def evaluate(names, bundle: DeviceBundle, env: dict) -> dict:
    """{name: QUANTITIES[name](bundle, env)} for each name, scalars or
    columns; a result holding inf or NaN anywhere raises one
    ParameterError naming every such quantity, and no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = {name: QUANTITIES[name](bundle, env) for name in names}
    core.require(finite=values)
    return values


def override(bundle: DeviceBundle, values: dict, env: dict, *, sign=None):
    """(bundle, env) with each dotted path set to its value or column.

    The pump starts from the file's [pump], or blue-detuned by f_m; a
    given pump.n_c or pump.p_on_chip replaces both of the file's values
    (given together, both are kept and must agree), and sign, "blue" or
    "red", sets the sign of its detuning. No drive raises core.NO_PUMP.
    """
    changes, env = {"device": {}, "pump": {}, "qubit": {}}, dict(env)
    for path, column in values.items():
        head, _, field = path.partition(".")
        if head == "device":
            if field not in DeviceParams.__dataclass_fields__:
                raise ParameterError(f"unknown device field {field!r}")
        elif head == "pump":
            if field not in ("n_c", "p_on_chip", "detuning"):
                raise ParameterError(f"unknown pump field {field!r}")
        elif head == "qubit":
            if field not in _qubit(bundle).__dataclass_fields__:
                raise ParameterError(f"unknown qubit field {field!r}")
        elif _ALIASES.get(path, path) == "drive.p_mu":
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
    factor = None if sign is None else core.sign_factor(sign)
    pump = changes.pop("pump")
    records = {head: replace(getattr(bundle, head), **fields)
               for head, fields in changes.items() if fields}
    if pump or factor:
        start = vars(bundle.pump) if bundle.pump else {"detuning": bundle.device.f_m}
        if pump.keys() & {"n_c", "p_on_chip"}:
            start = {**start, "n_c": None, "p_on_chip": None}
        pump = {**start, **pump}
        if factor:
            if factor < 0 and not np.all(pump["detuning"]):
                raise ParameterError("a red pump needs a nonzero detuning")
            pump["detuning"] = abs(pump["detuning"]) * factor
        records["pump"] = PumpState(**pump)
    return replace(bundle, **records), env


def sweep_table(spec: SweepSpec, bundle: DeviceBundle, *,
                temperature: float = 300.0,
                drive_p_mu: float | None = None) -> dict:
    """{path or quantity name: float64 column}: the swept paths, then the
    quantities; row order follows the value lists.

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
            group, group_env = override(
                bundle, {path: col[rows] for path, col in columns.items()}, env)
            for name, column in evaluate(spec.quantities, group,
                                         group_env).items():
                results[name][rows] = column
    return {**columns, **results}


def run_sweep(spec: SweepSpec, bundle: DeviceBundle, *,
              temperature: float = 300.0,
              drive_p_mu: float | None = None) -> list[dict]:
    """The rows of sweep_table, one {name: float} dict per value set.

    Each row is a copy of one dict holding the table's keys, filled one
    column at a time, so no row walks the keys or grows from empty.
    """
    table = sweep_table(spec, bundle, temperature=temperature,
                        drive_p_mu=drive_p_mu)
    keys = dict.fromkeys(table)
    rows = [keys.copy() for _ in range(spec.n_rows)]
    for name, column in table.items():
        for row, value in zip(rows, column.tolist()):
            row[name] = value
    return rows
