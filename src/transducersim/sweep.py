"""Parameter sweeps over named output quantities.

A sweep walks one or more parameter paths (zipped when several are
given), rebuilds the immutable device records for each row, and
evaluates the requested quantities. Row order follows the value lists.
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


@dataclass(frozen=True)
class SweepContext:
    """One sweep row: records plus loose scalar inputs."""

    device: DeviceParams
    pump: PumpState | None = None
    qubit: QubitConfig | None = None
    modes: tuple = ()
    temperature: float = 300.0
    drive_p_mu: float | None = None

    def require_pump(self) -> PumpState:
        if self.pump is None:
            raise ParameterError("quantity needs a [pump] section or pump overrides")
        return self.pump

    def require_qubit(self) -> QubitConfig:
        if self.qubit is None:
            raise ParameterError("quantity needs a [qubit] section")
        return self.qubit

    def principal_mode(self) -> MechanicalMode:
        return self.modes[0] if self.modes else lumped_mode(self.device)

    def sign(self) -> str:
        return self.require_pump().sign


def _q_n_c(ctx):
    return core.resolve_photon_number(ctx.device, ctx.require_pump())


def _q_gamma_om(ctx):
    return core.backaction_rate(ctx.device, _q_n_c(ctx))


def _q_gamma_tot(ctx):
    return core.total_mech_linewidth(ctx.device, _q_n_c(ctx), ctx.sign())


def _q_c_om(ctx):
    return core.cooperativity(ctx.device, _q_n_c(ctx), ctx.device.gamma_m)


def _q_eta_o(ctx):
    return core.efficiencies(ctx.device, ctx.device.gamma_m)[0]


def _q_eta_em(ctx):
    return core.efficiencies(ctx.device, ctx.device.gamma_m)[1]


def _q_eta_tot(ctx):
    return core.total_efficiency(ctx.device, ctx.require_pump(), ctx.sign())


def _q_n_th(ctx):
    return core.thermal_occupation(ctx.device.f_m, ctx.temperature)


def _q_coherent_phonons(ctx):
    if ctx.drive_p_mu is None:
        raise ParameterError("quantity needs drive.p_mu")
    mode = ctx.principal_mode()
    return steady_state_coherent_phonons(mode, ctx.drive_p_mu, mode.f)


def _q_coherent_peak_area(ctx):
    mode = ctx.principal_mode()
    return _q_coherent_phonons(ctx) * sideband_rate(mode, _q_n_c(ctx),
                                                    ctx.device.kappa_o)


QUANTITIES = {
    "n_c": _q_n_c,
    "gamma_om": _q_gamma_om,
    "gamma_tot": _q_gamma_tot,
    "c_om": _q_c_om,
    "eta_o": _q_eta_o,
    "eta_em": _q_eta_em,
    "eta_tot": _q_eta_tot,
    "n_th": _q_n_th,
    "coherent_phonons": _q_coherent_phonons,
    "coherent_peak_area": _q_coherent_peak_area,
    "z_q": lambda ctx: qubit_impedance(ctx.require_qubit(), ctx.device),
    "g_em": lambda ctx: coupling_g_em(ctx.device, ctx.require_qubit()),
    "c_em": lambda ctx: swap_feasibility(ctx.device, ctx.require_qubit()).c_em,
    "threshold_gamma": lambda ctx: swap_feasibility(
        ctx.device, ctx.require_qubit()).threshold_gamma,
}


def context_from_bundle(bundle: DeviceBundle, temperature: float = 300.0,
                        drive_p_mu: float | None = None) -> SweepContext:
    return SweepContext(device=bundle.device, pump=bundle.pump,
                        qubit=bundle.qubit, modes=bundle.modes,
                        temperature=temperature, drive_p_mu=drive_p_mu)


def apply_param(ctx: SweepContext, path: str, value: float) -> SweepContext:
    """New context with the dotted parameter path set to value."""
    head, _, field = path.partition(".")
    if head == "device":
        if field not in DeviceParams.__dataclass_fields__:
            raise ParameterError(f"unknown device field {field!r}")
        return replace(ctx, device=replace(ctx.device, **{field: value}))
    if head == "pump":
        pump = ctx.require_pump()
        if field == "n_c":
            return replace(ctx, pump=replace(pump, n_c=value, p_on_chip=None))
        if field == "p_on_chip":
            return replace(ctx, pump=replace(pump, p_on_chip=value, n_c=None))
        if field == "detuning":
            return replace(ctx, pump=replace(pump, detuning=value))
        raise ParameterError(f"unknown pump field {field!r}")
    if head == "qubit":
        qubit = ctx.require_qubit()
        if field not in QubitConfig.__dataclass_fields__:
            raise ParameterError(f"unknown qubit field {field!r}")
        return replace(ctx, qubit=replace(qubit, **{field: value}))
    if head == "drive" and field in ("p_mu", "p_mu_w"):
        return replace(ctx, drive_p_mu=value)
    if head == "temperature" and not field:
        return replace(ctx, temperature=value)
    raise ParameterError(
        f"unknown parameter path {path!r}; use device.<field>, pump.<field>, "
        "qubit.<field>, drive.p_mu, or temperature")


def run_sweep(spec: SweepSpec, bundle: DeviceBundle, *,
              temperature: float = 300.0,
              drive_p_mu: float | None = None) -> list[dict]:
    """One row per value set; row order follows the value lists."""
    base = context_from_bundle(bundle, temperature, drive_p_mu)

    # validate every path once up front so failures name the path, not a row
    for path, values in spec.targets:
        apply_param(base, path, values[0])

    def row(i: int) -> dict:
        ctx = base
        out = {}
        for path, values in spec.targets:
            ctx = apply_param(ctx, path, values[i])
            out[path] = float(values[i])
        for name in spec.quantities:
            out[name] = float(QUANTITIES[name](ctx))
        return out

    return [row(i) for i in range(spec.n_rows)]
