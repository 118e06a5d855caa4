"""Mechanical power spectra and the microwave-to-optical response.

Synthesizes thermal sideband spectra, coherently driven spectra with an
instrument-limited drive peak, and the multi-mode transduction spectrum
with interference between modes. Also implements the thermal-peak
calibration that turns a measured spectrum into a coherent phonon number
and an electromechanical decay rate.

Spectra are single-sided photon-flux densities around the mechanical
band; the optical carrier is not represented. Frequency-axis alignment
offsets are never applied silently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA
from .core import (DeviceParams, PumpState, _pumped_g_squared, plain, require,
                   resolve_photon_number)
from .errors import FitError, ParameterError
from .trace import Trace, axis


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical resonance seen by the optical mode.

    f:        center frequency, Hz
    gamma:    total (operating) linewidth, Hz
    g:        vacuum optomechanical coupling magnitude, Hz
    phi:      coupling phase, rad (wrapped into [0, 2*pi))
    gamma_e:  electromechanical decay into the feedline, Hz
    """

    f: float
    gamma: float
    g: float
    phi: float = 0.0
    gamma_e: float = 0.0

    def __post_init__(self):
        require(positive={"f": self.f, "gamma": self.gamma},
                nonnegative={"g": self.g, "gamma_e": self.gamma_e},
                finite={"phi": self.phi})
        phi = self.phi % (2 * math.pi)     # 2 pi where a tiny negative rounds
        object.__setattr__(self, "phi", phi if phi < 2 * math.pi else 0.0)


def lumped_mode(dev: DeviceParams) -> MechanicalMode:
    """Principal mode built from the lumped record, for files with no [[modes]]."""
    return MechanicalMode(f=dev.f_m, gamma=dev.gamma_m, g=dev.g_om,
                          phi=0.0, gamma_e=dev.gamma_me)


@np.errstate(over="ignore")
def _pole(f, center, width):
    """i 2*pi (center - f) + pi width: the denominator of a single-pole
    response of full width `width` at `center`, seen at frequency f; a
    term that overflows is inf, whose response is the right limit 0."""
    return 1j * 2 * np.pi * (center - f) + np.pi * width


def mech_susceptibility(f, f_mode: float, gamma: float):
    """chi(f) = 1 / (i 2*pi (f_mode - f) + pi gamma), units 1/(angular Hz)."""
    return 1.0 / _pole(f, f_mode, gamma)


def sideband_rate(mode: MechanicalMode, n_c: float, kappa_o: float) -> float:
    """Per-phonon sideband scattering rate 4 n_c g^2 / kappa_o, Hz: the
    mode's backaction rate, inf where it overflows."""
    return plain(_pumped_g_squared(mode.g, n_c, "g") / kappa_o)


@np.errstate(over="ignore")
def _lorentzian_density(f, center, gamma):
    """Unit-area Lorentzian (1/pi)(gamma/2)/((f-center)^2+(gamma/2)^2);
    where (f-center)^2 overflows, the density is the right limit 0."""
    hw = 0.5 * gamma
    return (hw / np.pi) / ((f - center) ** 2 + hw ** 2)


def thermal_spectrum(dev: DeviceParams, modes, n_c: float, n_th: float,
                     grid) -> Trace:
    """Thermal sideband photon-flux spectrum of a set of mechanical modes.

    Mode j contributes a unit-area Lorentzian of width gamma_j scaled by
    its sideband photon rate Gamma_j = n_th * 4 n_c g_j^2 / kappa_o, so
    the integrated area of each mode equals Gamma_j and the peak
    density is 2 Gamma_j / (pi gamma_j). A rate that overflows raises a
    ParameterError naming n_th, n_c and the mode's g.
    """
    f = axis(grid, "grid")
    y = np.zeros_like(f)
    for mode in modes:
        with np.errstate(over="ignore", invalid="ignore"):
            rate = n_th * sideband_rate(mode, n_c, dev.kappa_o)
        if not abs(rate) < math.inf:
            raise ParameterError(
                f"the thermal sideband rate n_th * 4 n_c g^2 / kappa_o is not "
                f"finite at n_th = {n_th!r}, n_c = {n_c!r}, g = {mode.g!r} Hz")
        y += rate * _lorentzian_density(f, mode.f, mode.gamma)
    return Trace(f, y, "hz", "lin", label="thermal sideband spectrum")


def steady_state_coherent_phonons(mode: MechanicalMode, p_mu: float,
                                  drive_f: float) -> float:
    """Coherent phonon number for a resonant microwave drive of power p_mu.

    Steady state of the driven damped mode:
        n_coh = 2*pi * gamma_e * Phi * |chi(drive_f)|^2,
    with Phi = p_mu / (h * drive_f) the drive photon flux. On resonance
    this reduces to (2/pi) * gamma_e * p_mu / (h f gamma^2) and is
    linear in p_mu.
    """
    require(positive={"drive_f": drive_f}, nonnegative={"p_mu": p_mu})
    flux = np.divide(p_mu, CODATA.h * drive_f)
    chi = mech_susceptibility(drive_f, mode.f, mode.gamma)
    return plain(2 * math.pi * mode.gamma_e * flux * np.square(np.abs(chi)))


@np.errstate(over="ignore")
def gamma_me_from_phonons(n_coh: float, f_m: float, gamma_m: float,
                          p_mu: float) -> float:
    """Invert the resonant steady state for the feedline decay rate.

    gamma_me = (pi/2) * n_coh * h * f_m * gamma_m^2 / p_mu

    A result that overflows is a ParameterError naming the inputs.
    """
    require(nonnegative={"n_coh": n_coh},
            positive={"f_m": f_m, "gamma_m": gamma_m, "p_mu": p_mu})
    try:
        gamma_me = 0.5 * math.pi * n_coh * CODATA.h * f_m * gamma_m ** 2 / p_mu
    except OverflowError:                   # from gamma_m ** 2
        gamma_me = math.inf
    if not np.all(gamma_me < math.inf):
        raise ParameterError(f"gamma_me is not finite at n_coh = {n_coh!r}, "
                             f"f_m = {f_m!r} Hz, gamma_m = {gamma_m!r} Hz, "
                             f"p_mu = {p_mu!r} W")
    return gamma_me


def _cell_edges(f: np.ndarray, center: float, width: float) -> np.ndarray:
    """Edges of the cells a drive peak is deposited into: midpoints between
    grid points, the end cells as wide as their neighbours; on a one-point
    grid, one cell of twice the width around center. An edge that
    overflows is inf."""
    if f.size == 1:
        return np.array([center - width, center + width])
    with np.errstate(over="ignore"):
        return np.concatenate(([f[0] - 0.5 * (f[1] - f[0])],
                               0.5 * (f[:-1] + f[1:]),
                               [f[-1] + 0.5 * (f[-1] - f[-2])]))


def driven_spectrum(dev: DeviceParams, modes, n_c: float, n_th: float,
                    drive_f: float, p_mu: float, rbw: float, grid) -> Trace:
    """Thermal spectrum plus a resolution-limited coherent drive peak.

    Each mode adds a peak at drive_f of integrated flux
    n_coh_j * Gamma_om_j; the drive peak is instrument-limited, so it is
    rendered as a rectangle of width rbw whose area is the physical
    quantity. Coherent phonons scale linearly with p_mu while the
    thermal part is unaffected. A rectangle that overlaps none of the
    grid's cells, or a cell of no finite width, is an error, not a
    spectrum without its peak; so is a coherent phonon number or peak
    area that overflows, a ParameterError naming p_mu.
    """
    require(positive={"rbw": rbw, "drive_f": drive_f})
    thermal = thermal_spectrum(dev, modes, n_c, n_th, grid)
    f = thermal.x
    y = thermal.y.copy()
    edges = _cell_edges(f, drive_f, rbw)
    lo, hi = drive_f - 0.5 * rbw, drive_f + 0.5 * rbw
    peak = f"drive peak at drive_f = {drive_f!r} Hz, rbw = {rbw!r} Hz"
    if hi <= edges[0] or lo >= edges[-1]:
        raise ParameterError(
            f"{peak} lies outside the grid's cells "
            f"({edges[0]:.10g} to {edges[-1]:.10g} Hz)")
    # cells first to stop - 1 hold the rectangle; the others would add 0
    first = max(int(np.searchsorted(edges, lo, side="right")) - 1, 0)
    stop = min(int(np.searchsorted(edges, hi, side="left")), edges.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        widths = np.diff(edges[first:stop + 1])
    if not np.isfinite(widths).all():
        raise ParameterError(
            f"{peak} overlaps a cell of no finite width on the grid from "
            f"{f[0]:.10g} to {f[-1]:.10g} Hz")
    share = np.clip(np.minimum(edges[first + 1:stop + 1], hi)
                    - np.maximum(edges[first:stop], lo), 0.0, None) / rbw
    with np.errstate(all="ignore"):   # the Trace rejects a non-finite y
        for mode in modes:
            n_coh = steady_state_coherent_phonons(mode, p_mu, drive_f)
            area = n_coh * sideband_rate(mode, n_c, dev.kappa_o)
            if not abs(area) < math.inf:    # n_coh = inf gives inf or nan
                raise ParameterError(
                    f"p_mu = {p_mu!r} W gives the mode at {mode.f!r} Hz "
                    f"n_coh = {n_coh!r} coherent phonons and a drive peak "
                    f"area of {area!r}, which is not finite")
            y[first:stop] += np.where(widths > 0, area * share / widths, 0.0)
    return Trace(f, y, "hz", "lin", label="driven sideband spectrum", rbw=rbw)


@dataclass(frozen=True)
class CoherentCalibration:
    """Result of the thermal-peak calibration."""

    n_coh: float
    thermal_fit: "FitResult"       # noqa: F821  (fitting.FitResult)
    coherent_area: float
    thermal_area: float
    peak_f: float
    significant: bool


def calibrate_coherent_phonons(spectrum: Trace, n_th: float) -> CoherentCalibration:
    """Coherent phonon number from the drive-peak / thermal-peak area ratio.

    Fits the broad thermal Lorentzian with the narrow drive peak masked
    out, integrates the excess flux in the masked window, and scales by
    the known thermal occupation:  n_coh = n_th * A_coh / A_thermal.
    Detection gain and the sideband scattering rate cancel in the ratio.
    """
    from .fitting import fit_lorentzian_multi

    if spectrum.rbw is None:
        raise ParameterError("rbw must be finite and > 0 (got None)")
    require(positive={"rbw": spectrum.rbw})
    f, y = spectrum.x, spectrum.y
    if f.size < 16:
        raise FitError("spectrum too short to resolve a Lorentzian and a peak")
    cells = spectrum.cell_widths()
    peak_idx = int(np.argmax(y))
    peak_f = float(f[peak_idx])
    half = 0.5 * spectrum.rbw + 2.0 * float(np.max(cells[max(0, peak_idx - 2):peak_idx + 3]))
    window = np.abs(f - peak_f) <= half
    if window.sum() >= f.size - 8:
        raise FitError("drive peak window covers the whole trace; peaks unresolvable")

    masked = Trace(f[~window], y[~window], spectrum.x_unit, spectrum.y_unit)
    thermal_fit = fit_lorentzian_multi(masked, 1, background="constant")
    if not thermal_fit.converged:
        raise FitError("thermal Lorentzian fit did not converge")
    a_th = thermal_fit.params["area_1"]
    gamma_th = thermal_fit.params["gamma_1"]
    f_th = thermal_fit.params["f_1"]
    bg = thermal_fit.params.get("bg0", 0.0)
    model = a_th * _lorentzian_density(f, f_th, gamma_th) + bg

    resid_out = y[~window] - model[~window]
    peak_height = 2 * a_th / (np.pi * gamma_th)
    if a_th <= 0 or np.sqrt(np.mean(resid_out ** 2)) > 0.3 * abs(peak_height):
        raise FitError("residual too large: thermal peak not resolvable")

    a_coh = float(np.sum((y - model)[window] * cells[window]))
    noise_floor = float(np.std(resid_out)) * math.sqrt(max(window.sum(), 1)) \
        * float(np.mean(cells))
    significant = a_coh > 5.0 * noise_floor
    a_coh = max(a_coh, 0.0)
    return CoherentCalibration(
        n_coh=n_th * a_coh / a_th,
        thermal_fit=thermal_fit,
        coherent_area=a_coh,
        thermal_area=a_th,
        peak_f=peak_f,
        significant=significant,
    )


def s_oe_spectrum(dev: DeviceParams, modes, pump: PumpState, grid) -> Trace:
    """Microwave-to-optical scattering amplitude |S_oe(f)|.

    Coherent sum over modes of the electromechanical-to-optomechanical
    conversion amplitude, filtered by the optical cavity:

        S_oe(f) = sqrt(eta_oc) * A_cav(f)
                  * sum_j 2*pi*sqrt(n_c)*g_j * sqrt(2*pi*gamma_ej)
                          * exp(i phi_j) * chi_j(f)

    with A_cav(f) = sqrt(2*pi*kappa_oe) / |i 2*pi(|detuning| - f) + pi kappa_o|.
    Mode phases carry the sign structure of the optomechanical overlap,
    so modes can interfere destructively. For a single mode on
    resonance, |S_oe|^2 equals total_efficiency() from the core module.
    """
    if not modes:
        raise ParameterError("empty mode list: nothing to transduce")
    f = axis(grid, "grid")
    n_c = resolve_photon_number(dev, pump)
    amp = np.zeros(f.size, dtype=complex)
    for mode in modes:
        amp += (2 * np.pi * math.sqrt(n_c) * mode.g
                * math.sqrt(2 * math.pi * mode.gamma_e)
                * np.exp(1j * mode.phi)
                * mech_susceptibility(f, mode.f, mode.gamma))
    a_cav = np.sqrt(2 * np.pi * dev.kappa_oe) / np.abs(
        _pole(f, abs(pump.detuning), dev.kappa_o))
    y = math.sqrt(dev.eta_oc) * np.abs(amp) * a_cav
    return Trace(f, y, "hz", "lin", label="|S_oe| amplitude")
