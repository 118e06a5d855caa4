"""Device records and the closed-form conversion-chain physics.

All frequencies and rates are ordinary frequencies in Hz (cycles/s);
angular factors of 2*pi live inside the formulas. Powers are watts.
Every type is an immutable value and every operation is a pure function.
"""

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .constants import CODATA
from .errors import InstabilityError, ParameterError

DetuningSign = Literal["blue", "red"]

# tolerance for a PumpState that declares both power and photon number
N_C_CONSISTENCY_TOL = 0.05


def violation(bad, message, *values):
    """message quoting values where bad first holds, or None where it never does.

    bad is a comparison of scalars or of arrays. A scalar comparison
    quotes the values as they are, so scalar calls keep their messages;
    an array comparison quotes each array value by its element at the
    first failing index.
    """
    if not isinstance(bad, np.ndarray):
        return message.format(*values) if bad else None
    if not bad.any():
        return None
    i = int(bad.argmax())
    return message.format(*(np.broadcast_to(v, bad.shape).flat[i].item()
                            if isinstance(v, np.ndarray) else v for v in values))


def range_errors(record, positive=(), nonnegative=(), finite=()) -> list:
    """One message per named field of record outside its range.

    Fields may hold scalars or arrays. NaN and +-inf fail every test:
    positive 0 < v < inf, nonnegative 0 <= v < inf, finite -inf < v < inf.
    Fields set to None (optional and absent) are skipped.
    """
    inf, bad = math.inf, []
    for names, rule, ok in (
            (positive, "finite and > 0", lambda v: (0 < v) & (v < inf)),
            (nonnegative, "finite and >= 0", lambda v: (0 <= v) & (v < inf)),
            (finite, "finite", lambda v: abs(v) < inf)):
        for n in names:
            v = getattr(record, n)
            if v is not None and (msg := violation(
                    np.logical_not(ok(v)), "{} must be {} (got {!r})", n, rule, v)):
                bad.append(msg)
    return bad


@dataclass(frozen=True)
class DeviceParams:
    """Lumped transducer record.

    f_o:       optical resonance frequency, Hz
    kappa_o:   total optical linewidth, Hz
    kappa_oe:  extrinsic (waveguide-coupled) optical linewidth, Hz
    f_m:       principal mechanical frequency, Hz
    gamma_mi:  intrinsic mechanical linewidth, Hz
    gamma_me:  electromechanical decay into the feedline, Hz
    g_om:      vacuum optomechanical coupling, Hz
    eta_oc:    grating/fiber coupling efficiency
    c_idt:     interdigitated-capacitor capacitance, F
    z0:        feedline characteristic impedance, Ohm
    """

    f_o: float
    kappa_o: float
    kappa_oe: float
    f_m: float
    gamma_mi: float
    gamma_me: float
    g_om: float
    eta_oc: float
    c_idt: float
    z0: float

    def __post_init__(self):
        bad = range_errors(
            self, positive=("f_o", "kappa_o", "kappa_oe", "f_m", "gamma_mi", "z0"),
            nonnegative=("gamma_me", "g_om", "c_idt"))
        bad += filter(None, [
            violation(self.kappa_oe > self.kappa_o,
                      "kappa_oe ({!r}) exceeds kappa_o ({!r})",
                      self.kappa_oe, self.kappa_o),
            violation(np.logical_not((0.0 <= self.eta_oc) & (self.eta_oc <= 1.0)),
                      "eta_oc must be in [0, 1] (got {!r})", self.eta_oc)])
        if bad:
            raise ParameterError("; ".join(bad))

    @property
    def kappa_oi(self) -> float:
        """Intrinsic optical linewidth kappa_o - kappa_oe, Hz."""
        return self.kappa_o - self.kappa_oe

    @property
    def gamma_m(self) -> float:
        """Bare (backaction-free) mechanical linewidth, Hz."""
        return self.gamma_mi + self.gamma_me


@dataclass(frozen=True)
class PumpState:
    """Optical drive condition.

    detuning is signed (positive = pump above the cavity, "blue");
    either the on-chip power or the intracavity photon number may be
    given, or both if they agree under photon_number().
    """

    detuning: float
    p_on_chip: float | None = None
    n_c: float | None = None

    def __post_init__(self):
        if self.p_on_chip is None and self.n_c is None:
            raise ParameterError("PumpState needs p_on_chip or n_c")
        bad = range_errors(self, finite=("detuning",),
                           nonnegative=("p_on_chip", "n_c"))
        if bad:
            raise ParameterError("; ".join(bad))

    @property
    def sign(self) -> DetuningSign:
        """"blue" for detuning >= 0, else "red"; a column must not change sign."""
        blue = np.asarray(self.detuning >= 0)
        if blue.any() != blue.all():
            raise ParameterError(
                "detuning column changes sign; blue and red rows take "
                "different branches of the chain")
        return "blue" if blue.all() else "red"


def photon_number(dev: DeviceParams, detuning: float, p_on_chip: float) -> float:
    """Intracavity pump photon number for a side-coupled cavity.

    n_c = P/(h f_o) * 2*pi*kappa_oe / ((2*pi*detuning)^2 + (pi*kappa_o)^2)
    """
    if msg := violation(p_on_chip < 0, "p_on_chip must be >= 0 (got {!r})",
                        p_on_chip):
        raise ParameterError(msg)
    if np.any(dev.kappa_o <= 0):
        raise ParameterError("kappa_o must be > 0")
    flux = p_on_chip / (CODATA.h * dev.f_o)
    denom = (2 * math.pi * detuning) ** 2 + (math.pi * dev.kappa_o) ** 2
    return flux * (2 * math.pi * dev.kappa_oe) / denom


def resolve_photon_number(dev: DeviceParams, pump: PumpState) -> float:
    """n_c from a PumpState, deriving it from power when not given.

    If both power and n_c are declared they must agree within
    N_C_CONSISTENCY_TOL, otherwise a ParameterError is raised.
    """
    if pump.n_c is None:
        return photon_number(dev, pump.detuning, pump.p_on_chip)
    if pump.p_on_chip is not None:
        derived = photon_number(dev, pump.detuning, pump.p_on_chip)
        ref = np.maximum(np.maximum(abs(derived), abs(pump.n_c)), 1.0)
        if msg := violation(
                abs(derived - pump.n_c) / ref > N_C_CONSISTENCY_TOL,
                "declared n_c={:.4g} disagrees with n_c={:.4g} derived from "
                "p_on_chip={:.4g} W", pump.n_c, derived, pump.p_on_chip):
            raise ParameterError(msg)
    return pump.n_c


def cooperativity(dev: DeviceParams, n_c: float, gamma_m: float) -> float:
    """Optomechanical cooperativity C_om = 4 n_c g_om^2 / (kappa_o gamma_m)."""
    if msg := violation(gamma_m <= 0, "gamma_m must be > 0 (got {!r})", gamma_m):
        raise ParameterError(msg)
    if msg := violation(n_c < 0, "n_c must be >= 0 (got {!r})", n_c):
        raise ParameterError(msg)
    return 4.0 * n_c * dev.g_om ** 2 / (dev.kappa_o * gamma_m)


def backaction_rate(dev: DeviceParams, n_c: float) -> float:
    """Optical backaction rate gamma_om = 4 n_c g_om^2 / kappa_o, Hz."""
    if msg := violation(n_c < 0, "n_c must be >= 0 (got {!r})", n_c):
        raise ParameterError(msg)
    return 4.0 * n_c * dev.g_om ** 2 / dev.kappa_o


def total_mech_linewidth(dev: DeviceParams, n_c: float,
                         sign: DetuningSign) -> float:
    """Operating mechanical linewidth gamma_mi -/+ gamma_om (blue/red), Hz.

    A blue-detuned pump narrows the line; past gamma_om >= gamma_mi the
    mode self-oscillates and an InstabilityError is raised.
    """
    g_om = backaction_rate(dev, n_c)
    if sign == "blue":
        if msg := violation(
                g_om >= dev.gamma_mi,
                "backaction rate {:.4g} Hz >= intrinsic linewidth {:.4g} Hz: "
                "parametric oscillation threshold", g_om, dev.gamma_mi):
            raise InstabilityError(msg)
        return dev.gamma_mi - g_om
    if sign == "red":
        return dev.gamma_mi + g_om
    raise ParameterError(f"sign must be 'blue' or 'red' (got {sign!r})")


def efficiencies(dev: DeviceParams, gamma_m: float) -> tuple[float, float]:
    """(eta_o, eta_em): cavity out-coupling and feedline coupling ratios."""
    if msg := violation(gamma_m < dev.gamma_me,
                        "gamma_m ({!r}) smaller than gamma_me ({!r})",
                        gamma_m, dev.gamma_me):
        raise ParameterError(msg)
    if msg := violation(gamma_m <= 0, "gamma_m must be > 0 (got {!r})", gamma_m):
        raise ParameterError(msg)
    return dev.kappa_oe / dev.kappa_o, dev.gamma_me / gamma_m


def total_efficiency(dev: DeviceParams, pump: PumpState,
                     sign: DetuningSign) -> float:
    """End-to-end microwave-to-optical conversion efficiency.

    eta_tot = eta_oc * eta_o * eta_em * 4 C / (1 -/+ C)^2 with the
    cooperativity and eta_em evaluated at the bare mechanical linewidth
    gamma_mi + gamma_me; the (1 -/+ C)^2 denominator carries the
    backaction. Maximum for red detuning is eta_oc*eta_o*eta_em at C = 1.
    """
    n_c = resolve_photon_number(dev, pump)
    gamma_bare = dev.gamma_m
    c_om = cooperativity(dev, n_c, gamma_bare)
    eta_o, eta_em = efficiencies(dev, gamma_bare)
    if sign == "blue":
        if msg := violation(c_om >= 1.0, "C_om = {:.4g} >= 1 under blue detuning",
                            c_om):
            raise InstabilityError(msg)
        denom = (1.0 - c_om) ** 2
    elif sign == "red":
        denom = (1.0 + c_om) ** 2
    else:
        raise ParameterError(f"sign must be 'blue' or 'red' (got {sign!r})")
    return dev.eta_oc * eta_o * eta_em * 4.0 * c_om / denom


def thermal_occupation(f_m: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(h f / k_B T) - 1)."""
    if msg := violation(f_m <= 0, "f_m must be > 0 (got {!r})", f_m):
        raise ParameterError(msg)
    if msg := violation(
            np.logical_not((0 < temperature) & (temperature < math.inf)),
            "temperature must be finite and > 0 (got {!r})", temperature):
        raise ParameterError(msg)
    x = CODATA.h * f_m / (CODATA.k_B * temperature)
    # math.expm1 for a scalar: np.expm1 rounds differently on some arguments
    return 1.0 / (np.expm1(x) if isinstance(x, np.ndarray) else math.expm1(x))
