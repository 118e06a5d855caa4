"""Device records and the closed-form conversion-chain physics.

All frequencies and rates are ordinary frequencies in Hz (cycles/s);
angular factors of 2*pi live inside the formulas. Powers are watts.
Every type is an immutable value and every operation is a pure function.
The chain computes a scalar as a numpy value, as it computes a column.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Literal

import numpy as np

from .constants import CODATA
from .errors import InstabilityError, ParameterError

DetuningSign = Literal["blue", "red"]

# tolerance for a PumpState that declares both power and photon number
N_C_CONSISTENCY_TOL = 0.05
# the one error for a pump without a drive, or a quantity without a pump
NO_PUMP = ("no pump drive: add a [pump] section, or give pump.p_on_chip or "
           "pump.n_c (--power or --n-c)")


def violation(bad, message, *values):
    """message quoting values where bad first holds, or None where it never does.

    bad is a comparison of scalars or of arrays. Each numpy value is
    quoted as the Python scalar at the first failing index ("inf", not
    "np.float64(inf)"); every other value is quoted as it is.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return None
    i = int(bad.argmax())
    return message.format(*(np.broadcast_to(v, bad.shape).flat[i].item()
                            if isinstance(v, (np.ndarray, np.generic)) else v
                            for v in values))


def plain(value):
    """value as a Python float where it is 0-d, else the column as is. The
    chain squares by np.square and divides two scalars in numpy, never by
    Python's pow or /, so a scalar takes a sweep row's bits and limits."""
    return value if isinstance(value, np.ndarray) and value.ndim else float(value)


def range_errors(record, positive=(), nonnegative=(), finite=()) -> list:
    """One message per named field of record outside its range.

    Fields may hold scalars or arrays. NaN and +-inf fail every test:
    positive 0 < v < inf, nonnegative 0 <= v < inf, finite -inf < v < inf.
    Fields set to None (optional and absent) are skipped.
    """
    inf, bad = np.inf, []
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


def require(**rules) -> None:
    """Raise a ParameterError naming each argument outside its range_errors
    rule: require(positive={"gamma_m": gamma_m}, nonnegative={"n_c": n_c})."""
    args = SimpleNamespace(**{n: v for named in rules.values()
                              for n, v in named.items()})
    if bad := range_errors(args, **rules):
        raise ParameterError("; ".join(bad))


def require_integer(**counts) -> None:
    """Raise a ParameterError naming each count that is neither None nor
    an int or numpy integer: require_integer(n_peaks=n_peaks)."""
    if bad := [f"{n} must be an integer (got {v!r})" for n, v in counts.items()
               if not isinstance(v, (int, np.integer, type(None)))]:
        raise ParameterError("; ".join(bad))


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
            raise ParameterError(NO_PUMP)
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
    require(nonnegative={"p_on_chip": p_on_chip}, finite={"detuning": detuning})
    flux = np.divide(p_on_chip, CODATA.h * dev.f_o)
    denom = np.square(2 * np.pi * detuning) + np.square(np.pi * dev.kappa_o)
    return plain(flux * (2 * np.pi * dev.kappa_oe) / denom)


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
                np.logical_not(abs(derived - pump.n_c) / ref <= N_C_CONSISTENCY_TOL),
                "declared n_c={:.4g} disagrees with n_c={:.4g} derived from "
                "p_on_chip={:.4g} W", pump.n_c, derived, pump.p_on_chip):
            raise ParameterError(msg)
    return pump.n_c


def _pumped_g_om_squared(dev: DeviceParams, n_c: float) -> float:
    """4 n_c g_om^2, the numerator of both rates below: nan only as n_c = 0
    times a g_om^2 that overflows, where it raises a ParameterError."""
    term = 4.0 * n_c * np.square(dev.g_om)
    if msg := violation(np.isnan(term), "backaction rate is not finite: "
                        "g_om = {!r} Hz overflows when squared (n_c = {!r})",
                        dev.g_om, n_c):
        raise ParameterError(msg)
    return term


def cooperativity(dev: DeviceParams, n_c: float, gamma_m: float) -> float:
    """Optomechanical cooperativity C_om = 4 n_c g_om^2 / (kappa_o gamma_m)."""
    require(positive={"gamma_m": gamma_m}, nonnegative={"n_c": n_c})
    return plain(_pumped_g_om_squared(dev, n_c) / (dev.kappa_o * gamma_m))


def backaction_rate(dev: DeviceParams, n_c: float) -> float:
    """Optical backaction rate gamma_om = 4 n_c g_om^2 / kappa_o, Hz."""
    require(nonnegative={"n_c": n_c})
    return plain(_pumped_g_om_squared(dev, n_c) / dev.kappa_o)


def sign_factor(sign: DetuningSign) -> float:
    """+1.0 for a "blue" pump, -1.0 for a "red" one."""
    if sign not in ("blue", "red"):
        raise ParameterError(f"sign must be 'blue' or 'red' (got {sign!r})")
    return 1.0 if sign == "blue" else -1.0


def stable_sign(dev: DeviceParams, gamma_om: float, sign: DetuningSign) -> float:
    """sign_factor(sign), after an InstabilityError for a blue pump
    unless gamma_om < gamma_mi: gamma_tot = gamma_mi - gamma_om reaches
    zero at the threshold, and the mode self-oscillates. Both rates are
    quoted by repr, so unequal rates never print equal."""
    s = sign_factor(sign)
    if s > 0 and (msg := violation(
            np.logical_not(gamma_om < dev.gamma_mi),
            "backaction rate {!r} Hz >= intrinsic linewidth {!r} Hz: "
            "parametric oscillation threshold", gamma_om, dev.gamma_mi)):
        raise InstabilityError(msg)
    return s


def total_mech_linewidth(dev: DeviceParams, n_c: float,
                         sign: DetuningSign) -> float:
    """Operating mechanical linewidth gamma_mi -/+ gamma_om (blue/red), Hz."""
    g_om = backaction_rate(dev, n_c)
    return dev.gamma_mi - stable_sign(dev, g_om, sign) * g_om


def efficiencies(dev: DeviceParams, gamma_m: float) -> tuple[float, float]:
    """(eta_o, eta_em): cavity out-coupling and feedline coupling ratios."""
    require(positive={"gamma_m": gamma_m})
    if msg := violation(np.logical_not(gamma_m >= dev.gamma_me),
                        "gamma_m ({!r}) smaller than gamma_me ({!r})",
                        gamma_m, dev.gamma_me):
        raise ParameterError(msg)
    return dev.kappa_oe / dev.kappa_o, dev.gamma_me / gamma_m


def total_efficiency(dev: DeviceParams, pump: PumpState,
                     sign: DetuningSign) -> float:
    """End-to-end microwave-to-optical conversion efficiency.

    eta_tot = eta_oc * eta_o * eta_em * 4 C / (1 -/+ C)^2 with the
    cooperativity and eta_em evaluated at the bare mechanical linewidth
    gamma_mi + gamma_me; the (1 -/+ C)^2 denominator carries the
    backaction. Maximum for red detuning is eta_oc*eta_o*eta_em at C = 1.
    A blue pump raises at stable_sign's threshold gamma_om >= gamma_mi,
    where gamma_tot reaches zero, with gamma_om read as C * gamma_m so
    that C < 1 below it even where gamma_me rounds away against gamma_mi.
    """
    n_c = resolve_photon_number(dev, pump)
    gamma_bare = dev.gamma_m
    c_om = cooperativity(dev, n_c, gamma_bare)
    s = stable_sign(dev, c_om * gamma_bare, sign)
    eta_o, eta_em = efficiencies(dev, gamma_bare)
    return plain(dev.eta_oc * eta_o * eta_em * 4.0 * c_om / np.square(1.0 - s * c_om))


def thermal_occupation(f_m: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/expm1(x), x = h f / (k_B T): e^-x where
    expm1(x) overflows, and the limit 0 where x does, without a warning."""
    require(positive={"f_m": f_m, "temperature": temperature})
    with np.errstate(over="ignore", divide="ignore"):
        x = np.divide(CODATA.h * f_m, CODATA.k_B * temperature)
        em1 = np.expm1(x)
    return plain(np.where(np.isinf(em1), np.exp(-x), 1.0 / em1))
