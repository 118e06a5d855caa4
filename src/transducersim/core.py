"""Device records and the closed-form conversion-chain physics.

All frequencies and rates are ordinary frequencies in Hz (cycles/s);
angular factors of 2*pi live inside the formulas. Powers are watts.
Every type is an immutable value and every operation is a pure function.
"""

import math
from dataclasses import dataclass
from typing import Literal

from .constants import CODATA
from .errors import InstabilityError, ParameterError

DetuningSign = Literal["blue", "red"]

# tolerance for a PumpState that declares both power and photon number
N_C_CONSISTENCY_TOL = 0.05


def range_errors(record, positive=(), nonnegative=(), finite=()) -> list:
    """One message per named field of record outside its range.

    Every test is a chained comparison, so NaN and +-inf fail it:
    positive 0 < v < inf, nonnegative 0 <= v < inf, finite -inf < v < inf.
    Fields set to None (optional and absent) are skipped. Plain loops
    and getattr, because run_sweep rebuilds records on every row (reading
    record.__dict__ would materialise a dict on every instance and slow
    each later attribute read).
    """
    inf, bad = math.inf, []
    for n in positive:
        v = getattr(record, n)
        if v is not None and not 0 < v < inf:
            bad.append(f"{n} must be finite and > 0 (got {v!r})")
    for n in nonnegative:
        v = getattr(record, n)
        if v is not None and not 0 <= v < inf:
            bad.append(f"{n} must be finite and >= 0 (got {v!r})")
    for n in finite:
        v = getattr(record, n)
        if v is not None and not -inf < v < inf:
            bad.append(f"{n} must be finite (got {v!r})")
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
        if self.kappa_oe > self.kappa_o:
            bad.append(
                f"kappa_oe ({self.kappa_oe!r}) exceeds kappa_o ({self.kappa_o!r})")
        if not 0.0 <= self.eta_oc <= 1.0:
            bad.append(f"eta_oc must be in [0, 1] (got {self.eta_oc!r})")
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
        return "blue" if self.detuning >= 0 else "red"


def photon_number(dev: DeviceParams, detuning: float, p_on_chip: float) -> float:
    """Intracavity pump photon number for a side-coupled cavity.

    n_c = P/(h f_o) * 2*pi*kappa_oe / ((2*pi*detuning)^2 + (pi*kappa_o)^2)
    """
    if p_on_chip < 0:
        raise ParameterError(f"p_on_chip must be >= 0 (got {p_on_chip!r})")
    if dev.kappa_o <= 0:
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
        ref = max(abs(derived), abs(pump.n_c), 1.0)
        if abs(derived - pump.n_c) / ref > N_C_CONSISTENCY_TOL:
            raise ParameterError(
                f"declared n_c={pump.n_c:.4g} disagrees with n_c={derived:.4g} "
                f"derived from p_on_chip={pump.p_on_chip:.4g} W")
    return pump.n_c


def cooperativity(dev: DeviceParams, n_c: float, gamma_m: float) -> float:
    """Optomechanical cooperativity C_om = 4 n_c g_om^2 / (kappa_o gamma_m)."""
    if gamma_m <= 0:
        raise ParameterError(f"gamma_m must be > 0 (got {gamma_m!r})")
    if n_c < 0:
        raise ParameterError(f"n_c must be >= 0 (got {n_c!r})")
    return 4.0 * n_c * dev.g_om ** 2 / (dev.kappa_o * gamma_m)


def backaction_rate(dev: DeviceParams, n_c: float) -> float:
    """Optical backaction rate gamma_om = 4 n_c g_om^2 / kappa_o, Hz."""
    if n_c < 0:
        raise ParameterError(f"n_c must be >= 0 (got {n_c!r})")
    return 4.0 * n_c * dev.g_om ** 2 / dev.kappa_o


def total_mech_linewidth(dev: DeviceParams, n_c: float,
                         sign: DetuningSign) -> float:
    """Operating mechanical linewidth gamma_mi -/+ gamma_om (blue/red), Hz.

    A blue-detuned pump narrows the line; past gamma_om >= gamma_mi the
    mode self-oscillates and an InstabilityError is raised.
    """
    g_om = backaction_rate(dev, n_c)
    if sign == "blue":
        if g_om >= dev.gamma_mi:
            raise InstabilityError(
                f"backaction rate {g_om:.4g} Hz >= intrinsic linewidth "
                f"{dev.gamma_mi:.4g} Hz: parametric oscillation threshold")
        return dev.gamma_mi - g_om
    if sign == "red":
        return dev.gamma_mi + g_om
    raise ParameterError(f"sign must be 'blue' or 'red' (got {sign!r})")


def efficiencies(dev: DeviceParams, gamma_m: float) -> tuple[float, float]:
    """(eta_o, eta_em): cavity out-coupling and feedline coupling ratios."""
    if gamma_m < dev.gamma_me:
        raise ParameterError(
            f"gamma_m ({gamma_m!r}) smaller than gamma_me ({dev.gamma_me!r})")
    if gamma_m <= 0:
        raise ParameterError(f"gamma_m must be > 0 (got {gamma_m!r})")
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
        if c_om >= 1.0:
            raise InstabilityError(
                f"C_om = {c_om:.4g} >= 1 under blue detuning")
        denom = (1.0 - c_om) ** 2
    elif sign == "red":
        denom = (1.0 + c_om) ** 2
    else:
        raise ParameterError(f"sign must be 'blue' or 'red' (got {sign!r})")
    return dev.eta_oc * eta_o * eta_em * 4.0 * c_om / denom


def thermal_occupation(f_m: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(h f / k_B T) - 1)."""
    if f_m <= 0:
        raise ParameterError(f"f_m must be > 0 (got {f_m!r})")
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0 (got {temperature!r})")
    x = CODATA.h * f_m / (CODATA.k_B * temperature)
    return 1.0 / math.expm1(x)
