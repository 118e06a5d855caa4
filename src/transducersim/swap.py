"""Resonator-boosted electromechanical coupling and qubit-swap feasibility.

The transmon is treated as a linear resonator restricted to a single
excitation: two coupled lossy amplitude equations with coupling g_em
and decay rates kappa_mu (qubit) and gamma_mi (mechanics).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DeviceParams, require
from .errors import ParameterError, SamplingError
from .trace import Trace, axis


@dataclass(frozen=True)
class QubitConfig:
    """Microwave resonator/transmon: capacitance, frequency, linewidth."""

    c_q: float       # F
    f_mu: float      # Hz
    kappa_mu: float  # Hz

    def __post_init__(self):
        require(positive={"c_q": self.c_q, "f_mu": self.f_mu,
                          "kappa_mu": self.kappa_mu})


def qubit_impedance(q: QubitConfig, dev: DeviceParams) -> float:
    """Z_q = 1 / (2*pi*f_mu * (c_idt + c_q)), Ohm."""
    return 1.0 / (2 * math.pi * q.f_mu * (dev.c_idt + q.c_q))


def coupling_g_em(dev: DeviceParams, q: QubitConfig) -> float:
    """Resonant electromechanical coupling, Hz.

    g_em = (1/2) sqrt(gamma_me * f_m) * sqrt(Z_q / Z_0); the resonator
    impedance boosts the bare feedline coupling. Assumes f_mu tuned to
    the mechanical mode (no detuning correction).
    """
    z_q = qubit_impedance(q, dev)
    return 0.5 * np.sqrt(dev.gamma_me * dev.f_m) * np.sqrt(z_q / dev.z0)


@dataclass(frozen=True)
class SwapFeasibility:
    g_em: float
    z_q: float
    threshold_gamma: float   # 4 * g_em, Hz
    feasible: bool           # gamma_mi < threshold
    c_em: float              # 4 g_em^2 / (gamma_m * kappa_mu)


def swap_feasibility(dev: DeviceParams, q: QubitConfig) -> SwapFeasibility:
    """Swap condition gamma_mi < 4 g_em and electromechanical cooperativity.

    C_em uses the bare mechanical linewidth gamma_mi + gamma_me (the
    optical pump is off during a swap).
    """
    g_em = coupling_g_em(dev, q)
    threshold = 4.0 * g_em
    c_em = 4.0 * g_em ** 2 / (dev.gamma_m * q.kappa_mu)
    return SwapFeasibility(
        g_em=g_em,
        z_q=qubit_impedance(q, dev),
        threshold_gamma=threshold,
        feasible=dev.gamma_mi < threshold,
        c_em=c_em,
    )


def rabi_swap_sim(dev: DeviceParams, q: QubitConfig, t_grid,
                  lossless: bool = False) -> tuple[Trace, Trace]:
    """Excitation exchange between the qubit and the mechanical mode.

    Solves
        da/dt = -pi*kappa_mu*a - i*2*pi*g_em*b
        db/dt = -pi*gamma_mi*b - i*2*pi*g_em*a
    from a = 1, b = 0 (qubit excited, mechanics in the ground state)
    and returns (|a|^2, |b|^2) on t_grid. The generator M is a constant
    2x2 matrix, so by Cayley-Hamilton the exact propagator is

        exp(M t) = e^(mu t) [cosh(W t) I + sinh(W t)/W (M - mu I)]

    with mu = tr(M)/2 and W^2 = (pi*(gamma_mi - kappa_mu)/2)^2
    - (2*pi*g_em)^2 (W complex). sinh(W t)/W tends to t as W -> 0, so
    the result stays finite at the exceptional point W = 0, where M
    cannot be diagonalized, and the exponentials are combined as
    e^((mu +- W) t), whose real parts are <= 0, so no large t overflows.
    In the lossless limit the exchange oscillates at 2*g_em with the
    first full swap at t = 1/(4*g_em).
    """
    t = axis(t_grid, "t_grid")
    if t.size < 2 or t[0] < 0:
        raise ParameterError("t_grid must hold at least two times, all >= 0")
    g_em = coupling_g_em(dev, q)
    # the times are finite and >= 0, so no step overflows
    if g_em > 0 and float(np.max(np.diff(t))) > 1.0 / (10.0 * g_em):
        raise SamplingError(
            f"t_grid step exceeds 1/(10*g_em) = {1.0 / (10.0 * g_em):.3g} s; "
            "the exchange would alias")

    kappa = 0.0 if lossless else q.kappa_mu
    gamma = 0.0 if lossless else dev.gamma_mi
    mu = -math.pi * (kappa + gamma) / 2      # tr(M)/2
    half = math.pi * (gamma - kappa) / 2     # (M - mu I)[0, 0]
    g2 = 2 * math.pi * g_em                  # (M - mu I)[0, 1] = -i*g2
    omega = cmath.sqrt(half * half - g2 * g2)
    e_up = np.exp((mu + omega) * t)
    e_down = np.exp((mu - omega) * t)
    cosh_part = 0.5 * (e_up + e_down)        # e^(mu t) cosh(W t)
    # e^(mu t) sinh(W t)/W: e^(mu t) t at W = 0; below |W t| = 1 the
    # difference of the exponentials cancels, so scale that by sinh(z)/z,
    # which rounds to 1 below |z| = 1e-150, where numpy's complex
    # division of a subnormal z by itself would overflow
    sinh_part = (np.exp(mu * t) * t).astype(complex)
    if omega != 0:
        z = omega * t
        size = np.abs(z)
        far = size >= 1.0
        sinh_part[far] = (e_up[far] - e_down[far]) / (2 * omega)
        near = ~far & (size > 1e-150)
        sinh_part[near] *= np.sinh(z[near]) / z[near]
    a = cosh_part + half * sinh_part
    b = -1j * g2 * sinh_part
    qubit = Trace(t, np.abs(a) ** 2, "s", "lin", label="qubit excitation")
    mech = Trace(t, np.abs(b) ** 2, "s", "lin", label="phonon occupation")
    return qubit, mech
