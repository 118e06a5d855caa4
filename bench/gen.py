"""Seeded benchmark inputs: bit arrays, a multi-mode device file and noisy traces.

Every input belongs to a *slot* (one place in a workload's operation
sequence) and is one of VARIANTS variants of that slot. Variant v of a
slot is drawn from ``numpy.random.default_rng([slot_salt, v])``, so it is
the same on every machine and at every commit; the workload seed only
chooses which variant each slot uses (see ``workloads.choose``). That
keeps the recorded reference outputs finite: ``reference.json`` holds
the outputs of every variant, so any seed's outputs can be checked.

The generator never imports transducersim: files are written here with
17 significant digits, and the program sees only the files.
"""

import math

import numpy as np

# The lumped optical record shared by the generated device file and the
# traces whose fits read it (phase detuning needs the device's kappas).
F_O = 194.9e12
KAPPA_OE = 0.99e9
KAPPA_OI = 1.12e9
KAPPA_O = KAPPA_OE + KAPPA_OI
F_M = 4.32e9
GAMMA_MI = 8.4e6
G_OM = 130e3

# Salts keep the random streams of different input kinds independent.
_SALT = {"bits": 11, "device": 12, "dip": 13, "phase": 14, "lorentz": 15,
         "points": 16}


def _rng(kind, variant, extra=0):
    return np.random.default_rng([_SALT[kind], extra, variant])


def bits(variant, n, stream=0):
    """Random NRZ bit string of length n, both levels present."""
    b = _rng("bits", variant, stream).integers(0, 2, n)
    b[:2] = (0, 1)       # at least one ring-up so the eye and fits exist
    return "".join("01"[int(k)] for k in b)


def device_modes(variant):
    """Three mechanical modes around F_M: (f, gamma, g, phi, gamma_e)."""
    rng = _rng("device", variant)
    modes = []
    for offset in (-45e6, 0.0, 55e6):
        modes.append((F_M + offset + rng.uniform(-3e6, 3e6),
                      rng.uniform(6e6, 10e6),
                      rng.uniform(0.8e5, 1.3e5),
                      math.pi * int(rng.integers(0, 2)),
                      rng.uniform(20.0, 60.0)))
    return modes


def device_qubit_c(variant):
    return float(_rng("device", variant, 1).uniform(50e-15, 90e-15))


def device_text(variant):
    """Device file text with three [[modes]] blocks, a pump and a qubit."""
    g = lambda v: f"{v:.17g}"  # noqa: E731
    lines = ["# benchmark device, variant %d" % variant,
             "[optical]", f"f_o_hz = {g(F_O)}", f"kappa_oe_hz = {g(KAPPA_OE)}",
             f"kappa_oi_hz = {g(KAPPA_OI)}", "eta_oc = 0.29", "",
             "[mechanical]", f"f_m_hz = {g(F_M)}", f"gamma_mi_hz = {g(GAMMA_MI)}",
             f"g_om_hz = {g(G_OM)}", "",
             "[electromechanical]", "gamma_me_hz = 58.0", "c_idt_f = 0.42e-15",
             "z0_ohm = 50.0", "",
             "[pump]", f"detuning_hz = {g(F_M)}", "p_on_chip_dbm = -7.9", "",
             "[qubit]", f"c_q_f = {g(device_qubit_c(variant))}",
             f"f_mu_hz = {g(F_M)}", "kappa_mu_hz = 1.2e6"]
    for f, gamma, gc, phi, gamma_e in device_modes(variant):
        lines += ["", "[[modes]]", f"f_hz = {g(f)}", f"gamma_hz = {g(gamma)}",
                  f"g_hz = {g(gc)}", f"phi_rad = {g(phi)}",
                  f"gamma_e_hz = {g(gamma_e)}"]
    return "\n".join(lines) + "\n"


def dip(variant, n):
    """Noisy normalized reflection dip, under-coupled. Returns (f, r, truth)."""
    rng = _rng("dip", variant)
    f_o = F_O + rng.uniform(-0.2e9, 0.2e9)
    kappa_o = rng.uniform(1.8e9, 2.4e9)
    kappa_oe = rng.uniform(0.3, 0.45) * kappa_o
    f = np.linspace(f_o - 3 * kappa_o, f_o + 3 * kappa_o, n)
    d2 = (1.0 - 2.0 * kappa_oe / kappa_o) ** 2
    r = (d2 * kappa_o ** 2 + 4 * (f - f_o) ** 2) / (kappa_o ** 2 + 4 * (f - f_o) ** 2)
    r = r + 0.01 * rng.standard_normal(n)
    return f, r, {"f_o": f_o, "kappa_o": kappa_o, "kappa_oe": kappa_oe}


def phase(variant, n):
    """Noisy sideband response magnitude and phase. Returns (f, mag, ph, truth)."""
    rng = _rng("phase", variant)
    detuning = (1 if variant % 2 == 0 else -1) * rng.uniform(3.5e9, 5.0e9)
    amp = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    f = np.linspace(-8e9, 8e9, n)
    z = amp * (2 * np.pi * KAPPA_OE) / (1j * 2 * np.pi * (detuning - f)
                                        + np.pi * KAPPA_O)
    scale = 0.01 * np.max(np.abs(z))
    z = z + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return f, np.abs(z), np.angle(z), {"detuning": detuning}


def lorentz(variant, n):
    """Three noisy Lorentzians on a constant background at the device's modes.

    Returns (f, y, truth) with truth f_k, gamma_k, area_k sorted by f.
    """
    rng = _rng("lorentz", variant)
    modes = device_modes(variant)
    gmax = max(m[1] for m in modes)
    f = np.linspace(modes[0][0] - 10 * gmax, modes[-1][0] + 10 * gmax, n)
    bg = 3.0
    y = np.full(n, bg)
    truth = {}
    for k, (fc, gamma, *_rest) in enumerate(modes, start=1):
        area = rng.uniform(3e9, 8e9)
        y += area * (gamma / 2 / np.pi) / ((f - fc) ** 2 + (gamma / 2) ** 2)
        truth.update({f"f_{k}": fc, f"gamma_{k}": gamma, f"area_{k}": area})
    y += 0.01 * (np.max(y) - bg) * rng.standard_normal(n)
    return f, y, truth


def linewidth_points(variant, n=40):
    """Blue-detuned operating linewidth vs photon number, 1% noise."""
    rng = _rng("points", variant)
    g_om = rng.uniform(1.0e5, 1.5e5)
    gamma_mi = rng.uniform(7e6, 10e6)
    n_c = np.geomspace(1e4, 1e5, n)
    gam = gamma_mi - 4 * n_c * g_om ** 2 / KAPPA_O
    gam = gam * (1 + 0.01 * rng.standard_normal(n))
    return n_c, gam, {"g_om": g_om, "gamma_mi": gamma_mi}


def trace_csv(x, y, x_unit="hz", y_unit="lin"):
    """CSV text in the program's two-column trace format."""
    rows = [f"{x_unit},{y_unit}"]
    rows += [f"{a:.17g},{b:.17g}" for a, b in zip(x.tolist(), y.tolist())]
    return "\n".join(rows) + "\n"
