import math
from dataclasses import replace

import numpy as np
import pytest

from transducersim import (LinkRun, Trace, backaction_rate, cooperativity,
                           coupling_g_em, efficiencies, load_device,
                           qubit_impedance, resolve_photon_number,
                           sideband_rate, steady_state_coherent_phonons,
                           swap_feasibility, thermal_occupation,
                           total_efficiency, total_mech_linewidth)
from transducersim.spectra import lumped_mode


@pytest.fixture(scope="session")
def measured():
    return load_device("table1_measured")


@pytest.fixture(scope="session")
def dev(measured):
    return measured.device


def relerr(value, reference):
    return abs(value / reference - 1.0)


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: np.random.default_rng(seed)


# ------------------------------------------------- link reference (oracle)

def reference_drive(cfg, rng):
    """(d, u): the per-sample update beta <- d*beta + u[k] of a LinkConfig.

    The thermal drive draws from rng exactly as run_link does.
    """
    dt = 1.0 / cfg.sample_rate
    decay = math.exp(-math.pi * cfg.gamma_m * dt)
    n = len(cfg.bits) * cfg.samples_per_bit
    gate = np.repeat(np.asarray(cfg.bits, dtype=float), cfg.samples_per_bit)
    if cfg.drive_mode == "coherent":
        return decay, cfg.v0 * (1.0 - decay) * gate
    sigma = cfg.v0 * math.sqrt(max(1.0 - decay ** 2, 0.0) / 2.0)
    return decay, sigma * (rng.standard_normal(n)
                           + 1j * rng.standard_normal(n)) * gate


def reference_beta(decay, u):
    """The per-sample loop that run_link's closed form replaces."""
    beta, b = np.zeros(u.size + 1, dtype=complex), 0.0 + 0.0j
    for k in range(u.size):
        b = b * decay + u[k]
        beta[k + 1] = b
    return beta


def reference_run(cfg, seed=0):
    """run_link as the per-sample loop computed it, bit for bit."""
    rng = np.random.default_rng(seed)
    beta = reference_beta(*reference_drive(cfg, rng))
    t = np.arange(beta.size) * (1.0 / cfg.sample_rate)
    v_det = beta * np.exp(1j * 2 * np.pi * cfg.f_if * t)
    i_sig, q_sig = v_det.real, v_det.imag
    if cfg.noise_rms > 0:
        i_sig = i_sig + cfg.noise_rms * rng.standard_normal(t.size)
        q_sig = q_sig + cfg.noise_rms * rng.standard_normal(t.size)
    return LinkRun(time=t, beta=beta,
                   i_trace=Trace(t, i_sig, "s", "v", label="I"),
                   q_trace=Trace(t, q_sig, "s", "v", label="Q"),
                   envelope=Trace(t, np.hypot(i_sig, q_sig), "s", "v",
                                  label="|V_det|"))


# ------------------------------------------------ sweep reference (oracle)

def _reference_quantity(name, bundle, temperature, p_mu):
    """One quantity of one row, from scalar records and the core formulas."""
    dev, pump, qubit = bundle.device, bundle.pump, bundle.qubit
    mode = bundle.modes[0] if bundle.modes else lumped_mode(dev)
    n_c = lambda: resolve_photon_number(dev, pump)
    phonons = lambda: steady_state_coherent_phonons(mode, p_mu, mode.f)
    return {
        "n_c": n_c,
        "gamma_om": lambda: backaction_rate(dev, n_c()),
        "gamma_tot": lambda: total_mech_linewidth(dev, n_c(), pump.sign),
        "c_om": lambda: cooperativity(dev, n_c(), dev.gamma_m),
        "eta_o": lambda: efficiencies(dev, dev.gamma_m)[0],
        "eta_em": lambda: efficiencies(dev, dev.gamma_m)[1],
        "eta_tot": lambda: total_efficiency(dev, pump, pump.sign),
        "n_th": lambda: thermal_occupation(dev.f_m, temperature),
        "coherent_phonons": phonons,
        "coherent_peak_area": lambda: phonons() * sideband_rate(
            mode, n_c(), dev.kappa_o),
        "z_q": lambda: qubit_impedance(qubit, dev),
        "g_em": lambda: coupling_g_em(dev, qubit),
        "c_em": lambda: swap_feasibility(dev, qubit).c_em,
        "threshold_gamma": lambda: swap_feasibility(dev, qubit).threshold_gamma,
    }[name]()


def reference_sweep(spec, bundle, temperature=300.0, drive_p_mu=None):
    """run_sweep as the per-row loop computed it: replace the records for
    each row, then call core on scalars."""
    rows = []
    for i in range(spec.n_rows):
        b, temp, p_mu, row = bundle, temperature, drive_p_mu, {}
        for path, values in spec.targets:
            head, _, field = path.partition(".")
            row[path] = value = float(values[i])
            if head == "temperature":
                temp = value
            elif head == "drive":
                p_mu = value
            else:
                changes = {field: value}
                if head == "pump" and field != "detuning":
                    changes["p_on_chip" if field == "n_c" else "n_c"] = None
                b = replace(b, **{head: replace(getattr(b, head), **changes)})
        for name in spec.quantities:
            row[name] = float(_reference_quantity(name, b, temp, p_mu))
        rows.append(row)
    return rows
