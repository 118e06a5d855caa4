import math

import numpy as np
import pytest

from transducersim import LinkRun, Trace, load_device


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
