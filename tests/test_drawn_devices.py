"""Identities checked on seeded draws of whole device bundles, numpy only:
the device-file round trip, the lossless swap at t = 1/(4 g_em), and
single-mode |S_oe|^2 = eta_tot on resonance."""

import math
from dataclasses import replace

import numpy as np

from transducersim import (DeviceBundle, MechanicalMode, PumpState,
                           QubitConfig, backaction_rate, coupling_g_em,
                           parse_device, photon_number, rabi_swap_sim,
                           resolve_photon_number, s_oe_spectrum,
                           total_efficiency, write_device)
from transducersim.core import sign_factor
from transducersim.spectra import lumped_mode

from conftest import random_device, relerr

DRAWS = 300


def random_bundle(rng):
    """A bundle pumped on a sideband (detuning +-f_m, by n_c or by
    p_on_chip) below the blue threshold, with a qubit and 0 to 3 modes."""
    dev = random_device(rng)
    detuning = rng.choice([1.0, -1.0]) * dev.f_m
    n_c = rng.uniform(0.01, 0.9) * dev.gamma_mi / backaction_rate(dev, 1.0)
    if rng.random() < 0.5:
        pump = PumpState(detuning=detuning, n_c=n_c)
    else:
        pump = PumpState(detuning=detuning,
                         p_on_chip=n_c / photon_number(dev, detuning, 1.0))
    qubit = QubitConfig(c_q=rng.uniform(10e-15, 200e-15),
                        f_mu=rng.uniform(1e9, 8e9),
                        kappa_mu=rng.uniform(1e5, 1e7))
    modes = tuple(MechanicalMode(f=rng.uniform(1e9, 8e9),
                                 gamma=rng.uniform(1e5, 5e7),
                                 g=rng.uniform(0.0, 5e5),
                                 phi=rng.uniform(0.0, 2 * math.pi),
                                 gamma_e=rng.uniform(0.0, 1e4))
                  for _ in range(rng.integers(0, 4)))
    return DeviceBundle(dev, pump, qubit, modes)


def drawn_bundles(seed):
    rng = np.random.default_rng(seed)
    return [random_bundle(rng) for _ in range(DRAWS)]


def test_drawn_bundles_survive_a_device_file_round_trip(tmp_path):
    path = tmp_path / "drawn.cfg"
    for n, bundle in enumerate(drawn_bundles(30)):
        write_device(bundle, path)
        assert parse_device(path) == bundle, f"draw {n}: {bundle}"


def test_drawn_lossless_swap_is_complete_at_a_quarter_period():
    for n, bundle in enumerate(drawn_bundles(31)):
        g_em = coupling_g_em(bundle.device, bundle.qubit)
        t = np.linspace(0.0, 1.0 / (4.0 * g_em), 11)
        q_exc, phonons = rabi_swap_sim(bundle.device, bundle.qubit, t,
                                       lossless=True)
        assert q_exc.y[-1] < 1e-12 and phonons.y[-1] > 1.0 - 1e-12, \
            f"draw {n}: {bundle}"


def test_drawn_single_mode_conversion_on_resonance_is_eta_tot():
    for n, bundle in enumerate(drawn_bundles(32)):
        dev, pump = bundle.device, bundle.pump
        # the chain takes C at gamma_m = gamma_mi + gamma_me, so the mode
        # it describes has the linewidth gamma_m -/+ gamma_om
        gamma_om = backaction_rate(dev, resolve_photon_number(dev, pump))
        mode = replace(lumped_mode(dev),
                       gamma=dev.gamma_m - sign_factor(pump.sign) * gamma_om)
        s_oe = s_oe_spectrum(dev, [mode], pump, np.array([dev.f_m])).y[0]
        eta = total_efficiency(dev, pump, pump.sign)
        assert relerr(s_oe ** 2, eta) < 0.01, f"draw {n}: {bundle}"
