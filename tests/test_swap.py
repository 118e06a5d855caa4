import math
from dataclasses import replace

import numpy as np
import pytest

from transducersim import (QubitConfig, SamplingError, coupling_g_em,
                           qubit_impedance, rabi_swap_sim, swap_feasibility)

from conftest import relerr


@pytest.fixture(scope="module")
def qubit(measured):
    return measured.qubit


def test_qubit_impedance(dev, qubit):
    assert relerr(qubit_impedance(qubit, dev), 525.0) < 0.01


def test_qubit_impedance_limits(dev, qubit):
    bare = replace(dev, c_idt=0.0)
    assert relerr(qubit_impedance(qubit, bare),
                  1.0 / (2 * math.pi * qubit.f_mu * qubit.c_q)) < 1e-12
    doubled = QubitConfig(c_q=2 * (qubit.c_q + dev.c_idt) - dev.c_idt,
                          f_mu=qubit.f_mu, kappa_mu=qubit.kappa_mu)
    assert relerr(qubit_impedance(doubled, dev),
                  qubit_impedance(qubit, dev) / 2) < 1e-12


def test_coupling_measured_device(dev, qubit):
    assert relerr(coupling_g_em(dev, qubit), 0.8e6) < 0.05


def test_coupling_initial_simulation():
    from transducersim import load_device
    sim = load_device("table1_sim_initial")
    assert relerr(coupling_g_em(sim.device, sim.qubit), 3.6e6) < 0.05


def test_coupling_unit_impedance_ratio(dev, qubit):
    z_q = qubit_impedance(qubit, dev)
    matched = replace(dev, z0=z_q)
    assert relerr(coupling_g_em(matched, qubit),
                  0.5 * math.sqrt(dev.gamma_me * dev.f_m)) < 1e-12


def test_coupling_scaling_laws(dev, qubit):
    rng = np.random.default_rng(20)
    for _ in range(20):
        s = rng.uniform(0.2, 5.0)
        scaled_gme = replace(dev, gamma_me=s * dev.gamma_me)
        assert relerr(coupling_g_em(scaled_gme, qubit),
                      math.sqrt(s) * coupling_g_em(dev, qubit)) < 1e-12
        scaled_z0 = replace(dev, z0=dev.z0 / s)   # Z_q/Z_0 grows by s
        assert relerr(coupling_g_em(scaled_z0, qubit),
                      math.sqrt(s) * coupling_g_em(dev, qubit)) < 1e-12


def test_swap_feasibility_measured(dev, qubit):
    at_threshold = replace(dev, gamma_mi=3e6)
    rep = swap_feasibility(at_threshold, qubit)
    assert relerr(rep.threshold_gamma, 3e6) < 0.10
    assert rep.feasible                      # 3 MHz sits just under 4 g_em
    assert relerr(rep.c_em, 0.7) < 0.15


def test_swap_feasibility_initial_simulation():
    from transducersim import load_device
    sim = load_device("table1_sim_initial")
    at_threshold = replace(sim.device, gamma_mi=14e6)
    rep = swap_feasibility(at_threshold, sim.qubit)
    assert relerr(rep.threshold_gamma, 14e6) < 0.10
    assert relerr(rep.c_em, 3.0) < 0.15


def test_swap_infeasible_without_coupling(dev, qubit):
    rep = swap_feasibility(replace(dev, gamma_me=0.0), qubit)
    assert not rep.feasible
    assert rep.c_em == 0.0


def test_swap_feasibility_monotone_in_loss(dev, qubit):
    was_feasible = True
    for gamma_mi in np.geomspace(1e5, 1e8, 25):
        rep = swap_feasibility(replace(dev, gamma_mi=gamma_mi), qubit)
        if not was_feasible:
            assert not rep.feasible
        was_feasible = rep.feasible


def test_cooperativity_algebraic_round_trip(dev, qubit):
    rep = swap_feasibility(dev, qubit)
    assert relerr(rep.c_em * dev.gamma_m * qubit.kappa_mu / 4.0,
                  rep.g_em ** 2) < 1e-12


# ----------------------------------------------------------------- Rabi swap

def analytic_two_mode(dev, qubit, t, lossless=False):
    """Oracle: eigendecomposition of the 2x2 non-Hermitian generator."""
    g = coupling_g_em(dev, qubit)
    kappa = 0.0 if lossless else qubit.kappa_mu
    gamma = 0.0 if lossless else dev.gamma_mi
    m = np.array([[-math.pi * kappa, -1j * 2 * math.pi * g],
                  [-1j * 2 * math.pi * g, -math.pi * gamma]])
    w, v = np.linalg.eig(m)
    c = np.linalg.solve(v, np.array([1.0, 0.0], dtype=complex))
    states = (v * c) @ np.exp(np.outer(w, t))
    return np.abs(states[0]) ** 2, np.abs(states[1]) ** 2


def test_rabi_lossless_period(dev, qubit):
    g = coupling_g_em(dev, qubit)
    t = np.linspace(0.0, 2.0 / g, 4001)
    q_exc, phonons = rabi_swap_sim(dev, qubit, t, lossless=True)
    period = 1.0 / (2.0 * g)                   # 625 ns for 0.8 MHz
    k = int(np.argmin(np.abs(t - period)))
    assert q_exc.y[k] > 1.0 - 1e-3             # full exchange and back
    # measured oscillation frequency from the first full revival
    revival = t[100 + int(np.argmax(q_exc.y[100:]))]
    assert relerr(1.0 / revival, 2.0 * g) < 0.01


def test_rabi_first_swap_time(dev, qubit):
    g = coupling_g_em(dev, qubit)
    t = np.linspace(0.0, 1.0 / g, 4001)
    q_exc, phonons = rabi_swap_sim(dev, qubit, t, lossless=True)
    k = int(np.argmin(np.abs(t - 1.0 / (4.0 * g))))
    assert q_exc.y[k] < 1e-3
    assert phonons.y[k] > 1.0 - 1e-3


def test_rabi_lossless_conserves_excitation(dev, qubit):
    t = np.linspace(0.0, 2e-6, 801)
    q_exc, phonons = rabi_swap_sim(dev, qubit, t, lossless=True)
    assert np.max(np.abs(q_exc.y + phonons.y - 1.0)) < 1e-6


def test_rabi_damped_matches_analytic_diagonalization(dev, qubit):
    g = coupling_g_em(dev, qubit)
    critical = replace(dev, gamma_mi=4.0 * g)   # swap condition boundary
    t = np.linspace(0.0, 1.0 / g, 1601)
    q_exc, phonons = rabi_swap_sim(critical, qubit, t)
    q_ref, m_ref = analytic_two_mode(critical, qubit, t)
    k = int(np.argmin(np.abs(t - 1.0 / (4.0 * g))))
    assert abs(phonons.y[k] - m_ref[k]) < 0.01 * m_ref[k]
    assert np.max(np.abs(q_exc.y - q_ref)) < 1e-4
    assert np.max(np.abs(phonons.y - m_ref)) < 1e-4


@pytest.mark.parametrize("step", [5e-324, 1e-318, 1e-200])
def test_rabi_tiny_time_step_is_the_initial_state(dev, qubit, step):
    # sinh(W t)/W rounds to t: numpy's complex division of a subnormal
    # W t by itself overflows, and must not be reached
    q_exc, phonons = rabi_swap_sim(dev, qubit, [0.0, step])
    assert q_exc.y.tolist() == [1.0, 1.0]
    assert phonons.y.tolist() == [0.0, 0.0]


def test_rabi_exceptional_point_stays_finite(dev, qubit):
    # kappa_mu = 4 g_em and gamma_mi = 8 g_em make the generator defective:
    # W^2 = (pi*(gamma_mi - kappa_mu)/2)^2 - (2*pi*g_em)^2 = 0 exactly
    g = coupling_g_em(dev, qubit)
    ep_qubit = replace(qubit, kappa_mu=4.0 * g)
    ep_dev = replace(dev, gamma_mi=8.0 * g)
    m = np.array([[-math.pi * 4.0 * g, -1j * 2 * math.pi * g],
                  [-1j * 2 * math.pi * g, -math.pi * 8.0 * g]])
    w = np.linalg.eigvals(m)
    assert abs(w[0] - w[1]) < 1e-6 * abs(w[0])   # one repeated eigenvalue
    t = np.linspace(0.0, 2.0 / g, 801)
    mu = np.trace(m) / 2
    # e^(mu t) (I + t (M - mu I)) [1, 0]
    state = np.exp(mu * t) * (np.array([[1.0], [0.0]])
                              + t * (m - mu * np.eye(2))[:, :1])
    # at the point, and a few ulps off it where W is tiny but nonzero and
    # sinh(W t)/W must not be a difference of nearly equal exponentials
    for gamma_mi in (8.0 * g, 8.0 * g * (1 + 1e-15)):
        q_exc, phonons = rabi_swap_sim(replace(ep_dev, gamma_mi=gamma_mi),
                                       ep_qubit, t)
        assert np.all(np.isfinite(q_exc.y)) and np.all(np.isfinite(phonons.y))
        assert np.max(np.abs(q_exc.y - np.abs(state[0]) ** 2)) < 1e-12
        assert np.max(np.abs(phonons.y - np.abs(state[1]) ** 2)) < 1e-12


def test_rabi_grid_starting_after_zero(dev, qubit):
    g = coupling_g_em(dev, qubit)
    lossy = replace(dev, gamma_mi=3e6)
    full = np.linspace(0.0, 2.0 / g, 801)
    late = full[200:]
    q_full, m_full = rabi_swap_sim(lossy, qubit, full)
    q_late, m_late = rabi_swap_sim(lossy, qubit, late)
    q_ref, m_ref = analytic_two_mode(lossy, qubit, late)
    assert np.max(np.abs(q_late.y - q_ref)) < 1e-10
    assert np.max(np.abs(m_late.y - m_ref)) < 1e-10
    assert np.max(np.abs(q_late.y - q_full.y[200:])) < 1e-14
    assert np.max(np.abs(m_late.y - m_full.y[200:])) < 1e-14


def test_rabi_zero_coupling_decay(dev, qubit):
    uncoupled = replace(dev, gamma_me=0.0)
    t = np.linspace(0.0, 1e-6, 401)
    q_exc, phonons = rabi_swap_sim(uncoupled, qubit, t)
    assert np.allclose(phonons.y, 0.0, atol=1e-30)
    expected = np.exp(-2 * math.pi * qubit.kappa_mu * t)
    assert np.max(np.abs(q_exc.y - expected)) < 1e-6


def test_rabi_grid_aliasing_guard(dev, qubit):
    g = coupling_g_em(dev, qubit)
    t = np.linspace(0.0, 100.0 / g, 51)        # steps of 2/g, far too coarse
    with pytest.raises(SamplingError):
        rabi_swap_sim(dev, qubit, t)
