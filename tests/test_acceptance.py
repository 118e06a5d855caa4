"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they execute. Every tolerance is pinned here, not configurable.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from transducersim import (LinkConfig, MechanicalMode, PumpState, Trace,
                           backaction_rate, calibrate_coherent_phonons,
                           cooperativity, coupling_g_em, dbm_to_w,
                           driven_spectrum, efficiencies, eye_diagram,
                           fit_linewidth_vs_photons, fit_lorentzian_multi,
                           fit_optical_dip, fit_phase_detuning, fit_ring,
                           gamma_me_from_phonons, harmonic_spectrum,
                           load_device, mech_susceptibility, photon_number,
                           qubit_impedance, run_link, s_oe_spectrum,
                           swap_feasibility, thermal_occupation,
                           total_efficiency, total_mech_linewidth, write_trace)
from transducersim.cli import main as cli_main
from transducersim.deviceio import resolve_device_path
from transducersim.link import ring_segments

MEASURED = load_device("table1_measured")
SIM_INITIAL = load_device("table1_sim_initial")
N_TH_300K = thermal_occupation(4.32e9, 300.0)


def rel(value, reference):
    return abs(value / reference - 1.0)


def report(number, label, checks):
    ok = all(bool(c) for c, _ in checks)
    print(f"[ACCEPTANCE {number:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    for good, detail in checks:
        if not good:
            print(f"    failed: {detail}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_eta_em():
    dev = MEASURED.device
    _, eta_em = efficiencies(dev, dev.gamma_m)
    report(1, "eta_em = 7e-6 within 5%", [
        (rel(eta_em, 7e-6) < 0.05, f"eta_em = {eta_em:.4g}"),
    ])


def test_criterion_02_eta_tot():
    dev = MEASURED.device
    pump = PumpState(detuning=dev.f_m, n_c=1.0e4)
    eta = total_efficiency(dev, pump, "blue")
    report(2, "eta_tot = 1.5e-7 within 10%", [
        (rel(eta, 1.5e-7) < 0.10, f"eta_tot = {eta:.4g}"),
    ])


def test_criterion_03_photon_number():
    dev = MEASURED.device
    n_79 = photon_number(dev, dev.f_m, dbm_to_w(-7.9))
    n_50 = photon_number(dev, dev.f_m, dbm_to_w(-5.0))
    report(3, "photon number calibration", [
        (rel(n_79, 1.0e4) < 0.05, f"n_c(-7.9 dBm) = {n_79:.4g}"),
        (rel(n_50, 1.8e4) < 0.15, f"n_c(-5 dBm) = {n_50:.4g}"),
    ])


def test_criterion_04_backaction():
    dev = MEASURED.device
    g_om = backaction_rate(dev, 1.8e4)
    g_tot = total_mech_linewidth(dev, 1.8e4, "blue")
    report(4, "backaction at n_c = 1.8e4", [
        (rel(g_om, 540e3) < 0.10, f"gamma_om = {g_om:.4g} Hz"),
        (rel(g_tot, 7.9e6) < 0.05, f"gamma_tot = {g_tot:.4g} Hz"),
    ])


def test_criterion_05_cooperativity():
    dev = MEASURED.device
    c_om = cooperativity(dev, 1.8e4, dev.gamma_m)
    report(5, "C_om = 0.07 within 5%", [
        (rel(c_om, 0.07) < 0.05, f"C_om = {c_om:.4g}"),
    ])


def test_criterion_06_optical_quality_factor():
    dev = MEASURED.device
    f = np.linspace(dev.f_o - 3 * dev.kappa_o, dev.f_o + 3 * dev.kappa_o, 4001)
    d2 = (1 - 2 * dev.kappa_oe / dev.kappa_o) ** 2
    refl = (d2 * dev.kappa_o ** 2 + 4 * (f - dev.f_o) ** 2) \
        / (dev.kappa_o ** 2 + 4 * (f - dev.f_o) ** 2)
    rng = np.random.default_rng(61)
    fit = fit_optical_dip(Trace(f, refl + 0.005 * rng.standard_normal(f.size)),
                          branch="under")
    q_oi = fit.params["f_o"] / fit.params["kappa_oi"]
    report(6, "Q_oi = 1.7e5 within 3%", [
        (fit.converged, "dip fit did not converge"),
        (rel(q_oi, 1.7e5) < 0.03, f"Q_oi = {q_oi:.5g}"),
    ])


def test_criterion_07_swap_calculator():
    dev, qubit = MEASURED.device, MEASURED.qubit
    sim_dev, sim_qubit = SIM_INITIAL.device, SIM_INITIAL.qubit
    z_q = qubit_impedance(qubit, dev)
    g_meas = coupling_g_em(dev, qubit)
    g_sim = coupling_g_em(sim_dev, sim_qubit)
    rep_meas = swap_feasibility(replace(dev, gamma_mi=3e6), qubit)
    rep_sim = swap_feasibility(replace(sim_dev, gamma_mi=14e6), sim_qubit)
    report(7, "qubit-swap calculator", [
        (rel(z_q, 525.0) < 0.01, f"Z_q = {z_q:.4g} Ohm"),
        (rel(g_meas, 0.8e6) < 0.05, f"g_em(measured) = {g_meas:.4g} Hz"),
        (rel(g_sim, 3.6e6) < 0.05, f"g_em(sim init) = {g_sim:.4g} Hz"),
        (rel(rep_meas.threshold_gamma, 3e6) < 0.10,
         f"threshold = {rep_meas.threshold_gamma:.4g} Hz"),
        (rel(rep_sim.threshold_gamma, 14e6) < 0.10,
         f"threshold(sim) = {rep_sim.threshold_gamma:.4g} Hz"),
        (rel(rep_meas.c_em, 0.7) < 0.15, f"C_em = {rep_meas.c_em:.4g}"),
        (rel(rep_sim.c_em, 3.0) < 0.15, f"C_em(sim) = {rep_sim.c_em:.4g}"),
    ])


def test_criterion_08_calibration_round_trip():
    dev = MEASURED.device
    n_c = 1.0e4
    gamma_op = total_mech_linewidth(dev, n_c, "blue")
    mode = MechanicalMode(f=dev.f_m, gamma=gamma_op, g=dev.g_om,
                          gamma_e=58.0)
    p_mu = dbm_to_w(-22.0)
    grid = np.linspace(dev.f_m - 60e6, dev.f_m + 60e6, 9601)
    clean = driven_spectrum(dev, [mode], n_c, N_TH_300K, dev.f_m, p_mu,
                            50e3, grid)
    peak = 2 * N_TH_300K * backaction_rate(dev, n_c) / (np.pi * gamma_op)
    sigma = peak * 10 ** (-30 / 20)            # SNR 30 dB on the thermal peak
    rng = np.random.default_rng(81)
    noisy = Trace(grid, clean.y + sigma * rng.standard_normal(grid.size),
                  rbw=50e3)
    cal = calibrate_coherent_phonons(noisy, N_TH_300K)
    gamma_me = gamma_me_from_phonons(cal.n_coh, dev.f_m, gamma_op, p_mu)
    report(8, "thermal-peak calibration recovers gamma_me within 5%", [
        (cal.significant, "drive peak not significant"),
        (rel(gamma_me, 58.0) < 0.05, f"gamma_me = {gamma_me:.4g} Hz"),
    ])


def _fit_errors(noise, seed):
    dev = MEASURED.device
    errs = {}
    f_o, ko, koe = 194.9e12, 2.1e9, 0.99e9
    f = np.linspace(f_o - 3 * ko, f_o + 3 * ko, 4001)
    d2 = (1 - 2 * koe / ko) ** 2
    refl = (d2 * ko ** 2 + 4 * (f - f_o) ** 2) / (ko ** 2 + 4 * (f - f_o) ** 2)
    rng = np.random.default_rng(seed)
    fit = fit_optical_dip(Trace(f, refl + noise * rng.standard_normal(f.size)),
                          branch="under")
    errs["dip"] = max(rel(fit.params["f_o"], f_o),
                      rel(fit.params["kappa_o"], ko),
                      rel(fit.params["kappa_oe"], koe))

    fs = np.linspace(-8e9, 8e9, 2001)
    z = (0.7 - 0.2j) * (2 * np.pi * koe * mech_susceptibility(fs, 4.32e9, ko))
    z = z + noise * np.max(np.abs(z)) * (rng.standard_normal(fs.size)
                                         + 1j * rng.standard_normal(fs.size))
    fit = fit_phase_detuning(Trace(fs, np.abs(z)), Trace(fs, np.angle(z)), dev)
    errs["phase"] = rel(fit.params["detuning"], 4.32e9)

    n_c = np.geomspace(1e4, 2e5, 12)
    gam = (8.4e6 - 4 * n_c * 130e3 ** 2 / ko) \
        * (1 + noise * rng.standard_normal(n_c.size))
    fit = fit_linewidth_vs_photons(np.column_stack([n_c, gam]), "blue", ko)
    errs["linewidth"] = max(rel(fit.params["g_om"], 130e3),
                            rel(fit.params["gamma_mi"], 8.4e6))

    x = np.linspace(4.2e9, 4.45e9, 3001)
    y = 3.0 + 5e9 * (8.4e6 / 2 / np.pi) / ((x - 4.32e9) ** 2 + (8.4e6 / 2) ** 2)
    fit = fit_lorentzian_multi(
        Trace(x, y + noise * (np.max(y) - 3.0) * rng.standard_normal(x.size)), 1)
    errs["lorentz"] = max(rel(fit.params["f_1"], 4.32e9),
                          rel(fit.params["gamma_1"], 8.4e6),
                          rel(fit.params["area_1"], 5e9))
    return errs


def test_criterion_09_fit_recovery():
    by_level = {noise: _fit_errors(noise, seed=91)
                for noise in (1e-2, 1e-3, 1e-4)}
    checks = []
    for name in ("dip", "phase", "linewidth", "lorentz"):
        worst = by_level[1e-2][name]
        checks.append((worst < 0.03, f"{name}: {worst:.4f} at 1% noise"))
        seq = [by_level[n][name] for n in (1e-2, 1e-3, 1e-4)]
        checks.append((seq[0] >= seq[1] >= seq[2],
                       f"{name}: errors not monotone {seq}"))
    report(9, "all four fitters recover within 3%, tightening with noise",
           checks)


def test_criterion_10_link_dynamics():
    checks = []
    # isolated-step envelope against the closed-form ring-up
    cfg = LinkConfig(bits=(0, 1, 1, 1, 1, 1, 1, 1), rate=2e6, gamma_m=7.9e6,
                     samples_per_bit=128)
    run = run_link(cfg)
    spb = cfg.samples_per_bit
    t = run.time[spb:] - run.time[spb]
    amp = np.abs(run.beta[spb:])
    n_m = amp ** 2
    expected = (1 - np.exp(-math.pi * cfg.gamma_m * t)) ** 2
    checks.append((np.max(np.abs(n_m - expected)) < 1e-10,
                   "step does not follow the ring-up law"))
    # ring-down fit of the trailing edge of an isolated one
    cfg2 = LinkConfig(bits=(0, 0, 1, 0, 0, 0, 0, 0), rate=10e6,
                      gamma_m=9.25e6, samples_per_bit=64)
    run2 = run_link(cfg2)
    _, down = ring_segments(run2, cfg2)
    fit = fit_ring(down, "ringdown")
    checks.append((rel(fit.params["gamma_m"], 9.25e6) < 0.02,
                   f"ring-down gamma = {fit.params['gamma_m']:.4g}"))
    # eye opening monotone over the bit-rate ladder
    bits = tuple(int(b) for b in
                 "110100101100111011000101001111001010110001110100")
    openings = []
    for rate in (1e6, 3e6, 10e6, 30e6):
        spb = max(8, int(math.ceil(20 * 7.9e6 / rate)),
                  int(math.ceil(2.5 * 50e6 / rate)))
        c = LinkConfig(bits=bits, rate=rate, gamma_m=7.9e6,
                       samples_per_bit=spb)
        openings.append(eye_diagram(run_link(c), c).opening)
    checks.append((all(a >= b - 1e-12 for a, b in zip(openings, openings[1:])),
                   f"openings not monotone: {openings}"))
    checks.append((openings[2] < 0.75 * openings[0],
                   f"no degradation between 1 and 10 Mbit/s: {openings}"))
    report(10, "bit-array link dynamics", checks)


def test_criterion_11_harmonic_spectrum():
    gamma, f0 = 7.9e6, 0.5e6
    cfg = LinkConfig(bits=(1, 0), rate=2 * f0, gamma_m=gamma,
                     samples_per_bit=160)
    spec = harmonic_spectrum(cfg, f0, n_periods=64)
    df = float(spec.x[1] - spec.x[0])

    def power(k):
        return sum(float(spec.y[int(np.argmin(np.abs(spec.x - s * k * f0)))])
                   for s in (1, -1)) * df

    def chi_sq(f):
        return 1.0 / ((2 * math.pi * f) ** 2 + (math.pi * gamma) ** 2)

    p1, p2, p3, p4 = power(1), power(2), power(3), power(4)
    expected = (1.0 / 9.0) * chi_sq(3 * f0) / chi_sq(f0)
    checks = [
        (10 * math.log10(p2 / p1) < -30, "2nd harmonic above -30 dBc"),
        (10 * math.log10(p4 / p1) < -30, "4th harmonic above -30 dBc"),
        (rel(p3 / p1, expected) < 0.10,
         f"P3/P1 = {p3 / p1:.4g} vs {expected:.4g}"),
    ]
    report(11, "square-wave harmonic spectrum", checks)


def test_criterion_12_multimode_transduction_substitute():
    dev = MEASURED.device
    pump = PumpState(detuning=dev.f_m, n_c=1.0e4)
    modes = [
        MechanicalMode(f=4.20e9, gamma=6e6, g=1.0e5, phi=0.0, gamma_e=40.0),
        MechanicalMode(f=4.28e9, gamma=8e6, g=1.0e5, phi=0.0, gamma_e=40.0),
        MechanicalMode(f=4.36e9, gamma=7e6, g=1.3e5, phi=math.pi, gamma_e=58.0),
        MechanicalMode(f=4.44e9, gamma=9e6, g=0.7e5, phi=math.pi, gamma_e=20.0),
    ]
    grid = np.linspace(4.15e9, 4.50e9, 7001)
    tr = s_oe_spectrum(dev, modes, pump, grid)
    checks = []
    # a transduction peak at every mode
    for m in modes:
        near = np.abs(grid - m.f) < m.gamma
        around = np.abs(grid - m.f) < 4 * m.gamma
        checks.append((tr.y[near].max() > 2 * np.median(tr.y[around]),
                       f"no peak near {m.f:.3g} Hz"))
    # interference dip where the two same-phi modes' contributions oppose
    mid = 0.5 * (modes[0].f + modes[1].f)
    za = np.exp(1j * modes[0].phi) * mech_susceptibility(mid, modes[0].f,
                                                         modes[0].gamma)
    zb = np.exp(1j * modes[1].phi) * mech_susceptibility(mid, modes[1].f,
                                                         modes[1].gamma)
    checks.append((np.cos(np.angle(za) - np.angle(zb)) < -0.5,
                   "contributions not opposed at the midpoint"))
    near_mid = np.abs(grid - mid) < 4e6
    pair = s_oe_spectrum(dev, modes[:2], pump, grid).y
    tail_a = s_oe_spectrum(dev, [modes[0]], pump, grid).y
    tail_b = s_oe_spectrum(dev, [modes[1]], pump, grid).y
    checks.append((pair[near_mid].min() < 0.8 * tail_a[near_mid].min()
                   and pair[near_mid].min() < 0.8 * tail_b[near_mid].min(),
                   "no interference dip between opposed contributions"))
    # single-mode consistency with the closed-form efficiency chain
    gamma_op = total_mech_linewidth(dev, 1.0e4, "blue")
    single = MechanicalMode(f=dev.f_m, gamma=gamma_op, g=dev.g_om,
                            gamma_e=dev.gamma_me)
    s2 = float(s_oe_spectrum(dev, [single], pump,
                             np.array([dev.f_m])).y[0]) ** 2
    eta = total_efficiency(dev, pump, "blue")
    checks.append((rel(s2, eta) < 0.01,
                   f"|S_oe|^2 = {s2:.4g} vs eta_tot = {eta:.4g}"))
    report(12, "multi-mode transduction spectrum (declared substitute)",
           checks)


def test_criterion_13_cli_determinism(tmp_path):
    measured_path = str(resolve_device_path("table1_measured"))
    recipes = [
        (["--seed", "7", "link", "--bits", "0101100111000101", "--rate",
          "1e6", "--gamma-m", "7.9e6", "--samples-per-bit", "160",
          "--noise-rms", "0.02", "--out-prefix", "{d}/link_{tag}"],
         ["link_{tag}_envelope.csv", "link_{tag}_eye.csv", "link_{tag}_iq.csv"]),
        (["spectrum", "driven", "--device", measured_path, "--power-mu",
          "-22dbm", "--out", "{d}/drv_{tag}.csv", "--points", "2001"],
         ["drv_{tag}.csv"]),
        (["sweep", "--device", measured_path, "--param", "pump.n_c",
          "--start", "1e3", "--stop", "3e4", "--count", "12", "--scale",
          "log", "--quantity", "eta_tot", "--quantity", "c_om",
          "--out", "{d}/sweep_{tag}.csv"],
         ["sweep_{tag}.csv"]),
    ]
    checks = []
    for argv_t, outputs in recipes:
        blobs = []
        for tag in ("a", "b"):
            argv = [a.replace("{d}", str(tmp_path)).replace("{tag}", tag)
                    for a in argv_t]
            code = cli_main(argv)
            checks.append((code == 0, f"exit {code} for {argv_t[0]}"))
            blobs.append(tuple((tmp_path / o.replace("{tag}", tag)).read_bytes()
                               for o in outputs))
        checks.append((blobs[0] == blobs[1],
                       f"outputs differ for {' '.join(argv_t[:3])}"))
    report(13, "CLI byte-identical under a fixed seed", checks)
