"""Qubit-swap feasibility and Rabi exchange dynamics.

Evaluates the resonator-boosted electromechanical coupling for the
measured device and the initial design simulation, reports the swap
thresholds, and integrates the damped two-mode exchange.
"""

import os
from dataclasses import replace

import numpy as np

from transducersim import load_device, rabi_swap_sim, swap_feasibility
from transducersim.deviceio import write_columns

OUT_DIR = os.environ.get("DEMO_OUT", "demo_output")


def report(name, bundle, gamma_mi_cryo):
    dev = replace(bundle.device, gamma_mi=gamma_mi_cryo)
    rep = swap_feasibility(dev, bundle.qubit)
    print(f"\n== {name} (cryogenic gamma_mi = {gamma_mi_cryo / 1e6:g} MHz) ==")
    print(f"  Z_q            {rep.z_q:10.1f} Ohm")
    print(f"  g_em           {rep.g_em / 1e6:10.3f} MHz")
    print(f"  threshold      {rep.threshold_gamma / 1e6:10.3f} MHz")
    print(f"  feasible       {rep.feasible!s:>10s}")
    print(f"  C_em           {rep.c_em:10.3f}")
    return dev, rep


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    measured = load_device("table1_measured")
    sim_init = load_device("table1_sim_initial")

    dev, rep = report("measured device", measured, gamma_mi_cryo=3e6)
    report("initial design simulation", sim_init, gamma_mi_cryo=14e6)

    t = np.linspace(0.0, 3.0 / rep.g_em, 1601)
    qu_damped, ph_damped = rabi_swap_sim(dev, measured.qubit, t)
    qu_ideal, ph_ideal = rabi_swap_sim(dev, measured.qubit, t, lossless=True)
    path = os.path.join(OUT_DIR, "rabi_exchange.csv")
    write_columns(path, ["t_s", "qubit_damped", "phonons_damped",
                         "qubit_lossless", "phonons_lossless"],
                  [t, qu_damped.y, ph_damped.y, qu_ideal.y, ph_ideal.y])
    print(f"\nwrote {path}")
    print(f"first swap completes near t = {1 / (4 * rep.g_em) * 1e9:.0f} ns")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(6, 3.2))
    ax.plot(t * 1e6, qu_damped.y, label="qubit (damped)")
    ax.plot(t * 1e6, ph_damped.y, label="phonons (damped)")
    ax.plot(t * 1e6, qu_ideal.y, "--", lw=0.8, label="qubit (lossless)")
    ax.set_xlabel("time (us)")
    ax.set_ylabel("excitation")
    ax.legend()
    fig.tight_layout()
    fig.savefig(os.path.join(OUT_DIR, "rabi_exchange.png"), dpi=150)
    print(f"wrote {os.path.join(OUT_DIR, 'rabi_exchange.png')}")


if __name__ == "__main__":
    main()
