"""Conversion-efficiency chain of the bundled transducer.

Walks the full efficiency budget at the published operating point and
sweeps the on-chip pump power to show how cooperativity and total
efficiency scale. Writes demo_output/efficiency_vs_power.csv and, when
matplotlib is available, a matching PNG.
"""

import os

import numpy as np

from transducersim import (PumpState, backaction_rate, cooperativity,
                           dbm_to_w, efficiencies, load_device,
                           resolve_photon_number, total_efficiency,
                           total_mech_linewidth, w_to_dbm)
from transducersim.deviceio import write_columns

OUT_DIR = os.environ.get("DEMO_OUT", "demo_output")


def print_chain(dev, pump):
    n_c = resolve_photon_number(dev, pump)
    eta_o, eta_em = efficiencies(dev, dev.gamma_m)
    print(f"on-chip power        {w_to_dbm(pump.p_on_chip):8.2f} dBm")
    print(f"intracavity photons  {n_c:12.4g}")
    print(f"backaction rate      {backaction_rate(dev, n_c):12.4g} Hz")
    print(f"operating linewidth  {total_mech_linewidth(dev, n_c, 'blue'):12.4g} Hz")
    print(f"C_om                 {cooperativity(dev, n_c, dev.gamma_m):12.4g}")
    print(f"eta_oc               {dev.eta_oc:12.4g}")
    print(f"eta_o                {eta_o:12.4g}")
    print(f"eta_em               {eta_em:12.4g}")
    print(f"eta_tot              {total_efficiency(dev, pump, 'blue'):12.4g}")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    bundle = load_device("table1_measured")
    dev = bundle.device

    print("== operating point of the bundled device ==")
    print_chain(dev, PumpState(detuning=dev.f_m, p_on_chip=dbm_to_w(-7.9)))

    powers_dbm = np.linspace(-15.0, 0.0, 31)
    rows = []
    for p_dbm in powers_dbm:
        pump = PumpState(detuning=dev.f_m, p_on_chip=dbm_to_w(p_dbm))
        n_c = resolve_photon_number(dev, pump)
        rows.append([p_dbm, n_c, cooperativity(dev, n_c, dev.gamma_m),
                     total_efficiency(dev, pump, "blue"),
                     total_efficiency(dev, pump, "red")])
    table = np.array(rows)
    path = os.path.join(OUT_DIR, "efficiency_vs_power.csv")
    write_columns(path, ["p_on_chip_dbm", "n_c", "c_om", "eta_tot_blue",
                         "eta_tot_red"], [table])
    print(f"\nwrote {path}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(5, 3.4))
    ax.semilogy(powers_dbm, table[:, 3], label="blue")
    ax.semilogy(powers_dbm, table[:, 4], "--", label="red")
    ax.set_xlabel("on-chip pump power (dBm)")
    ax.set_ylabel("total conversion efficiency")
    ax.legend()
    fig.tight_layout()
    fig.savefig(os.path.join(OUT_DIR, "efficiency_vs_power.png"), dpi=150)
    print(f"wrote {os.path.join(OUT_DIR, 'efficiency_vs_power.png')}")


if __name__ == "__main__":
    main()
