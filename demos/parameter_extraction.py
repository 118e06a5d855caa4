"""Round-trip parameter extraction on synthetic measurement traces.

Synthesizes the four standard traces (reflection dip, sideband phase
sweep, linewidth-vs-photons, multi-peak mechanical spectrum), adds
noise, runs each fitter, and prints recovered values against the truth.
"""

import numpy as np

from transducersim import (Trace, fit_linewidth_vs_photons,
                           fit_lorentzian_multi, fit_optical_dip,
                           fit_phase_detuning, load_device, mech_susceptibility)

RNG = np.random.default_rng(2024)
NOISE = 0.01


def show(name, fit, truths):
    print(f"\n== {name} ==")
    for key, truth in truths.items():
        got = fit.params[key]
        se = fit.stderr.get(key, float("nan"))
        print(f"  {key:12s} {got:14.6g} +/- {se:10.2g}"
              f"   truth {truth:12.6g}   err {abs(got / truth - 1):8.2e}")
    for note in fit.notes:
        print(f"  note: {note}")


def main():
    dev = load_device("table1_measured").device
    f_o, ko, koe = 194.9e12, 2.1e9, 0.99e9

    f = np.linspace(f_o - 3 * ko, f_o + 3 * ko, 4001)
    d2 = (1 - 2 * koe / ko) ** 2
    refl = (d2 * ko ** 2 + 4 * (f - f_o) ** 2) / (ko ** 2 + 4 * (f - f_o) ** 2)
    dip = Trace(f, refl + NOISE * RNG.standard_normal(f.size))
    show("optical reflection dip", fit_optical_dip(dip, branch="under"),
         {"f_o": f_o, "kappa_o": ko, "kappa_oe": koe})

    offsets = np.linspace(-8e9, 8e9, 2001)
    z = (0.7 - 0.2j) * (2 * np.pi * koe
                        * mech_susceptibility(offsets, 4.32e9, ko))
    z += NOISE * np.max(np.abs(z)) * (RNG.standard_normal(offsets.size)
                                      + 1j * RNG.standard_normal(offsets.size))
    show("sideband phase sweep",
         fit_phase_detuning(Trace(offsets, np.abs(z)),
                            Trace(offsets, np.angle(z)), dev),
         {"detuning": 4.32e9})

    n_c = np.geomspace(1e4, 2e5, 12)
    gamma = (8.4e6 - 4 * n_c * 130e3 ** 2 / ko) \
        * (1 + NOISE * RNG.standard_normal(n_c.size))
    show("linewidth vs photon number",
         fit_linewidth_vs_photons(np.column_stack([n_c, gamma]), "blue", ko),
         {"g_om": 130e3, "gamma_mi": 8.4e6})

    x = np.linspace(4.2e9, 4.45e9, 3001)
    peaks = [(4.28e9, 6e6, 4e9), (4.36e9, 9e6, 7e9)]
    y = np.full(x.size, 2.0)
    for c, g, a in peaks:
        y += a * (g / 2 / np.pi) / ((x - c) ** 2 + (g / 2) ** 2)
    spec = Trace(x, y + NOISE * (y.max() - 2.0) * RNG.standard_normal(x.size))
    fit = fit_lorentzian_multi(spec, 2)
    show("two-peak mechanical spectrum", fit,
         {"f_1": peaks[0][0], "gamma_1": peaks[0][1], "area_1": peaks[0][2],
          "f_2": peaks[1][0], "gamma_2": peaks[1][1], "area_2": peaks[1][2]})


if __name__ == "__main__":
    main()
