"""Bit-array transmission, eye diagrams, and the square-wave spectrum.

Sends a 48-bit NRZ array through the mechanical channel at two bit
rates, overlays the eyes, fits the ring-up/ring-down edges, and
computes the odd-harmonic spectrum of a 0.5 MHz square drive.
"""

import os

from transducersim import (LinkConfig, eye_diagram, fit_ring,
                           harmonic_spectrum, run_link, write_trace)
from transducersim.deviceio import write_eye
from transducersim.link import ring_segments

OUT_DIR = os.environ.get("DEMO_OUT", "demo_output")
BITS = tuple(int(b) for b in
             "110100101100111011000101001111001010110001110100")
GAMMA_M = 7.9e6


def run_rate(rate, noise=0.02):
    cfg = LinkConfig(bits=BITS, rate=rate, gamma_m=GAMMA_M, noise_rms=noise)
    run = run_link(cfg, seed=11)
    eye = eye_diagram(run, cfg)
    up, down = ring_segments(run, cfg)
    print(f"R = {rate / 1e6:5.1f} Mbit/s: eye opening {eye.opening:6.3f}, "
          f"extinction {eye.extinction_ratio:9.3g}, "
          f"ring-down gamma {fit_ring(down, 'ringdown').params['gamma_m']:.3g} Hz")
    return cfg, run, eye


def save_eye(eye, tag):
    path = os.path.join(OUT_DIR, f"eye_{tag}.csv")
    write_eye(eye, path)
    print(f"wrote {path}")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    runs = {}
    for rate in (1e6, 10e6):
        cfg, run, eye = run_rate(rate)
        tag = f"{rate / 1e6:g}mbps"
        write_trace(run.envelope, os.path.join(OUT_DIR, f"envelope_{tag}.csv"))
        save_eye(eye, tag)
        runs[rate] = (cfg, run, eye)

    cfg_sq = LinkConfig(bits=(1, 0), rate=1e6, gamma_m=GAMMA_M,
                        samples_per_bit=160)
    spec = harmonic_spectrum(cfg_sq, f0=0.5e6, n_periods=64)
    write_trace(spec, os.path.join(OUT_DIR, "square_wave_psd.csv"))
    print(f"wrote {os.path.join(OUT_DIR, 'square_wave_psd.csv')}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, axes = plt.subplots(1, 2, figsize=(8, 3.2), sharey=True)
    for ax, rate in zip(axes, (1e6, 10e6)):
        _, _, eye = runs[rate]
        for seg in eye.segments:
            ax.plot(eye.t * 1e6, seg, color="tab:blue", alpha=0.25, lw=0.7)
        ax.set_title(f"{rate / 1e6:g} Mbit/s")
        ax.set_xlabel("time (us)")
    axes[0].set_ylabel("|V_det| (V)")
    fig.tight_layout()
    fig.savefig(os.path.join(OUT_DIR, "eye_diagrams.png"), dpi=150)
    print(f"wrote {os.path.join(OUT_DIR, 'eye_diagrams.png')}")


if __name__ == "__main__":
    main()
