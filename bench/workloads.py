"""The benchmark's workloads: which operations one pass runs, on which inputs.

A pass is a fixed sequence of requests. Every request has a *kind*
(link, spectrum, fit, sweep, swap), and every workload contains every
kind, so each per-kind latency is defined on each workload; the kinds a
workload is not about run at small, default sizes.

- link_cli: ``transducersim link --bits-file`` on long random bit arrays
  at default sampling (158 samples per bit at 1 Mbit/s, gamma_m 7.9 MHz),
  one coherent and one thermal ``--noise-rms`` run per pass. The CSV
  writers and the CLI's row building dominate; ``run_link`` is a small
  share. The eye CSV is ~500 columns wide and the IQ table 3 wide.
- analysis_cli: ``spectrum`` writing 2e5-point traces, ``fit`` reading
  2e5-point noisy traces, a 2e4-row ``sweep --out`` and ``swap
  --rabi-out``, on a generated three-mode device file. The trace format
  is written and parsed here; ``link`` does next to no work.
- library_compute: one warm process calling the library on in-memory
  inputs: the kernels do the work and ``deviceio`` does none.

This module is plain Python (no numpy) so the timing parent stays small.
"""

import random

VARIANTS = 4          # variants per input group, all recorded in reference.json

LINK_BITS = 1000      # bits per CLI link request
LIB_LINK_BITS = 10000 # bits per library run_link request
SMALL_BITS = 48
TRACE_POINTS = 200_000
LIB_SPECTRUM_POINTS = 400_000
SMALL_POINTS = 4001
SWEEP_ROWS = 20_000
ZIPPED_ROWS = 5_000
NOISE_RMS = "0.05"
LINK_ARGS = ["--rate", "1e6", "--gamma-m", "7.9e6"]
SWEEP_QUANTITIES = ["eta_tot", "c_om", "gamma_tot", "gamma_om", "n_c"]

WORKLOADS = ("link_cli", "analysis_cli", "library_compute")
KINDS = ("link", "spectrum", "fit", "sweep", "swap")

# input groups whose variant the seed picks, per workload
GROUPS = {
    "link_cli": ("bits_coh", "bits_th", "dip"),
    "analysis_cli": ("device", "dip", "points", "bits_small"),
    "library_compute": ("bits_coh", "bits_th", "device", "dip", "points"),
}
# Groups every seed uses the same variant of: the Gauss-Newton path of the
# Lorentzian and phase fits on 2e5 points, and with it their peak RSS (98 to
# 130 MB), changes with the noise realization, which would otherwise make
# peak_rss_mb depend on the seed.
FIXED = {"lorentz": 0, "phase": 0}


def choose(workload, seed):
    """Variant per input group: the only thing the seed decides."""
    rng = random.Random(f"{workload}:{seed}")
    return {**FIXED, **{g: rng.randrange(VARIANTS) for g in GROUPS[workload]}}


def _op(slot, kind, deps, choice, repeat=1, **fields):
    """One request of a pass, run `repeat` times (small requests repeat so
    that their medians rest on as many samples as the big ones)."""
    key = slot + "".join(f":{g}{choice[g]}" for g in deps)
    return dict(slot=slot, kind=kind, key=key, repeat=repeat, **fields)


def _link(slot, group, bits_file, choice, extra=(), repeat=1):
    prefix = f"out/{slot}"
    argv = ["--seed", str(choice.get(group, 0)), "link", "--bits-file",
            bits_file, *LINK_ARGS, *extra, "--out-prefix", prefix]
    return _op(slot, "link", [group] if group in choice else [], choice,
               argv=argv, repeat=repeat,
               outputs=[f"{prefix}_{n}.csv" for n in ("envelope", "iq", "eye")])


def cli_ops(workload, choice):
    """The CLI requests of one pass, with relative paths (cwd = work dir)."""
    c = choice
    if workload == "link_cli":
        return [
            _link("link_coh", "bits_coh", "in/bits_coh.txt", c),
            _link("link_th", "bits_th", "in/bits_th.txt", c,
                  ["--drive-mode", "thermal", "--noise-rms", NOISE_RMS]),
            _op("spectrum_small", "spectrum", [], c, repeat=3,
                argv=["spectrum", "soe", "--device", "table1_measured",
                      "--out", "out/soe_small.csv"],
                outputs=["out/soe_small.csv"]),
            _op("fit_dip_small", "fit", ["dip"], c, repeat=3,
                argv=["fit", "dip", "--trace", "in/dip_small.csv",
                      "--branch", "under"], truth="dip"),
            _op("sweep_small", "sweep", [], c, repeat=3,
                argv=["sweep", "--device", "table1_measured", "--param",
                      "pump.n_c", "--start", "1e3", "--stop", "1e5",
                      "--count", "50", "--scale", "log", "--quantity",
                      "eta_tot", "--quantity", "c_om",
                      "--out", "out/sweep_small.csv"],
                outputs=["out/sweep_small.csv"]),
            _op("swap_small", "swap", [], c, repeat=3,
                argv=["swap", "--device", "table1_measured", "--gamma-mi",
                      "3e6", "--rabi-out", "out/rabi_small.csv"],
                outputs=["out/rabi_small.csv"]),
        ]
    if workload == "analysis_cli":
        dev = ["--device", "in/device.cfg"]
        pts = ["--points", str(TRACE_POINTS)]
        quantities = [a for q in SWEEP_QUANTITIES for a in ("--quantity", q)]
        return [
            _op("spectrum_soe", "spectrum", ["device"], c,
                argv=["spectrum", "soe", *dev, *pts, "--out", "out/soe.csv"],
                outputs=["out/soe.csv"]),
            _op("spectrum_thermal", "spectrum", ["device"], c,
                argv=["spectrum", "thermal", *dev, *pts,
                      "--out", "out/thermal.csv"],
                outputs=["out/thermal.csv"]),
            _op("spectrum_driven", "spectrum", ["device"], c,
                argv=["spectrum", "driven", *dev, "--power-mu", "-22dbm",
                      *pts, "--out", "out/driven.csv"],
                outputs=["out/driven.csv"]),
            _op("fit_lorentz", "fit", ["lorentz"], c,
                argv=["fit", "lorentz", "--trace", "in/lorentz.csv",
                      "--n-peaks", "3"], truth="lorentz"),
            _op("fit_dip", "fit", ["dip"], c,
                argv=["fit", "dip", "--trace", "in/dip.csv", "--branch",
                      "under"], truth="dip"),
            _op("fit_phase", "fit", ["phase"], c,
                argv=["fit", "phase", "--mag", "in/phase_mag.csv", "--phase",
                      "in/phase_arg.csv", *dev], truth="phase"),
            _op("fit_linewidth", "fit", ["points"], c, repeat=2,
                argv=["fit", "linewidth", "--points", "in/linewidth.csv",
                      "--sign", "blue", "--kappa-o", "2.11e9"],
                truth="points"),
            _op("sweep_range", "sweep", ["device"], c, repeat=3,
                argv=["sweep", *dev, "--param", "pump.n_c", "--start", "1e3",
                      "--stop", "1e5", "--count", str(SWEEP_ROWS), "--scale",
                      "log", *quantities, "--out", "out/sweep.csv"],
                outputs=["out/sweep.csv"]),
            _op("swap_lossy", "swap", ["device"], c, repeat=2,
                argv=["swap", *dev, "--gamma-mi", "3e6",
                      "--rabi-out", "out/rabi.csv"],
                outputs=["out/rabi.csv"]),
            _op("swap_lossless", "swap", ["device"], c, repeat=2,
                argv=["swap", *dev, "--rabi-out", "out/rabi_lossless.csv",
                      "--lossless"],
                outputs=["out/rabi_lossless.csv"], identity="lossless_swap"),
            _link("link_small", "bits_small", "in/bits_small.txt", c, repeat=3),
        ]
    raise ValueError(f"{workload} has no CLI requests")


def library_ops(choice):
    """The library requests of one library_compute pass (run by worker.py)."""
    c = choice
    return [
        _op("link_coh", "link", ["bits_coh"], c),
        _op("link_th", "link", ["bits_th"], c),
        _op("link_harmonic", "link", [], c),
        _op("spectrum_soe", "spectrum", ["device"], c),
        _op("spectrum_driven", "spectrum", ["device"], c),
        _op("spectrum_calibrate", "spectrum", [], c),
        _op("swap_lossy", "swap", ["device"], c),
        _op("swap_lossless", "swap", ["device"], c),
        _op("sweep_range", "sweep", ["device"], c),
        _op("sweep_zipped", "sweep", ["device"], c),
        _op("fit_lorentz", "fit", ["lorentz"], c, truth="lorentz"),
        _op("fit_dip", "fit", ["dip"], c, truth="dip"),
        _op("fit_phase", "fit", ["phase"], c, truth="phase"),
        _op("fit_linewidth", "fit", ["points"], c, truth="points"),
    ]


def rounds(requests):
    """A pass in the order it runs: rounds, each running once every request
    with repeats left, so a request's runs spread over the pass and a host
    slowdown of a few seconds does not fall on all of them."""
    n = max(op["repeat"] for op in requests)
    return [[op for op in requests if op["repeat"] > r] for r in range(n)]


def ops(workload, choice):
    """One pass of `workload`; each request's key names its reference entry."""
    requests = library_ops(choice) if workload == "library_compute" \
        else cli_ops(workload, choice)
    for op in requests:
        op["key"] = f"{workload}/{op['key']}"
    return requests


def all_choices(workload):
    """Choices that together use every variant of every group (for recording)."""
    return [{**FIXED, **{g: v for g in GROUPS[workload]}} for v in range(VARIANTS)]
