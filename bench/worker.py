"""The benchmark's numpy-side helper, run as a child process of run.py.

    python3 bench/worker.py gen WORKLOAD CHOICE_JSON DIR
    python3 bench/worker.py hostref
    python3 bench/worker.py fingerprint FILE...
    python3 bench/worker.py library CHOICE_JSON SECONDS
    python3 bench/worker.py trace WORKLOAD CHOICE_JSON DIR SECONDS

Each prints one JSON document on stdout. ``library`` is the warm
library_compute process; ``trace`` runs a workload's requests in one
process, alternating plain passes and passes with spans installed
(CLI requests go through ``transducersim.cli.main(argv)``).
"""

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import probe
import workloads as wl

SAMPLES = 9       # sampled rows per column, and sampled columns of wide tables


# ------------------------------------------------------------------ inputs

def write_inputs(workload, choice, root):
    """Write a CLI workload's input files under root/in; return the truths."""
    c = choice
    files, truth = {}, {}
    if workload == "link_cli":
        files["bits_coh.txt"] = gen.bits(c["bits_coh"], wl.LINK_BITS, 0) + "\n"
        files["bits_th.txt"] = gen.bits(c["bits_th"], wl.LINK_BITS, 1) + "\n"
        f, r, truth["dip"] = gen.dip(c["dip"], wl.SMALL_POINTS)
        files["dip_small.csv"] = gen.trace_csv(f, r)
    elif workload == "analysis_cli":
        n = wl.TRACE_POINTS
        files["device.cfg"] = gen.device_text(c["device"])
        f, y, truth["lorentz"] = gen.lorentz(c["lorentz"], n)
        files["lorentz.csv"] = gen.trace_csv(f, y)
        f, r, truth["dip"] = gen.dip(c["dip"], n)
        files["dip.csv"] = gen.trace_csv(f, r)
        f, mag, ph, truth["phase"] = gen.phase(c["phase"], n)
        files["phase_mag.csv"] = gen.trace_csv(f, mag)
        files["phase_arg.csv"] = gen.trace_csv(f, ph, "hz", "rad")
        n_c, gam, truth["points"] = gen.linewidth_points(c["points"])
        files["linewidth.csv"] = "n_c,gamma_hz\n" + "".join(
            f"{a:.17g},{b:.17g}\n" for a, b in zip(n_c.tolist(), gam.tolist()))
        files["bits_small.txt"] = gen.bits(c["bits_small"], wl.SMALL_BITS, 2) + "\n"
    else:
        raise ValueError(f"{workload} reads no files")
    os.makedirs(os.path.join(root, "in"), exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(root, "in", name), "w") as fh:
            fh.write(text)
    return truth


# ------------------------------------------------------------ fingerprints

def column_fp(values):
    v = np.asarray(values, dtype=float).ravel()
    idx = np.unique(np.linspace(0, v.size - 1, SAMPLES).round().astype(int))
    return {"sum": float(v.sum()), "abs_sum": float(np.abs(v).sum()),
            "min": float(v.min()), "max": float(v.max()),
            "samples": v[idx].tolist()}


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_fingerprint(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = {}
    picks = range(len(header)) if len(header) <= SAMPLES else \
        np.unique(np.linspace(0, len(header) - 1, SAMPLES).round().astype(int))
    for j in picks:
        cols[header[j]] = column_fp(data[:, j])
    if len(header) > SAMPLES:
        cols["*"] = column_fp(data)
    return {"sha": file_sha(path), "header": header, "rows": int(data.shape[0]),
            "cols": cols, "scalars": {}}


def _scalar(value):
    if isinstance(value, (bool, np.bool_, str)):
        return str(value)
    return float(value)


def values_sha(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        value = outputs[name]
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value, dtype=float).tobytes())
        else:
            h.update(repr(_scalar(value)).encode())
    return h.hexdigest()


def values_fingerprint(outputs):
    """Fingerprint of a library call's named arrays and scalars."""
    cols = {n: column_fp(v) for n, v in outputs.items() if isinstance(v, np.ndarray)}
    scalars = {n: _scalar(v) for n, v in outputs.items()
               if not isinstance(v, np.ndarray)}
    return {"sha": values_sha(outputs), "header": None, "rows": None,
            "cols": cols, "scalars": scalars}


# ------------------------------------------------------- library requests

def library_requests(choice):
    """{slot: zero-argument callable returning named outputs}, plus identities.

    Inputs are built here, before any timing; the callables touch no files.
    """
    import transducersim as ts
    from transducersim.deviceio import parse_device_text
    from transducersim.sweep import SweepSpec

    c = choice
    measured = ts.load_device("table1_measured")
    bundle = parse_device_text(gen.device_text(c["device"]))
    dev, pump, qubit, modes = bundle.device, bundle.pump, bundle.qubit, bundle.modes
    link = dict(rate=1e6, gamma_m=7.9e6, samples_per_bit=158)
    cfg_coh = ts.LinkConfig(bits=ts.parse_bits(gen.bits(c["bits_coh"], wl.LIB_LINK_BITS, 0)),
                            **link)
    cfg_th = ts.LinkConfig(bits=ts.parse_bits(gen.bits(c["bits_th"], wl.LIB_LINK_BITS, 1)),
                           drive_mode="thermal", noise_rms=float(wl.NOISE_RMS), **link)
    cfg_h = ts.LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6, samples_per_bit=160)

    n_c = ts.resolve_photon_number(dev, pump)
    n_th = ts.thermal_occupation(dev.f_m, 300.0)
    gmax = max(m.gamma for m in modes)
    grid = np.linspace(modes[0].f - 10 * gmax, modes[-1].f + 10 * gmax,
                       wl.LIB_SPECTRUM_POINTS)
    p_mu = ts.dbm_to_w(-22.0)

    mdev = measured.device
    principal = measured.modes[0]
    n_c_m = ts.resolve_photon_number(mdev, measured.pump)
    n_th_m = ts.thermal_occupation(mdev.f_m, 300.0)
    grid_m = np.linspace(principal.f - 10 * principal.gamma,
                         principal.f + 10 * principal.gamma, wl.LIB_SPECTRUM_POINTS)
    to_calibrate = ts.driven_spectrum(mdev, [principal], n_c_m, n_th_m, mdev.f_m,
                                      p_mu, 50e3, grid_m)

    g_em = ts.coupling_g_em(dev, qubit)
    t_rabi = np.linspace(0.0, 4.0 / g_em, 801)
    range_spec = SweepSpec.from_range("pump.n_c", 1e3, 1e5, wl.SWEEP_ROWS, "log",
                                      wl.SWEEP_QUANTITIES)
    zipped_spec = SweepSpec(
        targets=(("pump.n_c", tuple(np.geomspace(1e3, 1e5, wl.ZIPPED_ROWS).tolist())),
                 ("qubit.c_q", tuple(np.linspace(40e-15, 100e-15,
                                                 wl.ZIPPED_ROWS).tolist()))),
        quantities=("g_em", "c_em", "eta_tot", "z_q"))

    f, y, _ = gen.lorentz(c["lorentz"], wl.TRACE_POINTS)
    lorentz = ts.Trace(f, y)
    f, r, _ = gen.dip(c["dip"], wl.TRACE_POINTS)
    dip = ts.Trace(f, r)
    f, mag, ph, _ = gen.phase(c["phase"], wl.TRACE_POINTS)
    mag, ph = ts.Trace(f, mag), ts.Trace(f, ph, "hz", "rad")
    n_pts, gam, _ = gen.linewidth_points(c["points"])
    points = np.column_stack([n_pts, gam])

    def link_request(cfg, seed):
        run = ts.run_link(cfg, seed=seed)
        return {"i": run.i_trace.y, "q": run.q_trace.y,
                "envelope": run.envelope.y, **ts.link_metrics(run, cfg)}

    def fit_outputs(fit):
        return {**fit.params, "converged": fit.converged, "n_iter": fit.n_iter}

    def trace_out(tr):
        return {"y": tr.y}

    def rabi(lossless):
        qb, mech = ts.rabi_swap_sim(dev, qubit, t_rabi, lossless=lossless)
        return {"qubit": qb.y, "phonons": mech.y}

    def sweep(spec):
        rows = ts.run_sweep(spec, bundle)
        return {name: np.array([row[name] for row in rows]) for name in rows[0]}

    def calibrate():
        cal = ts.calibrate_coherent_phonons(to_calibrate, n_th_m)
        return {"n_coh": cal.n_coh, "coherent_area": cal.coherent_area,
                "thermal_area": cal.thermal_area, "significant": cal.significant}

    requests = {
        "link_coh": lambda: link_request(cfg_coh, c["bits_coh"]),
        "link_th": lambda: link_request(cfg_th, c["bits_th"]),
        "link_harmonic": lambda: trace_out(ts.harmonic_spectrum(cfg_h, 0.5e6, 512)),
        "spectrum_soe": lambda: trace_out(ts.s_oe_spectrum(dev, modes, pump, grid)),
        "spectrum_driven": lambda: trace_out(ts.driven_spectrum(
            dev, modes, n_c, n_th, dev.f_m, p_mu, 50e3, grid)),
        "spectrum_calibrate": calibrate,
        "swap_lossy": lambda: rabi(False),
        "swap_lossless": lambda: rabi(True),
        "sweep_range": lambda: sweep(range_spec),
        "sweep_zipped": lambda: sweep(zipped_spec),
        "fit_lorentz": lambda: fit_outputs(ts.fit_lorentzian_multi(lorentz, 3)),
        "fit_dip": lambda: fit_outputs(ts.fit_optical_dip(dip, branch="under")),
        "fit_phase": lambda: fit_outputs(ts.fit_phase_detuning(mag, ph, dev)),
        "fit_linewidth": lambda: fit_outputs(ts.fit_linewidth_vs_photons(
            points, "blue", gen.KAPPA_O)),
    }

    def identities(outputs):
        """Acceptance identities, evaluated once after timing."""
        gamma_op = ts.total_mech_linewidth(mdev, 1.0e4, "blue")
        single = ts.MechanicalMode(f=mdev.f_m, gamma=gamma_op, g=mdev.g_om,
                                   gamma_e=mdev.gamma_me)
        pump_1e4 = ts.PumpState(detuning=mdev.f_m, n_c=1.0e4)
        s2 = float(ts.s_oe_spectrum(mdev, [single], pump_1e4,
                                    np.array([mdev.f_m])).y[0]) ** 2
        truth_coh = ts.steady_state_coherent_phonons(principal, p_mu, mdev.f_m)
        lossless = outputs["swap_lossless"]
        return {"soe_eta": [s2, ts.total_efficiency(mdev, pump_1e4, "blue")],
                "lossless_swap": [float(lossless["qubit"][50]),
                                  float(lossless["phonons"][50])],
                "calibration": [float(outputs["spectrum_calibrate"]["n_coh"]),
                                truth_coh]}

    return requests, identities


def library_truths(choice):
    return {"lorentz": gen.lorentz(choice["lorentz"], wl.TRACE_POINTS)[2],
            "dip": gen.dip(choice["dip"], wl.TRACE_POINTS)[2],
            "phase": gen.phase(choice["phase"], wl.TRACE_POINTS)[3],
            "points": gen.linewidth_points(choice["points"])[2]}


# ------------------------------------------------------------------ passes

def _cli_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def run_pass(workload, ops, requests):
    """One pass: ((wall, CPU) seconds, {slot: [(wall, CPU) of each repeat]},
    {slot: last result}, [CPU of the host probe run before each request]).
    CPU is this process's time.process_time(); the probe is outside the
    pass's times."""
    if workload == "library_compute":
        def call(op):
            return requests[op["slot"]]()
    else:
        from transducersim import cli

        def call(op):
            return _cli_call(cli.main, op["argv"])   # cli.main looked up per call
    latency, results, probes = {}, {}, []
    wall = cpu = 0.0
    for op in (op for r in wl.rounds(ops) for op in r):
        probes.append(host_ref())
        t0, c0 = time.perf_counter(), time.process_time()
        results[op["slot"]] = call(op)
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        latency.setdefault(op["slot"], []).append((dt, dc))
        wall, cpu = wall + dt, cpu + dc
    return (wall, cpu), latency, results, probes


def cmd_library(choice, seconds):
    """Warm library_compute process: one warm-up pass, then timed passes."""
    ops = wl.ops("library_compute", choice)
    requests, identities = library_requests(choice)
    run_pass("library_compute", ops, requests)
    deadline = time.perf_counter() + seconds
    totals, latencies, shas, probes = [], [], [], []
    while True:
        results = None      # free the last pass's outputs: peak RSS is one pass's
        total, latency, results, probe_cpu = run_pass("library_compute", ops,
                                                      requests)
        totals.append(total)
        latencies.append(latency)
        probes += probe_cpu
        shas.append({slot: values_sha(out) for slot, out in results.items()})
        if time.perf_counter() + statistics.median(t[0] for t in totals) > deadline:
            break
    return {"totals": totals, "latencies": latencies, "shas": shas,
            "probes": probes,
            "fingerprints": {s: values_fingerprint(o) for s, o in results.items()},
            "identities": identities(results)}


def import_time(runs=5):
    """Median time to import transducersim (numpy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import transducersim; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(runs))


def cmd_trace(workload, choice, root, seconds):
    """Alternate plain and traced in-process passes for `seconds`."""
    from spans import Tracer, layer_metrics

    os.chdir(root)
    ops = wl.ops(workload, choice)
    requests = identities = None
    if workload == "library_compute":
        requests, identities = library_requests(choice)
    tracer = Tracer(run_id=f"{workload}-{os.getpid()}-{time.time_ns()}")
    run_pass(workload, ops, requests)                         # warm-up
    deadline = time.perf_counter() + seconds
    plain, traced, layers = [], [], []
    while not traced or time.perf_counter() + plain[-1] + traced[-1] < deadline:
        plain.append(run_pass(workload, ops, requests)[0][0])
        tracer.reset()
        tracer.install()
        try:
            (wall, _), _, results, _ = run_pass(workload, ops, requests)
        finally:
            tracer.uninstall()
        traced.append(wall)
        layers.append(layer_metrics(tracer.spans, tracer.calls, wall))
    names = sorted({k for layer in layers for k in layer})
    mean = {k: statistics.fmean(layer.get(k, 0.0) for layer in layers)
            for k in names}
    mean.update({"import.busy_s": import_time(),
                 "trace.wall_s": statistics.fmean(traced),
                 "trace.plain_wall_s": statistics.fmean(plain),
                 "trace.passes": len(traced),
                 "trace.spans_per_pass": len(tracer.spans)})
    mean["trace.overhead_s"] = mean["trace.wall_s"] - mean["trace.plain_wall_s"]
    out = {"layers": mean}
    if workload == "library_compute":
        out["fingerprints"] = {s: values_fingerprint(o) for s, o in results.items()}
        out["identities"] = identities(results)
    else:
        out["cli"] = {slot: {"code": code, "stdout": text}
                      for slot, (code, text) in results.items()}
    return out


def host_ref():
    """CPU seconds of the host probes in this process; they track the host's speed."""
    c0 = time.process_time()
    probe.work()
    return time.process_time() - c0


def main(argv):
    cmd = argv[0]
    if cmd == "gen":
        workload, choice, root = argv[1], json.loads(argv[2]), argv[3]
        truth = library_truths(choice) if workload == "library_compute" \
            else write_inputs(workload, choice, root)
        result = {"truth": truth}
        result["numpy"] = np.__version__
    elif cmd == "hostref":
        result = {"host_ref_s": host_ref()}
    elif cmd == "fingerprint":
        result = [csv_fingerprint(p) for p in argv[1:]]
    elif cmd == "library":
        result = cmd_library(json.loads(argv[1]), float(argv[2]))
    elif cmd == "trace":
        result = cmd_trace(argv[1], json.loads(argv[2]), argv[3], float(argv[4]))
    else:
        raise SystemExit(f"unknown command {cmd!r}")
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
