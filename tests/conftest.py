import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from transducersim import (EyeDiagram, LinkRun, ParameterError, Trace,
                           TraceError, backaction_rate, cooperativity,
                           coupling_g_em, efficiencies, load_device,
                           qubit_impedance, resolve_photon_number,
                           sideband_rate, steady_state_coherent_phonons,
                           swap_feasibility, thermal_occupation,
                           total_efficiency, total_mech_linewidth)
from transducersim.core import DeviceParams, require
from transducersim.link import EXTINCTION_CAP
from transducersim.spectra import _pole, lumped_mode


@pytest.fixture(scope="session")
def measured():
    return load_device("table1_measured")


@pytest.fixture(scope="session")
def dev(measured):
    return measured.device


def relerr(value, reference):
    return abs(value / reference - 1.0)


def random_device(rng):
    return DeviceParams(
        f_o=rng.uniform(150e12, 250e12),
        kappa_o=(ko := rng.uniform(0.5e9, 5e9)),
        kappa_oe=ko * rng.uniform(0.05, 0.95),
        f_m=rng.uniform(1e9, 8e9),
        gamma_mi=rng.uniform(1e5, 5e7),
        gamma_me=rng.uniform(1.0, 1e4),
        g_om=rng.uniform(1e4, 5e5),
        eta_oc=rng.uniform(0.05, 0.9),
        c_idt=rng.uniform(0.1e-15, 2e-15),
        z0=50.0)


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


def _reference_transitions(bits):
    return [j for j in range(1, len(bits)) if bits[j] != bits[j - 1]]


def reference_eye(run, cfg):
    """eye_diagram as the per-transition loops computed it, bit for bit."""
    spb = cfg.samples_per_bit
    trans = _reference_transitions(cfg.bits)
    if len(trans) < 2:
        raise ParameterError("need at least 2 transitions for an eye diagram")
    env = run.envelope.y
    rows, pre, post = [], [], []
    for j in trans:
        c = j * spb
        rows.append(env[c - spb: c + spb + 1])
        pre.append(cfg.bits[j - 1])
        post.append(cfg.bits[j])
    segments = np.array(rows)
    t_rel = (np.arange(2 * spb + 1) - spb) / cfg.sample_rate

    half = spb // 2
    highs, lows = [], []
    for row, b_pre, b_post in zip(segments, pre, post):
        for idx, bit in ((half, b_pre), (spb + half, b_post)):
            (highs if bit else lows).append(row[idx])
    opening = max(0.0, float(np.min(highs) - np.max(lows)))
    mean_low = float(np.mean(lows))
    mean_high = float(np.mean(highs))
    if mean_low <= mean_high / EXTINCTION_CAP:
        extinction = EXTINCTION_CAP
    else:
        extinction = min(mean_high / mean_low, EXTINCTION_CAP)
    return EyeDiagram(t_rel, segments, opening, extinction)


def reference_ring_segments(run, cfg):
    """ring_segments as the per-transition loop computed it."""
    spb = cfg.samples_per_bit
    bits = cfg.bits
    trans = _reference_transitions(bits) + [len(bits)]
    best = {"ringup": (0, None), "ringdown": (0, None)}
    for a, b in zip(trans[:-1], trans[1:]):
        kind = "ringup" if bits[a] == 1 else "ringdown"
        length = b - a
        if length > best[kind][0]:
            sl = slice(a * spb, b * spb + 1)
            best[kind] = (length, Trace(run.time[sl], run.envelope.y[sl],
                                        "s", "v", label=kind))
    return best["ringup"][1], best["ringdown"][1]


# ------------------------------------------------ sweep reference (oracle)

def _reference_quantity(name, bundle, temperature, p_mu):
    """One quantity of one row, from scalar records and the core formulas."""
    dev, pump, qubit = bundle.device, bundle.pump, bundle.qubit
    mode = bundle.modes[0] if bundle.modes else lumped_mode(dev)
    n_c = lambda: resolve_photon_number(dev, pump)
    phonons = lambda: steady_state_coherent_phonons(mode, p_mu, mode.f)
    return {
        "n_c": n_c,
        "gamma_om": lambda: backaction_rate(dev, n_c()),
        "gamma_tot": lambda: total_mech_linewidth(dev, n_c(), pump.sign),
        "c_om": lambda: cooperativity(dev, n_c(), dev.gamma_m),
        "eta_o": lambda: efficiencies(dev, dev.gamma_m)[0],
        "eta_em": lambda: efficiencies(dev, dev.gamma_m)[1],
        "eta_tot": lambda: total_efficiency(dev, pump, pump.sign),
        "n_th": lambda: thermal_occupation(dev.f_m, temperature),
        "coherent_phonons": phonons,
        "coherent_peak_area": lambda: phonons() * sideband_rate(
            mode, n_c(), dev.kappa_o),
        "z_q": lambda: qubit_impedance(qubit, dev),
        "g_em": lambda: coupling_g_em(dev, qubit),
        "c_em": lambda: swap_feasibility(dev, qubit).c_em,
        "threshold_gamma": lambda: swap_feasibility(dev, qubit).threshold_gamma,
    }[name]()


def reference_sweep(spec, bundle, temperature=300.0, drive_p_mu=None):
    """run_sweep as the per-row loop computed it: replace the records for
    each row, check its temperature and drive power, then call core on
    scalars."""
    rows = []
    for i in range(spec.n_rows):
        b, temp, p_mu, row = bundle, temperature, drive_p_mu, {}
        for path, values in spec.targets:
            head, _, field = path.partition(".")
            row[path] = value = float(values[i])
            if head == "temperature":
                temp = value
            elif head == "drive":
                p_mu = value
            else:
                changes = {field: value}
                if head == "pump" and field != "detuning":
                    changes["p_on_chip" if field == "n_c" else "n_c"] = None
                b = replace(b, **{head: replace(getattr(b, head), **changes)})
        require(positive={"temperature": temp}, nonnegative={"drive.p_mu": p_mu})
        for name in spec.quantities:
            row[name] = float(_reference_quantity(name, b, temp, p_mu))
        rows.append(row)
    return rows


# ------------------------------------------- trace CSV reference (oracle)

def reference_read_trace(path):
    """read_trace as the per-line loop computed it, error messages included;
    a file that is not UTF-8 raises the UnicodeDecodeError."""
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise TraceError(f"{path}: empty file")
    header = [tok.strip() for tok in lines[0].split(",")]
    if len(header) != 2 or any(not tok for tok in header):
        raise TraceError(f"{path}:1: header must be 'x_unit,y_unit' "
                         f"(got {lines[0]!r})")
    xs, ys, line_nos = [], [], []
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if any(bad in line for bad in (";", "\t")) or line.count(",") != 1:
            raise TraceError(f"{path}:{no}: expected two comma-separated "
                             f"values (got {line!r})")
        a, b = line.split(",")
        try:
            x, y = float(a), float(b)
        except ValueError:
            raise TraceError(f"{path}:{no}: cannot parse numbers in {line!r}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TraceError(f"{path}:{no}: non-finite value")
        xs.append(x)
        ys.append(y)
        line_nos.append(no)
    if not xs:
        raise TraceError(f"{path}: no data rows")
    for i in range(1, len(xs)):
        if xs[i] <= xs[i - 1]:
            raise TraceError(f"{path}:{line_nos[i]}: x values must be "
                             "strictly increasing")
    return Trace(np.array(xs), np.array(ys), header[0], header[1])


# ------------------------------------------- fit models (oracle)

def reference_dip(f, y, p):
    """_dip's (r, J), J from separate columns and np.column_stack."""
    f_o, kappa, e = p
    x = f - f_o
    x2 = 4.0 * x ** 2
    D = kappa ** 2 + x2
    one_me = 1.0 - e
    dR_dfo = -8.0 * x * kappa ** 2 * one_me / D ** 2
    dR_dk = -2.0 * kappa * x2 * one_me / D ** 2
    dR_de = kappa ** 2 / D
    return (e * kappa ** 2 + x2) / D - y, \
        np.column_stack([dR_dfo, dR_dk, dR_de])


def reference_phase(f, z, gain, kappa_o, p):
    """_phase's (r, J), both built with np.concatenate, J then with
    np.column_stack."""
    delta, a_re, a_im = p
    pole = _pole(f, delta, kappa_o)
    r = (a_re + 1j * a_im) * (gain / pole) - z
    m = gain / pole
    dm = (a_re + 1j * a_im) * ((-1j * 2 * np.pi) * gain / pole ** 2)
    return np.concatenate([r.real, r.imag]), np.column_stack([
        np.concatenate([dm.real, dm.imag]),
        np.concatenate([m.real, m.imag]),
        np.concatenate([-m.imag, m.real]),
    ])


def reference_lorentz(f, y, u, n_peaks, p):
    """_lorentz's (r, J), J from separate columns and np.column_stack."""
    r = np.full(f.size, p[3 * n_peaks])
    if u is not None:
        r = r + p[3 * n_peaks + 1] * u
    cols = []
    for k in range(n_peaks):
        c, g, a = p[3 * k: 3 * k + 3]
        hw = 0.5 * g
        r = r + a * (hw / np.pi) / ((f - c) ** 2 + hw ** 2)
        denom = (f - c) ** 2 + hw ** 2
        d_c = a * (hw / np.pi) * 2.0 * (f - c) / denom ** 2
        d_g = (a / (2 * np.pi)) * ((f - c) ** 2 - hw ** 2) / denom ** 2
        d_a = (hw / np.pi) / denom
        cols.extend([d_c, d_g, d_a])
    cols.append(np.ones_like(f))
    if u is not None:
        cols.append(u)
    return r - y, np.column_stack(cols)


# ------------------------------------------- drive peak (oracle)

def reference_deposit_peak(f, y, center, width, area):
    """driven_spectrum's drive peak as the whole-grid formula computes it:
    every cell adds its overlap, 0 for the cells the rectangle misses."""
    if area == 0.0:
        return
    edges = np.concatenate(([f[0] - 0.5 * (f[1] - f[0])],
                            0.5 * (f[:-1] + f[1:]),
                            [f[-1] + 0.5 * (f[-1] - f[-2])])) \
        if f.size > 1 else np.array([center - width, center + width])
    lo, hi = center - 0.5 * width, center + 0.5 * width
    overlap = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo),
                      0.0, None)
    cells = np.diff(edges)
    with np.errstate(invalid="ignore"):
        y += np.where(cells > 0, area * (overlap / width) / cells, 0.0)
