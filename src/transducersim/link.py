"""Classical bit-array transmission through the mechanical channel.

The RF carrier is never simulated: only the complex baseband envelope
of the mechanical mode is computed. The drive is constant within each
sample, so the first-order linear ODE has an exact solution: every bit
is propagated in closed form from its start value (a coherent bit is a
broadcast of exp(-pi*gamma_m*t); a thermal bit is a stable scan of its
noise samples), and only the bit-start values recur from bit to bit.
A 0-bit adds nothing to its start value's decay, so only the 1-bits'
responses are computed and scanned.
The detected quadratures oscillate at the intermediate frequency. The
carrier is factored into one phase per bit times one row of phases
within a bit, each reduced modulo one cycle, so it stays exact however
long the run; harmonic_spectrum runs at f_if = 0, where it is 1.
Additive Gaussian noise is applied on I and Q after demodulation with a
caller-seeded generator.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import range_errors, require, require_integer
from .errors import FitError, ParameterError, SamplingError
from .fitting import fit_ring
from .trace import Trace

EXTINCTION_CAP = 1e12
# largest square-wave run harmonic_spectrum simulates, in samples: about
# 2 GB across the run's arrays and its transform
HARMONIC_MAX_SAMPLES = 2 ** 24
# samples of the detected voltage run_link forms at once, in whole bit
# rows and at least one: 512 KiB of complex, unless one row is longer
_DEMOD_SAMPLES = 2 ** 15


def parse_bits(text: str) -> tuple:
    """'0101' -> (0, 1, 0, 1); whitespace is ignored."""
    cleaned = "".join(text.split())
    if not cleaned or any(c not in "01" for c in cleaned):
        raise ParameterError(f"bit string must be nonempty 0/1 (got {text!r})")
    return tuple(int(c) for c in cleaned)


@dataclass(frozen=True)
class LinkConfig:
    """NRZ link settings.

    bits:            binary sequence (0/1)
    rate:            bit rate, bit/s
    gamma_m:         total mechanical linewidth in operation, Hz
    f_if:            intermediate frequency, Hz (0 for pure baseband)
    v0:              drive amplitude, V; a settled 1 gives |V_det| = v0
    noise_rms:       additive demodulated noise per quadrature, V rms
    samples_per_bit: envelope samples per unit interval, >= 8 (default
                     max(32, ceil(20*gamma_m/rate), ceil(2.5*f_if/rate)));
                     SamplingError unless rate*samples_per_bit reaches
                     20*gamma_m, and 2*f_if when f_if > 0
    drive_mode:      "coherent" (phase-stable tone) or "thermal"
                     (white-noise bath gated by the bits)
    """

    bits: tuple
    rate: float
    gamma_m: float
    f_if: float = 50e6
    v0: float = 1.0
    noise_rms: float = 0.0
    samples_per_bit: int | None = None
    drive_mode: str = "coherent"

    def __post_init__(self):
        require_integer(samples_per_bit=self.samples_per_bit)
        bad = range_errors(self, positive=("rate", "gamma_m", "v0"),
                           nonnegative=("f_if", "noise_rms"))
        if not self.bits:
            bad.append("bits must be nonempty")
        elif any(b not in (0, 1) for b in self.bits):
            bad.append("bits must contain only 0 and 1")
        spb = self.samples_per_bit
        if spb is not None and spb < 8:
            bad.append(f"samples_per_bit must be >= 8 (got {spb!r})")
        if self.drive_mode not in ("coherent", "thermal"):
            bad.append(f"drive_mode must be 'coherent' or 'thermal' "
                       f"(got {self.drive_mode!r})")
        if bad:
            raise ParameterError("; ".join(bad))
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if spb is None:     # the ceil of the max is the max of the ceils
            spb = max(32.0, 20.0 * self.gamma_m / self.rate,
                      2.5 * self.f_if / self.rate)
            spb = math.ceil(spb) if spb < math.inf else spb  # inf fails below
            object.__setattr__(self, "samples_per_bit", spb)
        most = np.iinfo(np.intp).max // np.dtype(complex).itemsize
        # a run holds len(bits)*spb + 1 samples; compare spb with the
        # quotient, as the product would wrap for a numpy integer spb
        limit = (most - 1) // len(self.bits)
        if spb > limit:
            raise ParameterError(
                f"samples_per_bit must be <= {limit} "
                f"for {len(self.bits)} bits, or the run outgrows one array")
        if not float(self.rate) * float(spb) < math.inf:
            raise ParameterError(
                f"rate = {self.rate!r} bit/s times samples_per_bit = {spb} "
                f"gives a sample rate that overflows")
        fs = self.sample_rate
        if fs < 20.0 * self.gamma_m:
            raise SamplingError(
                f"sample rate {fs:.3g} Hz < 20 * gamma_m = "
                f"{20 * self.gamma_m:.3g} Hz; raise samples_per_bit")
        if self.f_if > 0 and fs < 2.0 * self.f_if:
            raise SamplingError(
                f"sample rate {fs:.3g} Hz cannot represent f_if = "
                f"{self.f_if:.3g} Hz; raise samples_per_bit or set f_if = 0")

    @property
    def sample_rate(self) -> float:
        return self.rate * self.samples_per_bit


@dataclass(frozen=True)
class LinkRun:
    """Demodulated link output: time axis, quadratures, envelope.

    beta is the pre-noise complex mechanical envelope; envelope is
    sqrt(I^2 + Q^2) of the stored (noisy) quadratures pointwise.
    """

    time: np.ndarray
    beta: np.ndarray
    i_trace: Trace
    q_trace: Trace
    envelope: Trace


def _scan_rows(x: np.ndarray, d_m: np.ndarray) -> None:
    """In place: x[:, k] <- sum over i <= k of d^(k-i) * x[:, i].

    d_m[s - 1] = d^s. Log2 doubling steps each add d^s (<= 1) times the
    row shifted by s, so no term is ever amplified; scaling by d^-k
    before a cumsum would lose log10(d^-len) digits.
    """
    tmp = np.empty_like(x)
    s = 1
    while s < x.shape[1]:
        np.multiply(x[:, :-s], d_m[s - 1], out=tmp[:, :-s])
        x[:, s:] += tmp[:, :-s]
        s *= 2


def _carrier(cfg: LinkConfig):
    """The IF carrier exp(2*pi*i*f_if*t) of a run, in two factors.

    Sample m = 1..spb of bit j sits at t = (j*spb + m)/sample_rate, so
    the carrier there is per_bit[j, 0] * within[m - 1]: a column of one
    phase per bit times one row of phases within a bit. Each phase is
    reduced modulo one cycle by an exact fmod (n*f_if % period), so no
    argument grows with the run length; it is 1 at t = 0, and everywhere
    at f_if = 0, where harmonic_spectrum runs so it need not demodulate.
    A phase product n*f_if that overflows raises ParameterError first.
    """
    for name, n in (("samples_per_bit", cfg.samples_per_bit),
                    ("len(bits) - 1", len(cfg.bits) - 1)):
        if not float(n) * float(cfg.f_if) < math.inf:
            raise ParameterError(f"f_if = {cfg.f_if!r} Hz times {name} = "
                                 f"{n} overflows the carrier phase")
    def phases(n, period):
        return np.exp(2j * np.pi * (n * cfg.f_if % period / period))
    within = phases(np.arange(1, cfg.samples_per_bit + 1), cfg.sample_rate)
    per_bit = phases(np.arange(len(cfg.bits)), cfg.rate)
    return per_bit[:, None], within


def run_link(cfg: LinkConfig, seed=0) -> LinkRun:
    """Compute the mechanical envelope for the bit array and demodulate.

    dbeta/dt = -pi*gamma_m*beta + drive(t), drive on for 1-bits. With
    d = exp(-pi*gamma_m*dt), sample m of a bit that starts at s_j is

        coherent: beta = d^m * s_j + v0 * bit_j * (1 - d^m)
        thermal:  beta = d^m * s_j + sum_{i<m} d^(m-1-i) * u_i

    (u_i the bit's gated noise drive). This is the exact solution of
    the per-sample update beta <- d*beta + u, so an isolated 0->1 step
    follows v0*(1 - exp(-pi*gamma_m*t)) to machine precision and a
    settled 1->0 edge decays as exp(-pi*gamma_m*t). Only the bit-start
    values recur: s_{j+1} = d^spb * s_j + (bit j's response from 0).

    A 0-bit responds with zero, so only the 1-bits' responses are
    computed: one shared row when coherent; when thermal, the rows of
    the drawn noise at the 1-bits, scanned alone. The noise is drawn
    for every sample in the same order as the per-sample update would,
    so a seed gives the same run. The detected voltage is beta times
    the factored carrier (_carrier), formed one block of bit rows at a
    time and added into I and Q: a run holds its outputs (time, beta, I,
    Q and the envelope, 48 bytes a sample) plus one block.
    A beta that overflows (a thermal drive near the float limit) raises
    ParameterError naming v0; an I, Q or envelope sample that overflows
    raises OverflowError naming that trace; a time axis that overflows
    raises ParameterError naming the rate.
    """
    rng = np.random.default_rng(seed)
    spb = cfg.samples_per_bit
    n_bits = len(cfg.bits)
    n_steps = n_bits * spb
    dt = 1.0 / cfg.sample_rate
    if not n_steps * dt < math.inf:
        raise ParameterError(
            f"rate = {cfg.rate!r} bit/s: {n_steps} samples at "
            f"{cfg.sample_rate!r} Hz span a time axis that overflows")
    t = np.arange(n_steps + 1) * dt
    rate_dt = math.pi * cfg.gamma_m * dt
    m = np.arange(1, spb + 1)
    d_m = np.exp(-rate_dt * m)                  # d^m, m = 1..spb

    ones = np.flatnonzero(cfg.bits)
    # a thermal envelope near the float limit overflows to inf or nan,
    # which stays so through the scan and the sums, and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.drive_mode == "coherent":
            # settled drive level is v0; response of every 1-bit from rest
            rise = cfg.v0 * -np.expm1(-rate_dt * m)
        else:
            # gated white-noise bath; stationary mean square |beta|^2 = v0^2
            decay = math.exp(-rate_dt)
            sigma = cfg.v0 * math.sqrt(max(1.0 - decay ** 2, 0.0) / 2.0)
            rise = np.empty((ones.size, spb), dtype=complex)
            rise.real = rng.standard_normal(n_steps).reshape(n_bits, spb)[ones]
            rise.imag = rng.standard_normal(n_steps).reshape(n_bits, spb)[ones]
            rise *= sigma
            _scan_rows(rise, d_m)
        ends = np.zeros(n_bits, dtype=rise.dtype)
        ends[ones] = rise[..., -1]
        starts, s = [], 0.0
        for end in ends.tolist():
            starts.append(s)
            s = s * d_m[-1] + end
        beta = np.empty(n_steps + 1, dtype=complex)
        beta[0] = 0.0
        per_bit = beta[1:].reshape(n_bits, spb)
        np.multiply(np.asarray(starts)[:, None], d_m, out=per_bit)
        per_bit[ones] += rise
    del rise                    # half a run when thermal; I and Q come next

    # I and Q start as the noise, drawn whole in the per-sample order, or
    # as -0.0: adding v_det = beta * carrier, one block of bit rows at a
    # time, then keeps every bit (0.0 would not: -0.0 + 0.0 is 0.0)
    phase, within = _carrier(cfg)
    step = max(1, _DEMOD_SAMPLES // spb)
    block = np.empty((min(step, n_bits), spb), dtype=complex)
    i_sig, q_sig = np.empty(t.size), np.empty(t.size)
    i_rows, q_rows = (y[1:].reshape(n_bits, spb) for y in (i_sig, q_sig))
    with np.errstate(over="ignore", invalid="ignore"):
        for y in (i_sig, q_sig):
            if cfg.noise_rms > 0:
                rng.standard_normal(out=y)
                y *= cfg.noise_rms
            else:
                y.fill(-0.0)
            y[0] += 0.0         # v_det[0] = beta[0] = 0.0
        for lo in range(0, n_bits, step):
            rows = slice(lo, lo + step)
            v_det = block[:n_bits - lo]
            np.multiply(per_bit[rows], within, out=v_det)
            v_det *= phase[rows]
            i_rows[rows] += v_det.real
            q_rows[rows] += v_det.imag
        env = np.hypot(i_sig, q_sig)
    if not np.isfinite(env).all():      # else I and Q and beta are finite
        if not np.isfinite(beta).all():
            raise ParameterError(f"v0 = {cfg.v0!r} V drives the mechanical "
                                 "envelope past the float range")
        for name, y in (("I", i_sig), ("Q", q_sig), ("envelope", env)):
            if not np.isfinite(y).all():
                raise OverflowError(f"{name} trace is not finite")
    return LinkRun(
        time=t,
        beta=beta,
        i_trace=Trace(t, i_sig, "s", "v", label="I"),
        q_trace=Trace(t, q_sig, "s", "v", label="Q"),
        envelope=Trace(t, env, "s", "v", label="|V_det|"),
    )


def _edges(bits) -> np.ndarray:
    """Bit positions j where bits[j] != bits[j-1]."""
    return np.flatnonzero(np.diff(bits)) + 1


@dataclass(frozen=True)
class EyeDiagram:
    """Overlaid two-unit-interval windows centered on transitions."""

    t: np.ndarray            # relative time within the window, s
    segments: np.ndarray     # one row per transition
    opening: float           # min vertical gap at the sampling instants
    extinction_ratio: float  # mean high / mean low at the sampling instants


def eye_diagram(run: LinkRun, cfg: LinkConfig) -> EyeDiagram:
    """Overlay transition-centered windows and score the eye.

    Each window spans one unit interval before and after a transition.
    Levels are read at the conventional sampling instant, the center of
    each unit interval; the eye opening is min(high) - max(low) there
    (floored at zero) and the extinction ratio is mean high / mean low,
    capped at EXTINCTION_CAP when the low level is zero. A mean level
    that overflows raises OverflowError. The windows are copied from a
    sliding view of the envelope, so the eye holds its segments and no
    index array as large.
    """
    spb = cfg.samples_per_bit
    bits = np.asarray(cfg.bits)
    edges = _edges(bits)
    if edges.size < 2:
        raise ParameterError("need at least 2 transitions for an eye diagram")
    windows = np.lib.stride_tricks.sliding_window_view(run.envelope.y,
                                                       2 * spb + 1)
    segments = windows[(edges - 1) * spb]
    t_rel = (np.arange(2 * spb + 1) - spb) / cfg.sample_rate

    # one high and one low instant per window; a rising edge's high is after
    half = spb // 2
    before, after = segments[:, half], segments[:, spb + half]
    rising = bits[edges] == 1
    highs = np.where(rising, after, before)
    lows = np.where(rising, before, after)
    opening = max(0.0, float(np.min(highs) - np.max(lows)))
    with np.errstate(over="ignore"):
        mean_low = float(np.mean(lows))
        mean_high = float(np.mean(highs))
    for name, level in (("low", mean_low), ("high", mean_high)):
        if not math.isfinite(level):
            raise OverflowError(f"eye mean {name} level is {level!r}")
    if mean_low <= mean_high / EXTINCTION_CAP:
        extinction = EXTINCTION_CAP
    else:
        extinction = min(mean_high / mean_low, EXTINCTION_CAP)
    return EyeDiagram(t_rel, segments, opening, extinction)


def ring_segments(run: LinkRun, cfg: LinkConfig):
    """Longest ring-up and ring-down segments of a run, as Traces.

    Returns (ringup, ringdown); either may be None when the pattern has
    no such edge. Segments start at the transition instant and end at
    the next transition (or the end of the run).
    """
    spb = cfg.samples_per_bit
    bits = cfg.bits
    edges = _edges(bits).tolist() + [len(bits)]
    best = {"ringup": (0, None), "ringdown": (0, None)}
    for a, b in zip(edges[:-1], edges[1:]):
        kind = "ringup" if bits[a] == 1 else "ringdown"
        length = b - a
        if length > best[kind][0]:
            sl = slice(a * spb, b * spb + 1)
            best[kind] = (length, Trace(run.time[sl], run.envelope.y[sl],
                                        "s", "v", label=kind))
    return best["ringup"][1], best["ringdown"][1]


def _measure(run: LinkRun, cfg: LinkConfig):
    """(eye or None, link_metrics' dict, one note per metric left out)."""
    eye, metrics, notes = None, {}, []
    try:
        eye = eye_diagram(run, cfg)
        metrics["eye_opening"] = eye.opening
        metrics["extinction_ratio"] = eye.extinction_ratio
    except ParameterError as err:
        notes.append(f"no eye diagram ({err})")
    up, down = ring_segments(run, cfg)
    for seg, kind, key in ((up, "ringup", "gamma_m_ringup"),
                           (down, "ringdown", "gamma_m_ringdown")):
        if seg is None:
            continue
        try:
            fit = fit_ring(seg, kind)
        except FitError as err:
            notes.append(f"no {key} ({err})")
            continue
        if fit.converged:
            metrics[key] = fit.params["gamma_m"]
        else:
            notes.append(f"no {key} ({'; '.join(fit.notes)})")
    return eye, metrics, notes


def link_metrics(run: LinkRun, cfg: LinkConfig) -> dict:
    """Eye metrics plus fitted ring-up/ring-down linewidths."""
    return _measure(run, cfg)[1]


def harmonic_spectrum(cfg: LinkConfig, f0: float, n_periods: int = 64,
                      seed=0) -> Trace:
    """Two-sided PSD of the demodulated envelope for a square-wave drive.

    Drives the link at f_if = 0 with an n_periods-long 50%-duty square
    wave of fundamental f0 (bit rate 2*f0), so I + iQ is the baseband
    envelope, and returns its periodogram on offsets from the carrier.
    An exact integer number of periods lands every harmonic on an FFT
    bin, so only odd harmonics carry power, filtered by the mechanical
    susceptibility. The square wave keeps cfg's sample rate.
    """
    require(positive={"f0": f0})
    require_integer(n_periods=n_periods)
    if n_periods < 2:
        raise ParameterError(f"n_periods must be >= 2 (got {n_periods!r})")
    # warm up until the ring-up transient has decayed, then transform an
    # exact integer number of steady-state periods (leakage-free bins);
    # np.ceil keeps a vanishing or huge f0 an inf count, which the budget
    # rejects before anything is allocated
    warmup = np.ceil(8.0 * f0 / (math.pi * cfg.gamma_m)) + 1
    spb = np.ceil(max(8.0, cfg.samples_per_bit * (cfg.rate / (2.0 * f0))))
    samples = 2.0 * (warmup + n_periods) * spb
    if not samples <= HARMONIC_MAX_SAMPLES:
        raise ParameterError(
            f"f0 = {f0!r} Hz and n_periods = {n_periods!r} need {samples:.3g} "
            f"samples, over the budget of {HARMONIC_MAX_SAMPLES}")
    warmup, spb = int(warmup), int(spb)
    square = replace(cfg, bits=(1, 0) * (warmup + n_periods), rate=2.0 * f0,
                     samples_per_bit=spb, f_if=0.0)
    run = run_link(square, seed=seed)
    z = run.i_trace.y + 1j * run.q_trace.y
    n = 2 * n_periods * spb
    start = 2 * warmup * spb
    dt = 1.0 / square.sample_rate
    spec = np.fft.fft(z[start:start + n]) / n
    psd = (np.abs(spec) ** 2) * n * dt
    freqs = np.fft.fftfreq(n, dt)
    order = np.argsort(freqs)
    return Trace(freqs[order], psd[order], "hz", "lin",
                 label="envelope PSD (offset from carrier)")
