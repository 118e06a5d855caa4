"""Parameter extraction from measured or synthetic traces.

All nonlinear fits run a damped Gauss-Newton iteration on the normal
equations A = J^T J, g = J^T r of analytic Jacobians (max 200
iterations, convergence when the relative parameter step drops below
1e-8). Each model forms A and g itself: the dip, Lorentzian and ring
models from their real J, filled one block of rows at a time
(_blocked_normal), the phase model from its complex response without
building a real J (_phase_normal). Initial guesses are deterministic:
centers from extrema, widths from half-max crossings, backgrounds from
trace edges. No fitter touches a global RNG; noise in synthetic tests
is owned by the caller.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DeviceParams, require, require_integer, sign_factor
from .errors import FitError, ParameterError
from .spectra import _lorentzian_density, _pole
from .trace import Trace

MAX_ITER = 200
REL_STEP_TOL = 1e-8


@dataclass(frozen=True)
class FitResult:
    """Named parameter estimates with standard errors.

    converged=False means the params are best-effort and flagged; notes
    carry warnings such as branch ambiguity or unidentifiable segments.
    cov is the solver's covariance carried to param_order, whose names
    all key params, as G cov G^T (_propagate); stderr is always
    sqrt|diag cov| by name ({} if cov is None). At y = sqrt(c x) = 0, dy/dx
    is the secant slope sqrt(c / se_x), 0 if se_x = 0: se_y = sqrt(c se_x).
    """

    params: dict
    residual_norm: float
    converged: bool
    n_iter: int = 0
    notes: tuple = ()
    cov: np.ndarray | None = None
    param_order: tuple = ()

    @property
    def stderr(self) -> dict:
        return {} if self.cov is None else dict(
            zip(self.param_order, np.sqrt(np.abs(np.diag(self.cov)))))


def _least_squares_result(names, p, A, cost, m, converged, n_iter) -> FitResult:
    """FitResult of the least-squares point p: A = J^T J there, and cost
    the sum of squares of its m residuals r.

    The one rule for fit uncertainties: cov = s2 * pinv(A) with
    s2 = cost / max(m - n, 1) for n parameters (inf if pinv fails; a
    FitError if a zero cost leaves no noise to estimate s2 from, an
    OverflowError if the cost is not finite), residual_norm the rms of r.
    """
    n = A.shape[0]
    if not math.isfinite(cost):
        raise OverflowError(f"residual sum of squares is {cost!r}")
    if cost == 0:
        raise FitError("zero residual: no noise to estimate uncertainties from")
    try:
        cov = cost / max(m - n, 1) * np.linalg.pinv(A)
    except np.linalg.LinAlgError:
        cov = np.full((n, n), np.inf)
    return FitResult(dict(zip(names, p)), math.sqrt(cost / m), converged,
                     n_iter, () if converged else ("non-convergence",),
                     cov=cov, param_order=tuple(names))


def _propagate(fit, params, rows, **changes) -> FitResult:
    """fit with params, and cov = G cov G^T for the gradient rows G of rows.

    A variance that overflows or meets an inf of cov is inf, not nan.
    """
    G = np.array(list(rows.values()), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = G @ fit.cov @ G.T
    var = np.diagonal(cov)
    np.fill_diagonal(cov, np.where(np.isfinite(var), var, np.inf))
    return replace(fit, params=params, cov=cov, param_order=tuple(rows),
                   **changes)


def _sqrt_slope(y, c, se_x):
    """dy/dx of y = sqrt(c x); at y = 0 the secant slope (FitResult)."""
    return c / (2.0 * y) if y > 0 else math.sqrt(c / se_x) if se_x > 0 else 0.0


def _normal(J, r):
    """The normal equations (J^T J, J^T r) of a real Jacobian J."""
    return J.T @ J, J.T @ r


# Rows of J per block of _blocked_normal: large enough that the per-block
# overhead is negligible, small enough that a block of up to 10 columns
# (640 KiB) stays in cache while both products read it.
_FIT_ROWS = 8192


def _blocked_normal(r, n_cols, fill):
    """_normal(J, r) of the n_cols-column Jacobian J of the residual r,
    summed over blocks of at most _FIT_ROWS rows, so J is never whole.

    fill(rows, cols) writes the rows slice of J's columns into cols, a
    view of one reused buffer with a row per column of J: each block is
    column-major, so each column op writes contiguous bytes. A trace of
    one block forms _normal(J, r) itself, bit for bit.
    """
    n = r.size
    buf = np.empty((n_cols, min(n, _FIT_ROWS)))
    A = g = None
    for lo in range(0, n, _FIT_ROWS):
        rows = slice(lo, min(lo + _FIT_ROWS, n))
        cols = buf[:, :rows.stop - lo]
        fill(rows, cols)
        A_b, g_b = _normal(cols.T, r[rows])
        if A is None:
            A, g = A_b, g_b
        else:
            A += A_b
            g += g_b
    return A, g


def _phase_normal(u, m, rz):
    """_normal of the phase model from its complex columns, by five
    complex dot products and no real Jacobian.

    The complex residual rz = a m - z has the columns (u, m, i m) over
    (detuning, amp_re, amp_im), so its real Jacobian J stacks
    [Re u, Re m, -Im m] over [Im u, Im m, Re m], and with <x, y> =
    sum conj(x) y: A = [[|u|^2, Re<u,m>, -Im<u,m>], [., |m|^2, 0],
    [., 0, |m|^2]] and g = [Re<u,rz>, Re<m,rz>, Im<m,rz>].
    """
    um, mm = np.vdot(u, m), np.vdot(m, m).real
    ur, mr = np.vdot(u, rz), np.vdot(m, rz)
    A = np.array([[np.vdot(u, u).real, um.real, -um.imag],
                  [um.real, mm, 0.0],
                  [-um.imag, 0.0, mm]])
    return A, np.array([ur.real, mr.real, mr.imag])


@np.errstate(over="ignore", invalid="ignore")
def _gauss_newton(model, p0, names, *, valid=None) -> FitResult:
    """Levenberg-damped Gauss-Newton on a model p -> (r(p), normal).

    normal() forms the normal equations A = J^T J and g = J^T r of the
    Jacobian J of r at p from the intermediates of r(p), by
    _blocked_normal or _phase_normal. It is called only at accepted
    points, and A, g and the cost are all the solver keeps between
    steps: each residual is dropped once its cost is summed, and each
    point's normal, with the arrays it keeps, before the model runs
    again, so no Jacobian or residual outlives its point. More
    parameters than residuals raise ParameterError before normal() runs.
    Returns the _least_squares_result of the last accepted point,
    converged if the relative step fell below REL_STEP_TOL within
    MAX_ITER. Only cost-decreasing steps are accepted, so the final
    residual never exceeds the initial one. n_iter hangs on the last bit
    of every operation: the two phase starts can reach one minimum with
    rms an ulp apart, and then the BLAS thread count picks which wins (28
    iterations against 4 on one 2e5-point trace). Overflow is silent: a
    trial point whose cost is not finite is rejected like one that
    raises it, and a start whose cost is not finite raises OverflowError.
    """
    def at(q):      # (cost, residual count, normal) of the model at q
        r, normal = model(q)
        return float(r @ r), r.size, normal

    p = np.array(p0, dtype=float)
    scale = np.maximum(np.abs(p), 1e-30)
    cost, m, normal = at(p)
    if p.size > m:
        raise ParameterError(f"more parameters ({p.size}) than residuals ({m})")
    if not math.isfinite(cost):
        raise OverflowError(f"residual sum of squares at the start is {cost!r}")
    A, g = normal()
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        accepted = False
        for _ in range(40):
            damped = A + lam * np.diag(np.maximum(np.diag(A), 1e-30))
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            if valid is not None and not valid(p_new):
                lam *= 10.0
                continue
            normal = None       # drop the last point's arrays first
            cost_new, _, normal = at(p_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                scale = np.maximum(np.abs(p_new), scale)
                rel_step = float(np.max(np.abs(step) / scale))
                p, cost, (A, g) = p_new, cost_new, normal()
                lam = max(lam * 0.3, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        if rel_step < REL_STEP_TOL:
            converged = True
            break
    return _least_squares_result(names, p, A, cost, m, converged, it)


@np.errstate(over="ignore")
def _edge_median(y):
    """Median of the trace edges: the outer 5% (at least 3 points) each
    side; inf where the mean of the middle two overflows, so the fit's
    first cost does."""
    n = max(3, y.size // 20)
    return float(np.median(np.concatenate([y[:n], y[-n:]])))


# ---------------------------------------------------------------- optical dip

def _dip(f, y, p):
    # p = (f_o, kappa, e) with e = d^2, d the fractional dip amplitude;
    # e enters linearly, so e = 0 is not a stationary point of the fit.
    f_o, kappa, e = p
    x = f - f_o
    x2 = 4.0 * x ** 2
    D = kappa ** 2 + x2
    r = (e * kappa ** 2 + x2) / D - y

    def fill(rows, cols):
        dR_dfo, dR_dk, dR_de = cols
        one_me = 1.0 - e
        D2 = D[rows] ** 2
        np.multiply(-8.0, x[rows], out=dR_dfo)
        dR_dfo *= kappa ** 2
        dR_dfo *= one_me
        dR_dfo /= D2
        np.multiply(-2.0 * kappa, x2[rows], out=dR_dk)
        dR_dk *= one_me
        dR_dk /= D2
        np.divide(kappa ** 2, D[rows], out=dR_de)
    return r, lambda: _blocked_normal(r, 3, fill)


def fit_optical_dip(trace: Trace, branch: str | None = None) -> FitResult:
    """Fit a normalized cavity reflection dip.

    Model: |1 - 2*pi*kappa_oe / (i 2*pi (f - f_o) + pi kappa_o)|^2, which
    depends on kappa_oe only through the depth parameter d = |1 - 2
    kappa_oe/kappa_o|. The dip therefore determines kappa_oe only up to
    the under/over-coupled branch; both candidates are always reported
    and `branch` ("under" or "over") selects which one fills kappa_oe.
    """
    if branch not in (None, "under", "over"):
        raise ParameterError(f"branch must be 'under' or 'over' (got {branch!r})")
    f, y = trace.x, trace.y
    if f.size < 8:
        raise FitError("trace too short to fit a dip")
    edge = _edge_median(y)
    i_min = int(np.argmin(y))
    y_min = float(y[i_min])
    if edge <= 0 or y_min >= 0.95 * edge:
        raise FitError("no dip found in reflection trace")

    level = 0.5 * (y_min + edge)
    left = np.nonzero(y[:i_min] >= level)[0]
    right = np.nonzero(y[i_min:] >= level)[0]
    if left.size and right.size:
        width = float(f[i_min + right[0]] - f[left[-1]])
    else:
        width = float(f[-1] - f[0]) / 4.0
    p0 = [float(f[i_min]), max(width, float(np.min(np.diff(f)))),
          min(max(y_min / edge, 0.0), 1.0)]

    fit = _gauss_newton(lambda p: _dip(f, y, p), p0, ("f_o", "kappa_o", "depth_sq"),
                        valid=lambda q: q[1] > 0 and q[2] < 1.0)
    f_o, kappa, e = fit.params.values()
    d = math.sqrt(max(e, 0.0))
    if not fit.converged:
        return replace(fit, params={"f_o": f_o, "kappa_o": kappa, "depth": d},
                       cov=None, param_order=())
    dd = _sqrt_slope(d, 1.0, fit.stderr["depth_sq"])     # d(depth)/d(depth_sq)
    params = {"f_o": f_o, "kappa_o": kappa, "depth": d,
              "kappa_oe_under": kappa * (1.0 - d) / 2.0,
              "kappa_oe_over": kappa * (1.0 + d) / 2.0}
    rows = {"f_o": (1, 0, 0), "kappa_o": (0, 1, 0), "depth": (0, 0, dd),
            "kappa_oe_under": (0, (1 - d) / 2, -kappa / 2 * dd),
            "kappa_oe_over": (0, (1 + d) / 2, kappa / 2 * dd)}
    notes = []
    if branch is not None:
        params["kappa_oe"] = params[f"kappa_oe_{branch}"]
        params["kappa_oi"] = kappa - params["kappa_oe"]
        rows["kappa_oe"] = rows[f"kappa_oe_{branch}"]
    else:
        notes.append("coupling branch not selected; see kappa_oe_under/over")
    fit = _propagate(fit, params, rows)
    if d < 2.0 * fit.stderr["depth"]:
        notes.append("dip depth consistent with critical coupling")
    return replace(fit, notes=tuple(notes))


# ---------------------------------------------------------- sideband detuning

def _phase(f, z, gain, kappa_o, p):
    # p = (detuning, amp_re, amp_im): the response a m with m = gain / pole
    # and a = amp_re + i amp_im, minus z; r holds the real parts of this
    # complex residual rz over its imaginary parts
    delta, a_re, a_im = p
    a = a_re + 1j * a_im
    n = f.size
    pole = _pole(f, delta, kappa_o)
    m = gain / pole
    rz = np.multiply(a, m)
    rz -= z
    r = np.empty(2 * n)
    r[:n], r[n:] = rz.real, rz.imag

    def normal():
        u = pole ** 2       # u = a dm/d(detuning) = a (-i 2 pi gain) / pole**2
        np.divide((-1j * 2 * np.pi) * gain, u, out=u)
        np.multiply(a, u, out=u)
        return _phase_normal(u, m, rz)
    return r, normal


def fit_phase_detuning(trace_mag: Trace, trace_phase: Trace,
                       dev: DeviceParams) -> FitResult:
    """Signed pump-cavity detuning from a background-subtracted sideband sweep.

    The complex response mag*exp(i*phase) is fit to the two-sideband
    single-pole cavity model with a free complex amplitude; the phase
    roll through resonance pins the detuning, and its mirror symmetry
    under detuning -> -detuning fixes the sign. Both candidate signs are
    tried and the better fit wins.
    """
    if not np.array_equal(trace_mag.x, trace_phase.x):
        raise ParameterError("magnitude and phase traces must share one axis")
    f = trace_mag.x
    z = trace_mag.y * np.exp(1j * trace_phase.y)
    if f.size < 8:
        raise FitError("sweep too short to fit the cavity response")

    kappa_o, kappa_oe = dev.kappa_o, dev.kappa_oe
    gain = 2 * np.pi * kappa_oe

    def from_start(delta0):
        m0 = gain / _pole(f, delta0, kappa_o)
        denom = float(np.vdot(m0, m0).real)
        a0 = complex(np.vdot(m0, z)) / denom if denom > 0 else 0.0 + 0.0j
        del m0      # not held through the fit
        return _gauss_newton(lambda p: _phase(f, z, gain, kappa_o, p),
                             [delta0, a0.real, a0.imag],
                             ("detuning", "amp_re", "amp_im"))

    f_peak = float(f[np.argmax(trace_mag.y)])
    fit = min((from_start(d) for d in (f_peak, -f_peak)),
              key=lambda r: r.residual_norm)
    notes = ()
    if float(f[-1] - f[0]) < kappa_o:
        notes = ("sweep span below kappa_o; phase wrap may bias the sign",)
    return _propagate(fit, fit.params, {"detuning": (1, 0, 0)},
                      notes=notes + fit.notes)


# ------------------------------------------------- linewidth vs photon number

def fit_linewidth_vs_photons(points, sign: str, kappa_o: float,
                             weights=None) -> FitResult:
    """g_om and gamma_mi from operating linewidth vs intracavity photons.

    Fits the line gamma(n_c) = gamma_mi -/+ (4 g_om^2 / kappa_o) n_c
    (blue/red) by (optionally weighted) linear least squares:
    g_om = sqrt(|slope| kappa_o / 4), intercept = gamma_mi. A kappa_o
    that makes g_om or its slope to the fitted slope overflow raises
    ParameterError; an error is inf only where the fit's covariance is.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError("points must be (n_c, gamma) pairs")
    if pts.shape[0] < 3:
        raise ParameterError("need at least 3 (n_c, gamma) points")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must be finite")
    expected = -sign_factor(sign)     # the slope's sign under `sign`
    n_c, gam = pts[:, 0], pts[:, 1]
    w = np.ones_like(gam) if weights is None else np.asarray(weights, float)
    if w.shape != gam.shape:
        raise ParameterError("weights must hold one value per point")
    require(positive={"kappa_o": kappa_o, "weights": w})
    if np.unique(n_c).size < 2:
        raise FitError("rank-deficient design: all points share one n_c")

    sw = np.sqrt(w)
    X = np.column_stack([n_c, np.ones_like(n_c)]) * sw[:, None]
    b = gam * sw
    coef, _, rank, _ = np.linalg.lstsq(X, b, rcond=None)
    if rank < 2:
        raise FitError(
            f"rank-deficient design: over n_c {n_c.min():.4g} to "
            f"{n_c.max():.4g} the slope and the intercept cannot be told "
            "apart")
    r = X @ coef - b
    with np.errstate(over="ignore"):
        cost = float(r @ r)
    fit = _least_squares_result(("slope", "intercept"), coef, X.T @ X, cost,
                                r.size, converged=True, n_iter=1)
    slope, intercept = float(coef[0]), float(coef[1])
    se_slope = fit.stderr["slope"]

    signed = expected * slope          # positive when consistent with `sign`
    # a slope whose total effect across the swept range is numerically
    # negligible against the intercept is zero, not a tiny g_om
    span = float(n_c.max() - n_c.min())
    if abs(slope) * span < 1e-12 * abs(intercept):
        signed = 0.0
    notes = []
    if signed < 0 and abs(slope) > 2.0 * se_slope:
        raise FitError(
            f"slope sign inconsistent with {sign}-detuned operation "
            f"(slope = {slope:.4g} +/- {se_slope:.2g} Hz per photon)")
    if signed <= 0:
        g_om = 0.0
        notes.append("slope consistent with zero; g_om set to 0")
    else:
        g_om = math.sqrt(signed * kappa_o / 4.0)
    dg = expected * _sqrt_slope(g_om, kappa_o / 4.0, se_slope)
    result = _propagate(fit, {"g_om": g_om, "gamma_mi": intercept,
                              "slope": slope, "intercept": intercept},
                        {"g_om": (dg, 0), "gamma_mi": (0, 1), "slope": (1, 0)},
                        notes=tuple(notes))
    if not (math.isfinite(g_om) and math.isfinite(dg)):
        raise ParameterError(
            f"kappa_o = {kappa_o!r} Hz gives g_om = {g_om!r} +/- "
            f"{float(result.stderr['g_om'])!r} Hz, which is not finite")
    return result


# ---------------------------------------------------------- multi-Lorentzian

def _half_max_width(f, y, idx):
    """Full width at half max of the feature peaking at idx, by crossings."""
    half = 0.5 * y[idx]
    left = np.nonzero(y[:idx] <= half)[0]
    right = np.nonzero(y[idx:] <= half)[0]
    lo = f[left[-1]] if left.size else f[0]
    hi = f[idx + right[0]] if right.size else f[-1]
    width = float(hi - lo)
    return width if width > 0 else float(f[-1] - f[0]) / 10.0


def _lorentz(f, y, u, n_peaks, p):
    # p = (f_1, gamma_1, area_1, ..., bg0[, bg1]): n_peaks Lorentzians on
    # the background bg0 (+ bg1 u when u is given), minus y
    # summed in place through one scratch n-array d: an evaluation
    # allocates two n-arrays whatever the number of peaks
    r = np.full(f.size, p[3 * n_peaks])
    d = np.empty_like(r)
    if u is not None:
        r += np.multiply(p[3 * n_peaks + 1], u, out=d)
    for k in range(n_peaks):
        c, g, a = p[3 * k: 3 * k + 3]
        hw = 0.5 * g
        np.subtract(f, c, out=d)
        np.square(d, out=d)
        d += hw ** 2
        np.divide(a * (hw / np.pi), d, out=d)
        r += d
    r -= y

    def fill(rows, cols):
        # the denominators are recomputed: keeping them raises the peak memory
        for k in range(n_peaks):
            c, g, a = p[3 * k: 3 * k + 3]
            hw = 0.5 * g
            d_c, d_g, d_a = cols[3 * k: 3 * k + 3]
            x = f[rows] - c
            denom = np.square(x)
            np.subtract(denom, hw ** 2, out=d_g)
            denom += hw ** 2
            np.divide(hw / np.pi, denom, out=d_a)
            np.square(denom, out=denom)
            np.multiply(a * (hw / np.pi) * 2.0, x, out=d_c)
            d_c /= denom
            np.multiply(a / (2 * np.pi), d_g, out=d_g)
            d_g /= denom
        cols[3 * n_peaks] = 1.0
        if u is not None:
            cols[3 * n_peaks + 1] = u[rows]
    return r, lambda: _blocked_normal(r, p.size, fill)


def fit_lorentzian_multi(trace: Trace, n_peaks: int, background="constant",
                         ) -> FitResult:
    """Sum of Lorentzians plus background, least squares.

    background is "constant", "linear", or a reference Trace measured
    off-resonance over at least the trace's x span (interpolated and
    subtracted before a constant-background fit). Peaks are seeded by
    iterative peak picking (max, local fit, subtract) and refined
    jointly; the result lists (f_k, gamma_k, area_k) sorted by
    frequency. Heavily overlapping peaks show up as exploding standard
    errors rather than failures.
    """
    require_integer(n_peaks=n_peaks)
    if n_peaks < 0:
        raise ParameterError(f"n_peaks must be >= 0 (got {n_peaks!r})")
    f = trace.x
    y = trace.y.copy()
    if isinstance(background, Trace):
        lo, hi = background.x[[0, -1]].tolist()
        if lo > f[0] or hi < f[-1]:     # np.interp would clamp
            raise ParameterError(
                f"reference spans x {lo!r} to {hi!r}, which does not cover "
                f"the trace's {float(f[0])!r} to {float(f[-1])!r}")
        y = y - np.interp(f, background.x, background.y)
        background = "constant"
    if background not in ("constant", "linear"):
        raise ParameterError(
            "background must be 'constant', 'linear', or a reference Trace")
    # in Python floats, where an end sum that overflows is inf, unwarned
    f_lo, f_hi = float(f[0]), float(f[-1])
    span = f_hi - f_lo if f.size > 1 else 1.0
    mid = 0.5 * (f_lo + f_hi)
    n_bg = 1 if background == "constant" else 2
    if f.size < 3 * n_peaks + n_bg:     # before the peaks are seeded
        raise ParameterError(f"more parameters ({3 * n_peaks + n_bg}) than "
                             f"residuals ({f.size})")
    if n_bg == 2 and not span < math.inf:   # u would be all zero
        raise ParameterError(f"the trace's x span {f_lo!r} to {f_hi!r} "
                             "overflows, so a linear background cannot be "
                             "fitted")
    if n_bg == 2 and not abs(mid) < math.inf:   # u would be all -inf
        raise ParameterError(f"the midpoint of the trace's x ends {f_lo!r} and "
                             f"{f_hi!r} overflows, so a linear background "
                             "cannot be fitted")
    u = (f - mid) / span if n_bg == 2 else None     # conditioned linear basis

    bg0 = _edge_median(y)

    # --- seed peaks from the running residual
    p0 = []
    resid = y - bg0
    for _ in range(n_peaks):
        idx = int(np.argmax(resid))
        center = float(f[idx])
        width = _half_max_width(f, np.clip(resid, 0, None), idx)
        area = max(float(resid[idx]) * math.pi * width / 2.0, 1e-300)
        p0 += [center, width, area]
        resid = resid - area * _lorentzian_density(f, center, width)
    p0 += [bg0, 0.0][:n_bg]
    names = [f"{q}_{k}" for k in range(1, n_peaks + 1)
             for q in ("f", "gamma", "area")] + ["bg0", "bg1"][:n_bg]

    def valid(p):
        return all(p[3 * k + 1] > 0 for k in range(n_peaks))

    # names label the peaks in seed order, then in frequency order
    fit = _gauss_newton(lambda p: _lorentz(f, y, u, n_peaks, p), p0, names,
                        valid=valid)
    order = np.argsort([fit.params[f"f_{k}"] for k in range(1, n_peaks + 1)])
    perm = [3 * k + i for k in order for i in range(3)] \
        + list(range(3 * n_peaks, len(names)))

    params = {name: fit.params[names[i]] for name, i in zip(names, perm)}
    rows = dict(zip(names, np.eye(len(names))[perm]))
    if n_bg == 2:       # bg1 per x-unit
        params["bg1"] = params["bg1"] / span
        rows["bg1"] = rows["bg1"] / span
    return _propagate(fit, params, rows)


# ------------------------------------------------- ring-up / ring-down edges

def fit_ring(segment: Trace, kind: str) -> FitResult:
    """Fit a ring-up or ring-down edge of the demodulated envelope.

    kind "ringup":   |V_det|(t) = V_f * (1 - exp(-pi*gamma_m*t))
    kind "ringdown": |V_det|(t) = V_i * exp(-pi*gamma_m*t)
    with t measured from the segment start (the transition instant).
    A mismatched kind or a flat segment is flagged, not silently fit.
    """
    if kind not in ("ringup", "ringdown"):
        raise ParameterError(f"kind must be 'ringup' or 'ringdown' (got {kind!r})")
    t = segment.x - segment.x[0]
    if t.size < 6:
        raise FitError("segment too short to fit")
    name = "v_i" if kind == "ringdown" else "v_f"
    # the fit runs on y / 2**k, with k > 0 only from y = 2**500 up, so its
    # sums of squares stay finite; v and the residual scale back by 2**k
    y_max = float(np.max(np.abs(segment.y)))
    scale = 2.0 ** max(math.frexp(y_max)[1] - 500, 0)
    y, y_max = segment.y / scale, y_max / scale
    if y_max <= 0 or float(np.ptp(y)) < 1e-9 * y_max:
        return FitResult({"gamma_m": 0.0, name: float(np.mean(y)) * scale},
                         0.0, False, 0, ("unidentifiable: constant segment",))

    t_char = float(t[-1]) / 3.0
    if kind == "ringdown":
        v0 = float(y[0]) if y[0] > 0 else y_max
        below = np.nonzero(y <= v0 / math.e)[0]
        t_e = float(t[below[0]]) if below.size and below[0] > 0 else t_char
        slope = -math.pi       # d(shape)/d(gamma_m) = slope * t * e
    else:
        v0 = float(np.mean(y[-max(3, t.size // 10):]))
        if v0 <= 0:
            v0 = y_max
        above = np.nonzero(y >= v0 * (1.0 - 1.0 / math.e))[0]
        t_e = float(t[above[0]]) if above.size and above[0] > 0 else t_char
        slope = math.pi

    def model(p):
        v, gam = p
        e = np.exp(-math.pi * gam * t)
        shape = e if kind == "ringdown" else 1.0 - e
        r = v * shape - y

        def fill(rows, cols):
            cols[0] = shape[rows]
            np.multiply(slope, t[rows], out=cols[1])
            cols[1] *= v
            cols[1] *= e[rows]
        return r, lambda: _blocked_normal(r, 2, fill)

    fit = _gauss_newton(model, [v0, 1.0 / (math.pi * t_e)], (name, "gamma_m"),
                        valid=lambda q: q[1] > 0)
    if fit.residual_norm > 0.15 * y_max:
        fit = replace(fit, converged=False,
                      notes=("poor-fit: residual large; check segment kind",))
    v, gamma_m = fit.params.values()
    return _propagate(fit, {name: v * scale, "gamma_m": gamma_m},
                      {name: (scale, 0), "gamma_m": (0, 1)},
                      residual_norm=fit.residual_norm * scale)
