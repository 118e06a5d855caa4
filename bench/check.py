"""Output checks behind the benchmark's ``failed`` count.

An output is a stdout text, a CSV file, or the named arrays and scalars a
library call returns. Each has a fingerprint: its sha256, and for
numeric outputs the header, row count, and per-column sum, sum of
absolute values, extrema and sampled values (``worker.fingerprint``).
``reference.json`` holds the fingerprint of every output of every input
variant, recorded with ``run.py --record``.

An output whose sha256 matches the reference is *bitwise equal*.
Otherwise it must agree numerically:

- a value a of the reference and b of the run agree when
  |a - b| <= RTOL * max(|a|, |b|) + ATOL * scale, where scale is the
  column's largest magnitude (its sum of magnitudes, for sums) and
  1 for numbers printed on stdout;
- headers, row counts and non-numeric tokens must be identical.

RTOL is loose enough for a changed summation order (the closed-form
link integrator moves values by ~4.4e-16) and for fits that stop at a
slightly different point of the Gauss-Newton tolerance (1e-8 relative
step), and tight enough that a wrong formula fails.

Physics checks compare fits with the truth the generator seeded, and
test two identities: single-mode |S_oe|^2 = eta_tot (1%, as acceptance
criterion 12) and the full lossless swap at t = 1/(4 g_em).

Plain Python, so the timing parent does not import numpy.
"""

import math

RTOL = 1e-6
ATOL = 1e-9
STDOUT_ATOL = 1e-12

# (parameter, truth key, kind, tolerance): kind "rel" is |fit/truth - 1|,
# kind "width" is |fit - truth| / truth[width key]
FIT_TRUTH = {
    "dip": [("f_o", "f_o", ("width", "kappa_o"), 0.01),
            ("kappa_o", "kappa_o", "rel", 0.02),
            ("kappa_oe", "kappa_oe", "rel", 0.03)],
    "phase": [("detuning", "detuning", "rel", 0.01)],
    "points": [("g_om", "g_om", "rel", 0.05),
               ("gamma_mi", "gamma_mi", "rel", 0.02)],
    "lorentz": [(f"{p}_{k}", f"{p}_{k}", kind, tol)
                for k in (1, 2, 3)
                for p, kind, tol in (("f", ("width", f"gamma_{k}"), 0.02),
                                     ("gamma", "rel", 0.03),
                                     ("area", "rel", 0.03))],
}
SOE_ETA_TOL = 0.01
SWAP_TOL = 1e-3
CALIBRATION_TOL = 0.05


def _num(tok):
    try:
        return float(tok)
    except ValueError:
        return tok


def text_fingerprint(text, sha):
    """Stdout as lines of tokens, numbers parsed."""
    return {"sha": sha,
            "lines": [[_num(t) for t in line.split()] for line in text.splitlines()]}


def stdout_values(text):
    """'name = value ...' lines of a CLI stdout -> {name: value}."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] == "=":
            out[parts[0]] = _num(parts[2])
    return out


def close(a, b, scale):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + scale


def _compare_col(name, ref, new, problems):
    mag = max(abs(ref["min"]), abs(ref["max"]))
    for stat, scale in (("sum", ATOL * ref["abs_sum"]),
                        ("abs_sum", ATOL * ref["abs_sum"]),
                        ("min", ATOL * mag), ("max", ATOL * mag)):
        if not close(ref[stat], new[stat], scale):
            problems.append(f"{name}.{stat}: {new[stat]!r} vs {ref[stat]!r}")
    if len(ref["samples"]) != len(new["samples"]):
        problems.append(f"{name}: sample count differs")
        return
    for i, (a, b) in enumerate(zip(ref["samples"], new["samples"])):
        if not close(a, b, ATOL * mag):
            problems.append(f"{name}[sample {i}]: {b!r} vs {a!r}")


def compare(ref, new):
    """Problems that make `new` disagree with fingerprint `ref` (empty: agree)."""
    if ref.get("sha") == new.get("sha"):
        return []
    problems = []
    if "lines" in ref:
        if len(ref["lines"]) != len(new.get("lines", ())):
            return ["stdout line count differs"]
        for no, (a, b) in enumerate(zip(ref["lines"], new["lines"]), start=1):
            if len(a) != len(b) or not all(
                    close(x, y, STDOUT_ATOL) for x, y in zip(a, b)):
                problems.append(f"stdout line {no}: {b} vs {a}")
        return problems
    for field in ("header", "rows"):
        if ref.get(field) != new.get(field):
            return [f"{field}: {new.get(field)!r} vs {ref.get(field)!r}"]
    if sorted(ref["cols"]) != sorted(new["cols"]):
        return ["column set differs"]
    for name in ref["cols"]:
        _compare_col(name, ref["cols"][name], new["cols"][name], problems)
    if sorted(ref["scalars"]) != sorted(new["scalars"]):
        return problems + ["scalar set differs"]
    for name, a in ref["scalars"].items():
        if not close(a, new["scalars"][name], STDOUT_ATOL):
            problems.append(f"{name}: {new['scalars'][name]!r} vs {a!r}")
    return problems


def fit_problems(values, truth_kind, truth):
    """Fitted values against the generator's truth."""
    problems = []
    if values.get("converged") not in (True, "True"):
        problems.append("fit did not converge")
    for param, key, kind, tol in FIT_TRUTH[truth_kind]:
        got = values.get(param)
        if not isinstance(got, float):
            problems.append(f"{param} missing")
            continue
        want = truth[key]
        if kind == "rel":
            err = abs(got / want - 1.0)
        else:
            err = abs(got - want) / truth[kind[1]]
        if not err <= tol:
            problems.append(f"{param} = {got:.6g}, truth {want:.6g} "
                            f"(error {err:.3g} > {tol})")
    return problems


def swap_problems(qubit, phonons):
    """Lossless swap: all of the excitation on the mechanics at 1/(4 g_em)."""
    if qubit <= SWAP_TOL and phonons >= 1.0 - SWAP_TOL:
        return []
    return [f"lossless swap at 1/(4 g_em): qubit {qubit:.3g}, "
            f"phonons {phonons:.6g}"]


def rabi_row(text, row):
    """Values of data row `row` of a Rabi CSV (t_s, qubit, phonons)."""
    line = text.splitlines()[1 + row]
    return [float(v) for v in line.split(",")]


def identity_problems(name, values):
    """Identities returned by the library worker: name -> [a, b]."""
    a, b = values
    if name == "soe_eta":
        ok = abs(a / b - 1.0) < SOE_ETA_TOL
        return [] if ok else [f"|S_oe|^2 = {a:.6g} vs eta_tot = {b:.6g}"]
    if name == "lossless_swap":
        return swap_problems(a, b)
    if name == "calibration":
        ok = abs(a / b - 1.0) < CALIBRATION_TOL
        return [] if ok else [f"calibrated n_coh = {a:.6g} vs {b:.6g}"]
    return [f"unknown identity {name}"]
