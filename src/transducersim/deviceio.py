"""Device files, trace CSV I/O, and unit conversions.

Device files are plain text with [section] headers and key = value
lines; `[[modes]]` opens one block per mechanical mode. Every
dimensioned key carries a unit suffix (_hz, _w or _dbm, _f, _ohm,
_rad); unknown keys and missing suffixes are rejected, and validation
reports every violation at once, not just the first.

dBm/W conversion lives here; the physics modules are watts-only.
"""

import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import DeviceParams, PumpState
from .errors import DeviceFileError, ParameterError, TraceError, TransducerError
from .spectra import MechanicalMode
from .swap import QubitConfig
from .trace import Trace

DEVICE_PATH_ENV = "TRANSDUCERSIM_DEVICE_PATH"

BUNDLED_DEVICES = ("table1_measured", "table1_sim_adjusted", "table1_sim_initial")


def read_text(path) -> str:
    """Contents of a text file; one that does not decode raises an error
    that names it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as err:
        raise TransducerError(f"{path}: not a text file ({err})") from err


def dbm_to_w(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def w_to_dbm(w: float) -> float:
    if w <= 0:
        raise ParameterError(f"power must be > 0 W for dBm (got {w!r})")
    return 10.0 * math.log10(w / 1e-3)


def parse_power(text: str) -> float:
    """'-7.9dbm' or '1.6e-4w' -> watts, finite and >= 0."""
    s = text.strip().lower()
    if s.endswith("dbm"):
        number, to_w = s[:-3], dbm_to_w
    elif s.endswith("w"):
        number, to_w = s[:-1], float
    else:
        raise ParameterError(f"power needs a dbm or w suffix (got {text!r})")
    try:
        value = float(number)
        w = to_w(value)
    except (ValueError, OverflowError):
        value = w = math.nan
    if not (-math.inf < value < math.inf and 0 <= w < math.inf):
        raise ParameterError(f"power must be finite and >= 0 W (got {text!r})")
    return w


@dataclass(frozen=True)
class DeviceBundle:
    """Everything a device file declares."""

    device: DeviceParams
    pump: PumpState | None = None
    qubit: QubitConfig | None = None
    modes: tuple = ()


# section -> key -> required flag. "One of" groups are handled explicitly.
_SCHEMA = {
    "optical": {"f_o_hz": True, "kappa_o_hz": False, "kappa_oi_hz": False,
                "kappa_oe_hz": True, "eta_oc": True},
    "mechanical": {"f_m_hz": True, "gamma_mi_hz": True, "g_om_hz": True},
    "electromechanical": {"gamma_me_hz": True, "c_idt_f": True, "z0_ohm": True},
    "pump": {"detuning_hz": True, "p_on_chip_dbm": False, "p_on_chip_w": False,
             "n_c": False},
    "qubit": {"c_q_f": True, "f_mu_hz": True, "kappa_mu_hz": True},
    "modes": {"f_hz": True, "gamma_hz": True, "g_hz": True,
              "phi_rad": False, "gamma_e_hz": False},
}

_SUFFIXLESS = {"eta_oc", "n_c"}


def _tokenize(text: str):
    """Yield (line_no, kind, payload) where kind is 'section' or 'pair'."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            yield no, "section", ("modes", line[2:-2].strip())
            continue
        if line.startswith("[") and line.endswith("]"):
            yield no, "section", ("plain", line[1:-1].strip())
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, value = line.split(sep, 1)
                yield no, "pair", (key.strip(), value.strip())
                break
        else:
            yield no, "bad", line


def _suffix_hint(section: str, key: str) -> str | None:
    """If key matches a schema key up to the unit suffix, say what's expected."""
    for known in _SCHEMA.get(section, ()):
        base = known.rsplit("_", 1)[0] if known not in _SUFFIXLESS else known
        if key == base or key.rsplit("_", 1)[0] == base:
            return known
    return None


def parse_device_text(text: str, source: str = "<string>") -> DeviceBundle:
    violations = []
    sections: dict[str, dict] = {}
    modes_raw: list[dict] = []
    current: dict | None = None
    current_name = None

    for no, kind, payload in _tokenize(text):
        if kind == "bad":
            violations.append(f"{source}:{no}: expected 'key = value' (got {payload!r})")
            continue
        if kind == "section":
            style, name = payload
            if style == "modes":
                if name != "modes":
                    violations.append(f"{source}:{no}: unknown block [[{name}]]")
                    current = None
                    continue
                current = {}
                current_name = "modes"
                modes_raw.append(current)
                continue
            if name not in _SCHEMA or name == "modes":
                violations.append(f"{source}:{no}: unknown section [{name}]")
                current = None
                continue
            if name in sections:
                violations.append(f"{source}:{no}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            current_name = name
            continue
        # key/value pair
        key, value = payload
        if current is None:
            violations.append(f"{source}:{no}: '{key}' outside any section")
            continue
        schema = _SCHEMA[current_name]
        if key not in schema:
            hint = _suffix_hint(current_name, key)
            if hint:
                violations.append(
                    f"{source}:{no}: '{key}' is missing its unit suffix; "
                    f"expected '{hint}'")
            else:
                violations.append(
                    f"{source}:{no}: unknown key '{key}' in [{current_name}]")
            continue
        if key in current:
            violations.append(f"{source}:{no}: duplicate key '{key}'")
            continue
        try:
            current[key] = float(value)
        except ValueError:
            violations.append(f"{source}:{no}: cannot parse number {value!r} "
                              f"for '{key}'")

    for name, keys in _SCHEMA.items():
        if name in ("pump", "qubit", "modes"):
            continue
        if name not in sections:
            violations.append(f"{source}: missing required section [{name}]")
            continue
        for key, required in keys.items():
            if required and key not in sections[name]:
                violations.append(f"{source}: [{name}] missing key '{key}'")

    opt = sections.get("optical", {})
    if "kappa_o_hz" in opt and "kappa_oi_hz" in opt:
        violations.append(f"{source}: [optical] give kappa_o_hz or kappa_oi_hz, "
                          "not both")
    if "kappa_o_hz" not in opt and "kappa_oi_hz" not in opt and "optical" in sections:
        violations.append(f"{source}: [optical] needs kappa_o_hz or kappa_oi_hz")
    pump_sec = sections.get("pump")
    if pump_sec and "p_on_chip_dbm" in pump_sec and "p_on_chip_w" in pump_sec:
        violations.append(f"{source}: [pump] give p_on_chip_dbm or p_on_chip_w, "
                          "not both")
    if pump_sec is not None and not any(
            k in pump_sec for k in ("p_on_chip_dbm", "p_on_chip_w", "n_c")):
        violations.append(f"{source}: [pump] needs p_on_chip_dbm, p_on_chip_w, "
                          "or n_c")
    if "qubit" in sections:
        for key, req in _SCHEMA["qubit"].items():
            if req and key not in sections["qubit"]:
                violations.append(f"{source}: [qubit] missing key '{key}'")
    if "pump" in sections and "detuning_hz" not in sections["pump"]:
        violations.append(f"{source}: [pump] missing key 'detuning_hz'")
    for i, block in enumerate(modes_raw, start=1):
        for key, req in _SCHEMA["modes"].items():
            if req and key not in block:
                violations.append(f"{source}: [[modes]] block {i} missing '{key}'")

    if violations:
        raise DeviceFileError(violations)

    mech = sections["mechanical"]
    emech = sections["electromechanical"]
    kappa_oe = opt["kappa_oe_hz"]
    kappa_o = opt["kappa_o_hz"] if "kappa_o_hz" in opt \
        else kappa_oe + opt["kappa_oi_hz"]
    try:
        device = DeviceParams(
            f_o=opt["f_o_hz"], kappa_o=kappa_o, kappa_oe=kappa_oe,
            f_m=mech["f_m_hz"], gamma_mi=mech["gamma_mi_hz"],
            gamma_me=emech["gamma_me_hz"], g_om=mech["g_om_hz"],
            eta_oc=opt["eta_oc"], c_idt=emech["c_idt_f"], z0=emech["z0_ohm"])
    except ParameterError as err:
        raise DeviceFileError([f"{source}: {err}"]) from err

    pump = None
    if pump_sec:
        power = pump_sec.get("p_on_chip_w")
        if power is None and "p_on_chip_dbm" in pump_sec:
            power = dbm_to_w(pump_sec["p_on_chip_dbm"])
        try:
            pump = PumpState(detuning=pump_sec["detuning_hz"],
                             p_on_chip=power, n_c=pump_sec.get("n_c"))
        except ParameterError as err:
            raise DeviceFileError([f"{source}: [pump] {err}"]) from err

    qubit = None
    if "qubit" in sections:
        qs = sections["qubit"]
        try:
            qubit = QubitConfig(c_q=qs["c_q_f"], f_mu=qs["f_mu_hz"],
                                kappa_mu=qs["kappa_mu_hz"])
        except ParameterError as err:
            raise DeviceFileError([f"{source}: [qubit] {err}"]) from err

    modes = []
    for i, block in enumerate(modes_raw, start=1):
        try:
            modes.append(MechanicalMode(
                f=block["f_hz"], gamma=block["gamma_hz"], g=block["g_hz"],
                phi=block.get("phi_rad", 0.0),
                gamma_e=block.get("gamma_e_hz", 0.0)))
        except ParameterError as err:
            raise DeviceFileError([f"{source}: [[modes]] block {i}: {err}"]) from err

    return DeviceBundle(device=device, pump=pump, qubit=qubit,
                        modes=tuple(modes))


def parse_device(path) -> DeviceBundle:
    p = Path(path)
    return parse_device_text(read_text(p), source=str(p))


def write_device(bundle: DeviceBundle, path) -> None:
    """Write a bundle so that parse_device() reproduces it exactly."""
    d = bundle.device
    g = lambda v: f"{v:.17g}"  # noqa: E731
    lines = [
        "[optical]",
        f"f_o_hz = {g(d.f_o)}",
        f"kappa_o_hz = {g(d.kappa_o)}",
        f"kappa_oe_hz = {g(d.kappa_oe)}",
        f"eta_oc = {g(d.eta_oc)}",
        "",
        "[mechanical]",
        f"f_m_hz = {g(d.f_m)}",
        f"gamma_mi_hz = {g(d.gamma_mi)}",
        f"g_om_hz = {g(d.g_om)}",
        "",
        "[electromechanical]",
        f"gamma_me_hz = {g(d.gamma_me)}",
        f"c_idt_f = {g(d.c_idt)}",
        f"z0_ohm = {g(d.z0)}",
    ]
    if bundle.pump is not None:
        lines += ["", "[pump]", f"detuning_hz = {g(bundle.pump.detuning)}"]
        if bundle.pump.p_on_chip is not None:
            lines.append(f"p_on_chip_w = {g(bundle.pump.p_on_chip)}")
        if bundle.pump.n_c is not None:
            lines.append(f"n_c = {g(bundle.pump.n_c)}")
    if bundle.qubit is not None:
        qb = bundle.qubit
        lines += ["", "[qubit]", f"c_q_f = {g(qb.c_q)}",
                  f"f_mu_hz = {g(qb.f_mu)}", f"kappa_mu_hz = {g(qb.kappa_mu)}"]
    for mode in bundle.modes:
        lines += ["", "[[modes]]", f"f_hz = {g(mode.f)}",
                  f"gamma_hz = {g(mode.gamma)}", f"g_hz = {g(mode.g)}",
                  f"phi_rad = {g(mode.phi)}", f"gamma_e_hz = {g(mode.gamma_e)}"]
    Path(path).write_text("\n".join(lines) + "\n")


def resolve_device_path(name: str) -> Path:
    """Literal path, then $TRANSDUCERSIM_DEVICE_PATH, then bundled devices."""
    candidates = [name] if name.endswith(".cfg") else [name, name + ".cfg"]
    for cand in candidates:
        p = Path(cand)
        if p.is_file():
            return p
    env_dir = os.environ.get(DEVICE_PATH_ENV)
    if env_dir:
        for cand in candidates:
            p = Path(env_dir) / cand
            if p.is_file():
                return p
    pkg_dir = resources.files("transducersim") / "devices"
    for cand in candidates:
        p = Path(str(pkg_dir / cand))
        if p.is_file():
            return p
    raise ParameterError(
        f"device file {name!r} not found (searched cwd, ${DEVICE_PATH_ENV}, "
        f"bundled: {', '.join(BUNDLED_DEVICES)})")


def load_device(name: str) -> DeviceBundle:
    return parse_device(resolve_device_path(name))


# ------------------------------------------------------------------ trace CSV

def write_trace(trace: Trace, path) -> None:
    """Two-column CSV with a `x_unit,y_unit` header, 17 significant digits."""
    write_table(path, [trace.x_unit, trace.y_unit],
                np.column_stack([trace.x, trace.y]))


def read_trace(path) -> Trace:
    lines = read_text(path).splitlines()
    if not lines:
        raise TraceError(f"{path}: empty file")
    header = [tok.strip() for tok in lines[0].split(",")]
    if len(header) != 2 or any(not tok for tok in header):
        raise TraceError(f"{path}:1: header must be 'x_unit,y_unit' "
                         f"(got {lines[0]!r})")
    xs, ys = [], []
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
    if not xs:
        raise TraceError(f"{path}: no data rows")
    x = np.array(xs)
    if x.size > 1 and not np.all(np.diff(x) > 0):
        raise TraceError(f"{path}: x values must be strictly increasing")
    return Trace(x, np.array(ys), header[0], header[1])


def write_table(path, header, rows) -> None:
    """CSV with one header line and one line per row of a 2-D numeric array.

    rows is any rectangular array-like with len(header) columns; every
    cell is printed as a float with 17 significant digits, so reading
    it back with float() reproduces the value bit for bit.
    """
    fmt = ",".join(["{:.17g}"] * len(header))
    lines = [",".join(header)]
    lines += [fmt.format(*row) for row in np.asarray(rows, dtype=float).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_points(path) -> np.ndarray:
    """Two-column CSV (with or without a non-numeric header) -> (N, 2) array."""
    rows = []
    for no, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceError(f"{path}:{no}: expected two comma-separated values")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if no == 1:
                continue  # header
            raise TraceError(f"{path}:{no}: cannot parse numbers in {line!r}")
    if not rows:
        raise TraceError(f"{path}: no data rows")
    return np.array(rows)
