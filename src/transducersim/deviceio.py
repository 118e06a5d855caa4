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
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import DeviceParams, PumpState
from .errors import DeviceFileError, ParameterError, TraceError, TransducerError
from .spectra import MechanicalMode, lumped_mode
from .swap import QubitConfig
from .trace import Trace

DEVICE_PATH_ENV = "TRANSDUCERSIM_DEVICE_PATH"

BUNDLED_DEVICES = ("table1_measured", "table1_sim_adjusted", "table1_sim_initial")


def read_text(path) -> str:
    """Contents of a UTF-8 text file, without a leading byte-order mark;
    one that does not decode raises an error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise TransducerError(f"{path}: not a text file ({err})") from err


def dbm_to_w(dbm: float) -> float:
    """Watts of a dBm power; inf where it overflows a float."""
    try:
        return 1e-3 * 10.0 ** (dbm / 10.0)
    except OverflowError:
        return math.inf


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
    except ValueError:
        value = math.nan
    w = to_w(value)
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

    @property
    def mechanical_modes(self) -> tuple:
        """The [[modes]], or the lumped mode of a file without any."""
        return self.modes or (lumped_mode(self.device),)


# The file format: section -> (record, key -> required). The three
# DeviceParams sections are required and together make the device; [pump]
# and [qubit] are optional; each [[modes]] block makes one MechanicalMode.
# A key sets the record field _field(key), but for the alternative
# spellings in _ALTERNATIVES.
_SCHEMA = {
    "optical": (DeviceParams, {"f_o_hz": True, "kappa_o_hz": False,
                               "kappa_oi_hz": False, "kappa_oe_hz": True,
                               "eta_oc": True}),
    "mechanical": (DeviceParams, {"f_m_hz": True, "gamma_mi_hz": True,
                                  "g_om_hz": True}),
    "electromechanical": (DeviceParams, {"gamma_me_hz": True, "c_idt_f": True,
                                         "z0_ohm": True}),
    "pump": (PumpState, {"detuning_hz": True, "p_on_chip_dbm": False,
                         "p_on_chip_w": False, "n_c": False}),
    "qubit": (QubitConfig, {"c_q_f": True, "f_mu_hz": True,
                            "kappa_mu_hz": True}),
    "modes": (MechanicalMode, {"f_hz": True, "gamma_hz": True, "g_hz": True,
                               "phi_rad": False, "gamma_e_hz": False}),
}

# alternative spelling -> (the field it sets, its value from the section's)
_ALTERNATIVES = {
    "kappa_oi_hz": ("kappa_o", lambda v: v["kappa_oe_hz"] + v["kappa_oi_hz"]),
    "p_on_chip_dbm": ("p_on_chip", lambda v: dbm_to_w(v["p_on_chip_dbm"])),
}


def _field(key: str) -> str:
    """The record field a key sets: the key without its unit suffix."""
    return key if key in ("eta_oc", "n_c") else key.rsplit("_", 1)[0]


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
    for known in _SCHEMA[section][1]:
        base = _field(known)
        if key == base or key.rsplit("_", 1)[0] == base:
            return known
    return None


def _record(kind, values: dict, prefix: str, violations: list):
    """kind built from one section's key -> value map, or None with the
    record's error appended to violations, its message led by prefix."""
    fields = {_field(k): v for k, v in values.items() if k not in _ALTERNATIVES}
    for key, (name, value) in _ALTERNATIVES.items():
        if key in values:
            fields[name] = value(values)
    try:
        return kind(**fields)
    except ParameterError as err:
        violations.append(f"{prefix}{err}")
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
            current, current_name = None, name
            if style == "modes" and name != "modes":
                violations.append(f"{source}:{no}: unknown block [[{name}]]")
            elif style == "modes":
                current = {}
                modes_raw.append(current)
            elif name not in _SCHEMA or name == "modes":
                violations.append(f"{source}:{no}: unknown section [{name}]")
            else:
                if name in sections:
                    violations.append(f"{source}:{no}: duplicate section [{name}]")
                current = sections.setdefault(name, {})
            continue
        # key/value pair
        key, value = payload
        if current is None:
            violations.append(f"{source}:{no}: '{key}' outside any section")
            continue
        if key not in _SCHEMA[current_name][1]:
            hint = _suffix_hint(current_name, key)
            if hint:
                violations.append(
                    f"{source}:{no}: '{key}' is missing its unit suffix; "
                    f"expected '{hint}'")
                current.setdefault(hint, None)
            else:
                violations.append(
                    f"{source}:{no}: unknown key '{key}' in [{current_name}]")
            continue
        if key in current:
            violations.append(f"{source}:{no}: duplicate key '{key}'")
            continue
        # a key that is present but unusable holds None: not also missing
        try:
            current[key] = float(value)
        except ValueError:
            current[key] = None
            violations.append(f"{source}:{no}: cannot parse number {value!r} "
                              f"for '{key}'")
            continue
        if not math.isfinite(current[key]):
            current[key] = None
            violations.append(f"{source}:{no}: non-finite number {value!r} "
                              f"for '{key}'")

    # the sections and [[modes]] blocks that pass the key checks make records
    passed = {}
    for name, (kind, keys) in _SCHEMA.items():
        sec = sections.get(name)
        if sec is None:
            if kind is DeviceParams:
                violations.append(f"{source}: missing required section [{name}]")
            continue
        before = len(violations)
        violations += [f"{source}: [{name}] missing key '{key}'"
                       for key, required in keys.items()
                       if required and key not in sec]
        if name == "optical":
            if "kappa_o_hz" in sec and "kappa_oi_hz" in sec:
                violations.append(f"{source}: [optical] give kappa_o_hz or "
                                  "kappa_oi_hz, not both")
            if not sec.keys() & {"kappa_o_hz", "kappa_oi_hz"}:
                violations.append(f"{source}: [optical] needs kappa_o_hz or "
                                  "kappa_oi_hz")
        if name == "pump":
            if "p_on_chip_dbm" in sec and "p_on_chip_w" in sec:
                violations.append(f"{source}: [pump] give p_on_chip_dbm or "
                                  "p_on_chip_w, not both")
            if not sec.keys() & {"p_on_chip_dbm", "p_on_chip_w", "n_c"}:
                violations.append(f"{source}: [pump] needs p_on_chip_dbm, "
                                  "p_on_chip_w, or n_c")
        if len(violations) == before and None not in sec.values():
            passed[name] = sec
    for i, block in enumerate(modes_raw, start=1):
        missing = [f"{source}: [[modes]] block {i} missing '{key}'"
                   for key, required in _SCHEMA["modes"][1].items()
                   if required and key not in block]
        violations += missing
        if not missing and None not in block.values():
            passed[i] = block

    device_sections = [name for name, (kind, _) in _SCHEMA.items()
                       if kind is DeviceParams]
    device = pump = qubit = None
    if all(name in passed for name in device_sections):
        device = _record(DeviceParams, {k: v for name in device_sections
                                        for k, v in passed[name].items()},
                         f"{source}: ", violations)
    if "pump" in passed:
        pump = _record(PumpState, passed["pump"], f"{source}: [pump] ", violations)
    if "qubit" in passed:
        qubit = _record(QubitConfig, passed["qubit"], f"{source}: [qubit] ",
                        violations)
    modes = tuple(_record(MechanicalMode, block, f"{source}: [[modes]] block {i}: ",
                          violations)
                  for i, block in enumerate(modes_raw, start=1) if i in passed)
    if violations:
        raise DeviceFileError(violations)
    return DeviceBundle(device, pump, qubit, modes)


def parse_device(path) -> DeviceBundle:
    p = Path(path)
    return parse_device_text(read_text(p), source=str(p))


def write_device(bundle: DeviceBundle, path) -> None:
    """Write a bundle so that parse_device() reproduces it exactly."""
    records = (bundle.device, bundle.pump, bundle.qubit, *bundle.modes)
    blocks = []
    for name, (kind, keys) in _SCHEMA.items():
        header = "[[modes]]" if name == "modes" else f"[{name}]"
        for record in records:
            if type(record) is kind:
                values = {k: getattr(record, _field(k)) for k in keys
                          if k not in _ALTERNATIVES}
                blocks.append("\n".join([header] + [
                    f"{k} = {v:.17g}" for k, v in values.items() if v is not None]))
    Path(path).write_text("\n\n".join(blocks) + "\n")


def resolve_device_path(name: str) -> Path:
    """Literal path, then $TRANSDUCERSIM_DEVICE_PATH, then bundled devices."""
    candidates = [name] if name.endswith(".cfg") else [name, name + ".cfg"]
    env_dir = os.environ.get(DEVICE_PATH_ENV)
    for directory in (Path(), *([Path(env_dir)] if env_dir else []),
                      Path(str(resources.files("transducersim") / "devices"))):
        for cand in candidates:
            if (p := directory / cand).is_file():
                return p
    raise ParameterError(
        f"device file {name!r} not found (searched cwd, ${DEVICE_PATH_ENV}, "
        f"bundled: {', '.join(BUNDLED_DEVICES)})")


def load_device(name: str) -> DeviceBundle:
    return parse_device(resolve_device_path(name))


# ------------------------------------------------------------------ trace CSV

# Cells per formatting block of _write_rows: large enough that the
# per-block overhead is negligible, small enough that the 64-byte rows
# _g17 lays a block out in (512 KiB) stay in cache.
_WRITE_CELLS = 8192
# The bytes a trace body may hold and still go to np.loadtxt: it strips
# tabs, form feeds, NEL and other separators around a field, where the
# format rejects them or splitlines() ends a line.
_PLAIN = b"0123456789eE.+-, \r\n"


def write_trace(trace: Trace, path) -> None:
    """Two-column CSV with a `x_unit,y_unit` header, 17 significant digits."""
    write_table(path, [trace.x_unit, trace.y_unit],
                np.column_stack([trace.x, trace.y]))


def write_eye(eye, path) -> None:
    """Eye-diagram CSV: a t_s column, then one seg_NNN column per segment."""
    header = ["t_s"] + [f"seg_{k:03d}" for k in range(len(eye.segments))]
    write_table(path, header, np.vstack([eye.t, eye.segments]).T)


def read_trace(path) -> Trace:
    """Trace of a two-column CSV with a 'x_unit,y_unit' header.

    A file whose first line is one UTF-8 line and whose body holds only
    _PLAIN bytes is parsed by np.loadtxt, and the Trace checks its
    values. Any other file, or one that np.loadtxt or the Trace rejects,
    is read whole and line by line (_rows), which names the first fault.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.readline().decode("utf-8-sig").splitlines()
            plain = len(lines) == 1 and not any(
                block.translate(None, _PLAIN)
                for block in iter(lambda: fh.read(1 << 20), b""))
        if plain and (header := _header(lines[0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty body warns
                xy = np.loadtxt(path, delimiter=",", comments=None,
                                skiprows=1, ndmin=2, encoding="utf-8-sig")
            if xy.shape[1] == 2:
                return Trace(*xy.T.copy(), *header)
    except (ValueError, Warning, TraceError):
        pass    # UnicodeDecodeError is a ValueError
    lines = read_text(path).splitlines()
    if not lines:
        raise TraceError(f"{path}: empty file")
    if not (header := _header(lines[0])):
        raise TraceError(f"{path}:1: header must be 'x_unit,y_unit' "
                         f"(got {lines[0]!r})")
    return Trace(*_rows(path, lines, 2, True), *header)


def _header(line):
    """[x_unit, y_unit] of a header line, or None: a header has two
    non-empty fields, and neither one parses as a number, so a line of
    two numbers is data."""
    header = [tok.strip() for tok in line.split(",")]
    if len(header) != 2 or not all(header):
        return None
    for tok in header:
        try:
            float(tok)
            return None
        except ValueError:
            pass
    return header


def _rows(path, lines, first, increasing):
    """(x, y) of lines[first - 1:], numbered from first and read one at a
    time: the reference for np.loadtxt's path, slower, but it skips blank
    lines and names the line that breaks the format. increasing requires
    strictly increasing x."""
    xs, ys, line_nos = [], [], []
    for no, line in enumerate(lines[first - 1:], start=first):
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
    x = np.array(xs)
    if increasing and (falls := np.flatnonzero(x[1:] <= x[:-1])).size:
        raise TraceError(f"{path}:{line_nos[falls[0] + 1]}: x values must be "
                         "strictly increasing")
    return x, np.array(ys)


def write_table(path, header, rows) -> None:
    """CSV with one header line and one line per row of a 2-D numeric array.

    rows is any rectangular array-like with len(header) columns, or []
    for none; every cell is printed as "%.17g" prints it, 17 significant
    digits, so reading it back with float() reproduces the value bit for
    bit. A table of any other shape raises ParameterError before the
    file is opened.
    """
    if not header:
        raise ParameterError(f"{path}: a table needs at least one header name")
    try:
        table = np.asarray(rows, dtype=float)
    except ValueError as err:   # ragged rows, or a cell that is no number
        raise ParameterError(f"{path}: rows is not a table of numbers "
                             f"({err})") from err
    if table.shape == (0,):
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ParameterError(f"{path}: {len(header)} header names but a table "
                             f"of shape {table.shape}, not (rows, {len(header)})")
    with open(path, "w") as out:
        _write_rows(out, header, table, "%.17g")


def _write_rows(out, header, table: np.ndarray, fmt: str) -> None:
    """Write the header line, then each row of the float array table with
    every cell in the %-format fmt, to the text stream out, in blocks of
    _WRITE_CELLS cells: "%.17g" by _g17's vectorised formatter, which
    prints the same bytes, any other fmt by one % operation per block."""
    step = max(1, _WRITE_CELLS // len(header))
    out.write(",".join(header) + "\n")
    if fmt == "%.17g":
        from ._g17 import rows  # builds its tables on first use
        out.writelines(rows(table, step))
        return
    row = ",".join([fmt] * len(header)) + "\n"
    for start in range(0, len(table), step):
        block = table[start:start + step]
        out.write(row * len(block) % tuple(block.ravel().tolist()))


def read_points(path) -> np.ndarray:
    """(N, 2) array of a two-column CSV, read by read_trace's line rule
    with the header optional and x in any order; a first line of two
    numbers is data."""
    lines = read_text(path).splitlines()
    first = 2 if lines and _header(lines[0]) else 1
    return np.column_stack(_rows(path, lines, first, False))
