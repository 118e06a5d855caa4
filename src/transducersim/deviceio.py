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
    """dBm of a power in watts, finite and > 0."""
    if not 0 < w < math.inf:
        raise ParameterError(
            f"power must be finite and > 0 W for dBm (got {w!r})")
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

# section -> (keys of which at most one may be given, keys of which one is
# needed)
_CHOICES = {
    "optical": (("kappa_o_hz", "kappa_oi_hz"), ("kappa_o_hz", "kappa_oi_hz")),
    "pump": (("p_on_chip_dbm", "p_on_chip_w"),
             ("p_on_chip_dbm", "p_on_chip_w", "n_c")),
}


def _field(key: str) -> str:
    """The record field a key sets: the key without its unit suffix."""
    return key if key in ("eta_oc", "n_c") else key.rsplit("_", 1)[0]


def _listed(keys) -> str:
    """'a or b', or 'a, b, or c'."""
    return (" or " if len(keys) == 2 else ", or ").join(
        [", ".join(keys[:-1]), keys[-1]])


def _suffix_hints(section: str, key: str) -> list:
    """The schema keys that key matches up to the unit suffix: those whose
    field is key, else those whose field is key less its last suffix."""
    for stem in (key, key.rsplit("_", 1)[0]):
        hints = [known for known in _SCHEMA[section][1] if _field(known) == stem]
        if hints:
            return hints
    return []


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
    # (id of a section's or block's dict, key) of each key a suffix hint
    # holds present, as None, only so that it is not also reported missing
    hinted = set()

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = f"{source}:{no}:"
        if line.startswith("[") and line.endswith("]"):
            block = line.startswith("[[") and line.endswith("]]")
            current, current_name = None, line[1 + block:-1 - block].strip()
            if block and current_name != "modes":
                violations.append(f"{at} unknown block [[{current_name}]]")
            elif block:
                current = {}
                modes_raw.append(current)
            elif current_name not in _SCHEMA or current_name == "modes":
                violations.append(f"{at} unknown section [{current_name}]")
            else:
                if current_name in sections:
                    violations.append(f"{at} duplicate section [{current_name}]")
                current = sections.setdefault(current_name, {})
            continue
        key, sep, value = line.partition("=" if "=" in line else ":")
        if not sep:
            violations.append(f"{at} expected 'key = value' (got {line!r})")
            continue
        key, value = key.strip(), value.strip()
        if current is None:
            violations.append(f"{at} '{key}' outside any section")
            continue
        if key not in _SCHEMA[current_name][1]:
            hints = _suffix_hints(current_name, key)
            if hints:
                violations.append(f"{at} '{key}' is missing its unit suffix; "
                                  "expected " + " or ".join(
                                      f"'{hint}'" for hint in hints))
                for hint in hints:
                    if hint not in current:
                        current[hint] = None
                        hinted.add((id(current), hint))
            else:
                violations.append(f"{at} unknown key '{key}' in [{current_name}]")
            continue
        if key in current and (id(current), key) not in hinted:
            violations.append(f"{at} duplicate key '{key}'")
            continue
        hinted.discard((id(current), key))
        # a key that is present but unusable holds None: not also missing
        try:
            current[key] = float(value)
        except ValueError:
            current[key] = None
            violations.append(f"{at} cannot parse number {value!r} for '{key}'")
            continue
        if not math.isfinite(current[key]):
            current[key] = None
            violations.append(f"{at} non-finite number {value!r} for '{key}'")

    # the sections and [[modes]] blocks that pass the key checks make records
    units = [(name, name, f"[{name}] missing key", sections.get(name))
             for name in _SCHEMA]
    units += [("modes", i, f"[[modes]] block {i} missing", block)
              for i, block in enumerate(modes_raw, start=1)]
    passed = {}
    for name, unit, missing, sec in units:
        kind, keys = _SCHEMA[name]
        if sec is None:
            if kind is DeviceParams:
                violations.append(f"{source}: missing required section [{name}]")
            continue
        before = len(violations)
        violations += [f"{source}: {missing} '{key}'"
                       for key, required in keys.items()
                       if required and key not in sec]
        if name in _CHOICES:
            at_most_one, needed = _CHOICES[name]
            given = {key for key in sec if (id(sec), key) not in hinted}
            if len(given & set(at_most_one)) > 1:
                violations.append(f"{source}: [{name}] give "
                                  f"{_listed(at_most_one)}, not both")
            if not sec.keys() & set(needed):
                violations.append(f"{source}: [{name}] needs {_listed(needed)}")
        if len(violations) == before and None not in sec.values():
            passed[unit] = sec

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
    """CSV of the trace's x and y columns under a `x_unit,y_unit` header."""
    write_columns(path, [trace.x_unit, trace.y_unit], [trace.x, trace.y])


def write_eye(eye, path) -> None:
    """Eye-diagram CSV of columns t_s (eye.t) and seg_NNN (eye.segments.T)."""
    header = ["t_s"] + [f"seg_{k:03d}" for k in range(len(eye.segments))]
    write_columns(path, header, [eye.t, eye.segments.T])


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
    for none, written as one column group by write_columns, so reading a
    cell back with float() reproduces its value bit for bit. A table of
    any other shape raises ParameterError before the file is opened.
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
    write_columns(path, header, [table])


def write_columns(path, header, columns) -> None:
    """CSV of the columns (_write_rows), each cell as "%.17g" prints it."""
    with open(path, "w") as out:
        _write_rows(out, header, columns, "%.17g")


def _write_rows(out, header, columns, fmt: str) -> None:
    """Write the header line, then each row of the columns (1-D float
    arrays and 2-D groups of adjacent columns, of one row count) in the
    %-format fmt to the text stream out, one block of _WRITE_CELLS cells
    copied from slices of them at a time: "%.17g" by _g17's formatter,
    which prints the same bytes, any other fmt by one % per block."""
    step = max(1, _WRITE_CELLS // len(header))
    out.write(",".join(header) + "\n")
    if fmt == "%.17g":
        from ._g17 import rows  # builds its tables on first use
        out.writelines(rows(columns, step))
        return
    row = ",".join([fmt] * len(header)) + "\n"
    for start in range(0, len(columns[0]), step):
        block = np.column_stack([c[start:start + step] for c in columns])
        out.write(row * len(block) % tuple(block.ravel().tolist()))


def read_points(path) -> np.ndarray:
    """(N, 2) array of a two-column CSV, read by read_trace's line rule
    with the header optional and x in any order; a first line of two
    numbers is data."""
    lines = read_text(path).splitlines()
    first = 2 if lines and _header(lines[0]) else 1
    return np.column_stack(_rows(path, lines, first, False))
