"""Command-line interface.

Subcommands: efficiency, spectrum, fit, link, swap, sweep. All
stochastic paths are controlled by --seed (default 0), so identical
invocations produce byte-identical output files. Exit codes: 0 success,
2 validation error, 3 fit non-convergence.
"""

import argparse
import re
import sys

from . import core
from .deviceio import (_write_rows, load_device, parse_power, read_points,
                       read_text, read_trace, write_columns, write_eye,
                       write_trace)
from .errors import FitError, TransducerError
from .fitting import (fit_linewidth_vs_photons, fit_lorentzian_multi,
                      fit_optical_dip, fit_phase_detuning)
from .link import LinkConfig, _measure, parse_bits, run_link
from .spectra import driven_spectrum, s_oe_spectrum, thermal_spectrum
from .swap import rabi_swap_sim
from .sweep import SweepSpec, evaluate, override, sweep_table
from .trace import grid


def _report(pairs, notes=(), note_file=None) -> None:
    """Print a command's report: one `name = value` line per pair, then
    one `note: ...` line per note, on stdout or on note_file. A float
    prints at 10 significant digits, a (value, error) tuple as `value +/-
    error` with the error at 4, anything else by str()."""
    for name, value in pairs:
        if isinstance(value, tuple):
            value = f"{value[0]:.10g} +/- {value[1]:.4g}"
        elif isinstance(value, float):
            value = f"{value:.10g}"
        print(f"{name} = {value}")
    for note in notes:
        print(f"note: {note}", file=note_file)


def _pumped(args, env):
    """(bundle, env) of --device with --power, --n-c and --detuning applied."""
    values = {} if args.n_c is None else {"pump.n_c": args.n_c}
    if args.power:
        values["pump.p_on_chip"] = parse_power(args.power)
    return override(load_device(args.device), values, env, sign=args.detuning)


def _default_grid(modes, args):
    span = 10 * max(m.gamma for m in modes)
    f_lo = args.f_start if args.f_start is not None \
        else min(m.f for m in modes) - span
    f_hi = args.f_stop if args.f_stop is not None \
        else max(m.f for m in modes) + span
    return grid(f_lo, f_hi, _points(args), ("--f-start", "--f-stop", "--points"))


def _points(args) -> int:
    """--points of a spectrum or a Rabi grid, which needs two or more."""
    if args.points < 2:
        raise TransducerError(f"--points must be >= 2 (got {args.points})")
    return args.points


# ---------------------------------------------------------------- subcommands

def cmd_efficiency(args) -> int:
    bundle, env = _pumped(args, {})
    q = evaluate(("n_c", "gamma_om", "gamma_tot", "c_om", "eta_o", "eta_em",
                  "eta_tot"), bundle, env)
    _report([
        ("device", str(args.device)),
        ("detuning_sign", bundle.pump.sign),
        ("n_c", q["n_c"]),
        ("gamma_om_hz", q["gamma_om"]),
        ("gamma_tot_hz", q["gamma_tot"]),
        ("c_om", q["c_om"]),
        ("eta_oc", bundle.device.eta_oc),
        ("eta_o", q["eta_o"]),
        ("eta_em", q["eta_em"]),
        ("eta_tot", q["eta_tot"]),
    ])
    return 0


def cmd_spectrum(args) -> int:
    if args.kind == "driven" and not args.power_mu:
        raise TransducerError("spectrum driven needs --power-mu")
    bundle, env = _pumped(args, {"temperature": args.temperature})
    dev = bundle.device
    modes = bundle.mechanical_modes
    f = _default_grid(modes, args)
    n_c, n_th = evaluate(("n_c", "n_th"), bundle, env).values()
    if args.kind == "thermal":
        trace = thermal_spectrum(dev, modes, n_c, n_th, f)
    elif args.kind == "driven":
        p_mu = parse_power(args.power_mu)
        drive_f = args.drive_f if args.drive_f is not None else dev.f_m
        trace = driven_spectrum(dev, modes, n_c, n_th, drive_f, p_mu,
                                args.rbw, f)
    else:
        trace = s_oe_spectrum(dev, modes, bundle.pump, f)
    # gamma_tot raises at a blue pump's parametric threshold, as efficiency
    # does; after the spectrum, whose own overflow errors name their inputs
    evaluate(("gamma_tot",), bundle, env)
    write_trace(trace, args.out)
    _report([("kind", args.kind), ("points", len(trace)),
             ("n_c", n_c), ("n_th", n_th), ("out", args.out)])
    return 0


def cmd_fit(args) -> int:
    if args.model == "dip":
        result = fit_optical_dip(read_trace(args.trace), branch=args.branch)
    elif args.model == "phase":
        bundle = load_device(args.device)
        result = fit_phase_detuning(read_trace(args.mag), read_trace(args.phase),
                                    bundle.device)
    elif args.model == "linewidth":
        if args.kappa_o is not None:
            kappa_o = args.kappa_o
        elif args.device is not None:
            kappa_o = load_device(args.device).device.kappa_o
        else:
            raise TransducerError("fit linewidth needs --kappa-o or --device")
        result = fit_linewidth_vs_photons(read_points(args.points), args.sign,
                                          kappa_o)
    else:
        background = args.background
        if args.reference is not None:
            if background == "linear":
                raise TransducerError("--reference fits a constant background "
                                      "and cannot be combined with "
                                      "--background linear")
            background = read_trace(args.reference)
        result = fit_lorentzian_multi(read_trace(args.trace), args.n_peaks,
                                      background)
    errors = result.stderr
    _report([(name, (value, errors[name]) if name in errors else value)
             for name, value in result.params.items()]
            + [("residual_norm", f"{result.residual_norm:.6g}"),
               ("converged", result.converged)], result.notes)
    return 0 if result.converged else 3


def cmd_link(args) -> int:
    bits = parse_bits(args.bits if args.bits is not None
                      else read_text(args.bits_file))
    cfg = LinkConfig(bits=bits, rate=args.rate, gamma_m=args.gamma_m,
                     f_if=args.f_if, v0=args.v0, noise_rms=args.noise_rms,
                     samples_per_bit=args.samples_per_bit,
                     drive_mode=args.drive_mode)
    core.require(nonnegative={"--seed": args.seed})
    run = run_link(cfg, seed=args.seed)
    eye, metrics, notes = _measure(run, cfg)  # an overflow raises before a write
    envelope, iq = run.envelope, [run.time, run.i_trace.y, run.q_trace.y]
    del run     # beta, never written, is freed before the writes
    env_path = f"{args.out_prefix}_envelope.csv"
    write_trace(envelope, env_path)
    iq_path = f"{args.out_prefix}_iq.csv"
    write_columns(iq_path, ["t_s", "i_v", "q_v"], iq)
    outputs = [("envelope", env_path), ("iq", iq_path)]
    if eye is not None:
        eye_path = f"{args.out_prefix}_eye.csv"
        write_eye(eye, eye_path)
        outputs.append(("eye", eye_path))
    _report(list(metrics.items()) + outputs, notes, sys.stderr)
    return 0


def cmd_swap(args) -> int:
    bundle = load_device(args.device)
    qubit = bundle.qubit
    if qubit is None:
        raise TransducerError("device file has no [qubit] section")
    if args.gamma_mi is not None:
        bundle, _ = override(bundle, {"device.gamma_mi": args.gamma_mi}, {})
    q = evaluate(("z_q", "g_em", "threshold_gamma", "c_em"), bundle, {})
    outputs = []
    if args.rabi_out:
        t_max = args.t_max if args.t_max is not None \
            else 4.0 / max(q["g_em"], 1.0)
        core.require(positive={"--t-max": t_max})
        t_grid = grid(0.0, t_max, _points(args), (None, "--t-max", "--points"))
        qubit_tr, mech_tr = rabi_swap_sim(bundle.device, qubit, t_grid,
                                          lossless=args.lossless)
        write_columns(args.rabi_out, ["t_s", "qubit_excitation", "phonons"],
                      [t_grid, qubit_tr.y, mech_tr.y])
        outputs.append(("rabi_out", args.rabi_out))
    _report([
        ("z_q_ohm", q["z_q"]),
        ("g_em_hz", q["g_em"]),
        ("threshold_gamma_hz", q["threshold_gamma"]),
        ("gamma_mi_hz", bundle.device.gamma_mi),
        ("feasible", bundle.device.gamma_mi < q["threshold_gamma"]),
        ("c_em", q["c_em"]),
    ] + outputs)
    return 0


def _parse_values(text: str) -> tuple:
    """The floats of one comma-separated --values list."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as err:   # the message quotes the token
        raise TransducerError(f"--values: {err}") from None


def cmd_sweep(args) -> int:
    bundle = load_device(args.device)
    if args.values:
        if any(v is not None for v in (args.start, args.stop, args.count,
                                         args.scale)):
            raise TransducerError("--values cannot be combined with "
                                  "--start/--stop/--count/--scale")
        if len(args.param) != len(args.values):
            raise TransducerError("each --param needs a matching --values list")
        targets = tuple((path, _parse_values(vals))
                        for path, vals in zip(args.param, args.values))
    else:
        if len(args.param) != 1:
            raise TransducerError("range sweeps take exactly one --param")
        if args.start is None or args.stop is None:
            raise TransducerError("range sweeps need --start and --stop")
        values = grid(args.start, args.stop,
                      10 if args.count is None else args.count,
                      ("--start", "--stop", "--count"), args.scale or "linear")
        targets = ((args.param[0], tuple(values.tolist())),)
    spec = SweepSpec(targets=targets, quantities=tuple(args.quantity))
    drive_p_mu = parse_power(args.power_mu) if args.power_mu else None
    table = sweep_table(spec, bundle, temperature=args.temperature,
                        drive_p_mu=drive_p_mu)
    header = [path for path, _ in spec.targets] + list(spec.quantities)
    columns = [table[name] for name in header]
    if args.out:
        write_columns(args.out, header, columns)
        _report([("rows", spec.n_rows), ("out", args.out)])
    else:
        _write_rows(sys.stdout, header, columns, "%.10g")
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transducersim",
        description="Piezo-optomechanical transducer simulation and analysis")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all stochastic paths (default 0)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("efficiency", help="conversion-efficiency chain")
    p.add_argument("--device", required=True)
    p.add_argument("--power", help="on-chip pump power, e.g. -7.9dbm or 1.6e-4w")
    p.add_argument("--n-c", dest="n_c", type=float, help="intracavity photons")
    p.add_argument("--detuning", choices=["blue", "red"])
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("spectrum", help="synthesize spectra to CSV")
    p.add_argument("kind", choices=["thermal", "driven", "soe"])
    p.add_argument("--device", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--power", help="on-chip pump power (dbm/w suffix)")
    p.add_argument("--n-c", dest="n_c", type=float)
    p.add_argument("--detuning", choices=["blue", "red"])
    p.add_argument("--power-mu", help="microwave drive power (dbm/w suffix)")
    p.add_argument("--drive-f", type=float)
    p.add_argument("--rbw", type=float, default=50e3)
    p.add_argument("--f-start", type=float)
    p.add_argument("--f-stop", type=float)
    p.add_argument("--points", type=int, default=4001)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="parameter extraction from trace CSVs")
    fit_sub = p.add_subparsers(dest="model", required=True)
    q = fit_sub.add_parser("dip")
    q.add_argument("--trace", required=True)
    q.add_argument("--branch", choices=["under", "over"])
    q = fit_sub.add_parser("phase")
    q.add_argument("--mag", required=True)
    q.add_argument("--phase", required=True)
    q.add_argument("--device", required=True)
    q = fit_sub.add_parser("linewidth")
    q.add_argument("--points", required=True, help="CSV of n_c,gamma_hz rows")
    q.add_argument("--sign", choices=["blue", "red"], required=True)
    q.add_argument("--kappa-o", dest="kappa_o", type=float)
    q.add_argument("--device")
    q = fit_sub.add_parser("lorentz")
    q.add_argument("--trace", required=True)
    q.add_argument("--n-peaks", dest="n_peaks", type=int, required=True)
    q.add_argument("--background", choices=["constant", "linear"],
                   default="constant")
    q.add_argument("--reference", help="off-resonance background trace CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("link", help="bit-array transmission simulation")
    bits = p.add_mutually_exclusive_group(required=True)
    bits.add_argument("--bits", help="bit string, e.g. 010110")
    bits.add_argument("--bits-file")
    p.add_argument("--rate", type=float, required=True, help="bit/s")
    p.add_argument("--gamma-m", dest="gamma_m", type=float, required=True)
    p.add_argument("--f-if", dest="f_if", type=float, default=50e6)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--noise-rms", dest="noise_rms", type=float, default=0.0)
    p.add_argument("--samples-per-bit", dest="samples_per_bit", type=int,
                   help="default: chosen from gamma_m, f_if, and the rate")
    p.add_argument("--drive-mode", choices=["coherent", "thermal"],
                   default="coherent")
    p.add_argument("--out-prefix", default="link")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("swap", help="qubit-swap feasibility report")
    p.add_argument("--device", required=True)
    p.add_argument("--gamma-mi", dest="gamma_mi", type=float,
                   help="override the mechanical loss rate, Hz")
    p.add_argument("--rabi-out", help="write a Rabi exchange CSV here")
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--points", type=int, default=801)
    p.add_argument("--lossless", action="store_true")
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("sweep", help="parameter sweep to a CSV table")
    p.add_argument("--device", required=True)
    p.add_argument("--param", action="append", default=[],
                   help="dotted path, e.g. pump.n_c (repeatable, zipped)")
    p.add_argument("--values", action="append", default=[],
                   help="comma-separated values for the matching --param")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--count", type=int, help="range points (default 10)")
    p.add_argument("--scale", choices=["linear", "log"],
                   help="range spacing (default linear)")
    p.add_argument("--quantity", action="append", required=True,
                   help="output quantity (repeatable)")
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--power-mu", help="microwave drive power for phonon counts")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    _accept_negative_values(parser)
    return parser


def _accept_negative_values(parser) -> None:
    """Let option values like -7.9dbm or -5e6 parse as values, not flags."""
    parser._negative_number_matcher = re.compile(r"^-\d")
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                _accept_negative_values(sub)


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except FitError as err:
        print(f"fit error: {err}", file=sys.stderr)
        return 3
    except (TransducerError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: out of memory ({err})", file=sys.stderr)
        return 2
    except OverflowError as err:
        print(f"error: numeric overflow ({err})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
