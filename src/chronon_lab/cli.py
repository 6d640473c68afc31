"""Batch command-line interface.

Subcommands: modes, evolve, kaon, scan, converge. Every command prints CSV
or JSON rows to stdout, or writes them to --out with a run manifest beside
the file as `<out>.manifest.json`, in one `runner.emit` call. A parameter
flag is built from `evolution.PARAMETERS` and its string coerced by
`coerce_param`, as a scan spec or kaon config key of the same name is. A
flag's value may start with '-' whether it is written `--flag=value` or
`--flag value`.

Each command is a params step and a table function in `COMMANDS`: the
first reads the flags, and the config or spec they name, into the dict that
the manifest records; the second makes the table from that dict alone.
`run_scan`, `convergence_study` and `emit` are looked up in this module
when they are called, where perfbench's tracer rebinds them.

Exit codes: 0 ok, 2 invalid arguments or spec, 3 numeric-domain error
(singular or degenerate map, overflow) or any other lab error, 4 I/O error.

Importing this module loads NumPy and the modules that every command runs
(the evolution engines and the output path, `runner`), which the process
entry point then freezes. A command imports the rest of what it runs,
`quantities` (the scan evaluators), `spectrum` or `kaon`, when it runs.
"""

from __future__ import annotations

import argparse
import sys

from .errors import USAGE_ERRORS, ChrononLabError
from .evolution import (PARAMETERS, chronon_of, coerce_param, evolve, parse_complex_pair,
                        symmetric_hamiltonian)
from .runner import (FORMATS, Table, convergence_study, emit, float_column, run_scan,
                     stack_columns)


_MODES = ("energy", "n", "tau_scale", "hbar", "convention")
_EVOLVE = ("engine", "energy", "n", "tau_scale", "hbar", "t_max", "steps", "psi0")
_HELP = {"psi0": "two complex amplitudes, e.g. '1,0'"}
# the choice flags that name no parameter, refused by `main` before the command runs
_CHOICES = {"format": FORMATS, "observable": ("2pi", "3pi", "epsilon", "width-shift")}


def _add_params(sub, names, required=()):
    """A flag `--name-with-dashes` per parameter of `names`, required if it has
    no default or is in `required`. A tuple kind's strings are its metavar,
    the text argparse would build from `choices`; `coerce_param` refuses
    another string, as it does for a spec or config key."""
    for name in names:
        kind, default, _ = PARAMETERS[name]
        metavar = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else None
        sub.add_argument("--" + name.replace("_", "-"), help=_HELP.get(name), metavar=metavar,
                         required=default is None or name in required)


def _params(args, names) -> dict:
    """The flags of `names` coerced as spec and config keys are, or their defaults."""
    return {k: PARAMETERS[k][1] if (v := getattr(args, k)) is None
            else coerce_param(k, v, PARAMETERS[k][0]) for k in names}


def _kaon_params(args) -> dict:
    from .quantities import load_kaon_config
    engine = _params(args, ("engine",))["engine"]  # a bad flag is refused before the file is read
    return {"config": str(args.config), "observable": args.observable, "engine": engine,
            **load_kaon_config(args.config)}


def _scan_params(args) -> dict:
    from .quantities import ScanSpec
    return {"workers": args.workers, "spec": ScanSpec.from_json_file(args.spec).to_dict()}


def _converge_params(args) -> dict:
    params = _params(args, ("energy", "t_max"))  # the first bad flag in this order is refused
    m_list = [coerce_param("m_list", tok, int) for tok in args.m_list.split(",") if tok.strip()]
    return {**params, "m_list": m_list, **_params(args, ("hbar",))}


def _modes(params) -> Table:
    from .quantities import MODE_FIELDS, point_row
    cells = point_row("mode_report", params)  # the symmetric H, diag 0
    cols = {c: stack_columns(cells[f"mode{k}_{c}"] for k in (0, 1)) for c in MODE_FIELDS}
    # direction: the sign of Im h_eff, that of ln|lambda|: |lambda| grows (1),
    # decays (-1) or is steady (0) per step, also where |lambda| rounds to 1.
    # reading: that sign under the convention, where "standard" (phases
    # e^{-iEt/hbar}) reads a positive sign as growth and "paper"
    # (e^{+iEt/hbar}) as decay. Both go before the two ratio cells.
    ims = cols["heff_im"][0].tolist()
    growth = params["convention"] == "standard"
    ratios = {c: cols.pop(c) for c in MODE_FIELDS[-2:]}
    return Table({
        "mode": [0, 1], **cols,
        "direction": [(im > 0) - (im < 0) for im in ims],
        "reading": ["steady" if im == 0 else "growth" if (im > 0) == growth else "decay"
                    for im in ims],
        **ratios, "nu_nonhermitian": stack_columns([cells["nu_nonhermitian"]] * 2)})


def _evolve(params) -> Table:
    p, units = chronon_of(params, "energy")
    traj = evolve(symmetric_hamiltonian(params["energy"]), parse_complex_pair(params["psi0"]),
                  params["engine"], params["t_max"], params["steps"], p, units)
    a0, a1 = traj.states.T
    return Table({name: float_column(col) for name, col in (
        ("t", traj.times), ("a0_re", a0.real), ("a0_im", a0.imag), ("a1_re", a1.real),
        ("a1_im", a1.imag), ("norm2", traj.norm_sq()))})


def _kaon(params) -> Table:  # of the config's values; its path is only recorded
    from .quantities import kaon_from_config, point_row
    observable = params["observable"]
    if observable in ("2pi", "3pi"):
        from .kaon import kaon_trajectory, three_pion_intensity, two_pion_intensity
        model, p = kaon_from_config(params)
        traj = kaon_trajectory(model, params["engine"], params.get("t_max"),
                               params.get("steps"), p, params["psi0"])
        t, rate = (two_pion_intensity if observable == "2pi"
                   else three_pion_intensity)(traj, model)
        return Table({"t": float_column(t), "rate": float_column(rate)})
    # one point of the scan evaluators, raising so that domain errors exit 3
    if observable == "epsilon":
        return Table({"engine": [params["engine"]], **point_row("epsilon", params)})
    return Table(point_row("width_shift", params))  # width-shift (engine-independent)


def _scan(params) -> Table:
    from .quantities import ScanSpec
    return run_scan(ScanSpec.from_dict(params["spec"]), workers=params["workers"])


def _converge(params) -> Table:
    return convergence_study(*(params[k] for k in ("energy", "t_max", "m_list", "hbar")))


def _kaon_args(sub):
    sub.add_argument("--config", required=True)
    sub.add_argument("--observable", metavar="{%s}" % ",".join(_CHOICES["observable"]),
                     required=True)
    _add_params(sub, ("engine",))


def _scan_args(sub):
    sub.add_argument("--spec", required=True)
    sub.add_argument("--workers", type=int, default=1,
                     help="at least 1, recorded in the manifest; scans run in one process")


def _converge_args(sub):
    _add_params(sub, ("energy", "t_max"))
    sub.add_argument("--m-list", required=True, help="comma-separated step counts")
    _add_params(sub, ("hbar",))


# name -> (help, the arguments before --format and --out, params step, table function)
COMMANDS = {
    "modes": ("effective-energy report for the symmetric H",
              lambda sub: _add_params(sub, _MODES), lambda args: _params(args, _MODES), _modes),
    "evolve": ("generate a trajectory",
               lambda sub: _add_params(sub, _EVOLVE, required=("engine",)),
               lambda args: _params(args, _EVOLVE), _evolve),
    "kaon": ("kaon-model observables from a config file", _kaon_args, _kaon_params, _kaon),
    "scan": ("run a parameter scan from a JSON spec", _scan_args, _scan_params, _scan),
    "converge": ("integrator convergence study", _converge_args, _converge_params, _converge),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command line: each subcommand with its arguments."""
    parser = argparse.ArgumentParser(prog="chronon-lab",
                                     description="Quantized-time two-state evolution laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _, _) in COMMANDS.items():
        add_args(sub := subs.add_parser(name, help=help_text))
        sub.add_argument("--format", metavar="{%s}" % ",".join(FORMATS), default="csv")
        sub.add_argument("--out", default=None, help="output path (writes a manifest too)")
    return parser


def _join_values(argv) -> list:
    """argv with `--flag value` written `--flag=value` where the value starts
    with a single '-', which argparse reads as an option unless it looks like
    -12 or -1.5. `-h`, `--` and a prefix of `--help` stay options."""
    out = []
    for tok in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] = f"{flag}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_values(argv))
    try:
        for key in (k for k in _CHOICES if k in vars(args)):
            coerce_param(key, getattr(args, key), _CHOICES[key])
        _, _, params_of, table_of = COMMANDS[args.command]
        params = {"command": args.command, **params_of(args)}  # what the manifest records
        emit(table_of(params), args.format, args.out, params)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChrononLabError as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
