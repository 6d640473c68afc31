"""Batch command-line interface.

Subcommands: modes, evolve, kaon, scan, converge. Every command prints CSV
or JSON rows to stdout, or writes them to --out with a RunManifest beside
the file as `<out>.manifest.json`.

Exit codes: 0 ok, 2 invalid arguments or spec, 3 numeric-domain error
(singular or degenerate map, overflow) or any other lab error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import (USAGE_ERRORS, ChrononLabError, InvalidInput, OnePoint,
                     RefusedTooLarge)
from .evolution import (DEFAULT_GRID_CAP, ENGINES, TwoState, evolve, require_positive,
                        symmetric_hamiltonian)
from .kaon import kaon_trajectory, three_pion_intensity, two_pion_intensity
from .runner import (MODE_FIELDS, ScanSpec, Table, chronon_of, convergence_study, emit,
                     emit_with_manifest, float_column, kaon_from_config, load_kaon_config,
                     parse_complex_pair, point_row, run_scan, stack_columns)
from .spectrum import CONVENTIONS


def _add_output_args(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (writes a manifest too)")


def _add_chronon_args(sub):
    sub.add_argument("--energy", type=float, required=True)
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--tau-scale", type=float, default=1.0)
    sub.add_argument("--hbar", type=float, default=1.0)


def _cmd_modes(args):
    params = {"energy": args.energy, "n": args.n, "tau_scale": args.tau_scale,
              "hbar": args.hbar, "convention": args.convention}
    cells = point_row("mode_report", params)  # the symmetric H, diag 0
    cols = {c: stack_columns(cells[f"mode{k}_{c}"] for k in (0, 1)) for c in MODE_FIELDS}
    # direction: |lambda| grows (1), decays (-1) or is steady (0) per step.
    # reading: the sign of Im h_eff under the convention, where "standard"
    # (phases e^{-iEt/hbar}) reads a positive sign as growth and "paper"
    # (e^{+iEt/hbar}) as decay. Both go before the two ratio cells.
    mags, ims = cols["step_mag"][0].tolist(), cols["heff_im"][0].tolist()
    growth = args.convention == "standard"
    ratios = {c: cols.pop(c) for c in MODE_FIELDS[-2:]}
    table = Table({
        "mode": [0, 1], **cols,
        "direction": [(mag > 1) - (mag < 1) for mag in mags],
        "reading": ["steady" if im == 0 else "growth" if (im > 0) == growth else "decay"
                    for im in ims],
        **ratios, "nu_nonhermitian": stack_columns([cells["nu_nonhermitian"]] * 2)})
    return table, {"command": "modes", **params}


def _cmd_evolve(args):
    p, units = chronon_of(vars(args), "energy")
    psi0 = TwoState(parse_complex_pair(args.psi0))
    traj = evolve(symmetric_hamiltonian(args.energy), psi0, args.engine,
                  args.t_max, args.steps, p, units)
    a0, a1 = traj.states.T
    table = Table({name: float_column(col) for name, col in (
        ("t", traj.times), ("a0_re", a0.real), ("a0_im", a0.imag), ("a1_re", a1.real),
        ("a1_im", a1.imag), ("norm2", traj.norm_sq()))})
    params = {"command": "evolve", "engine": args.engine, "energy": args.energy,
              "n": args.n, "tau_scale": args.tau_scale, "hbar": args.hbar,
              "t_max": args.t_max, "steps": args.steps, "psi0": args.psi0}
    return table, params


def _cmd_kaon(args):
    cfg = load_kaon_config(args.config)
    params = {"command": "kaon", "config": str(args.config),
              "observable": args.observable, "engine": args.engine, **cfg}

    if args.observable in ("2pi", "3pi"):
        model, p = kaon_from_config(cfg)
        t_max = cfg.get("t_max")
        if t_max is None:
            raise InvalidInput("config must set t_max for trajectory observables")
        steps = cfg.get("steps")
        if steps is None:
            if args.engine == "discrete":
                require_positive(OnePoint, "t_max", t_max)
                count = t_max / p.step(model.units)
                # checked before rounding, as the quotient may be inf or have
                # 300 digits; printed to the cap's 7 digits. One just below the
                # cap is rounded and left to evolve's check.
                if not count < DEFAULT_GRID_CAP:
                    raise RefusedTooLarge(f"trajectory has {count:.7g} steps, {count + 1:.7g} "
                                          f"rows; cap is {DEFAULT_GRID_CAP} rows")
                steps = max(1, round(count))
            else:
                raise InvalidInput("config must set steps for continuous trajectories")
        traj = kaon_trajectory(model, args.engine, t_max, steps, p, cfg["psi0"])
        series = (two_pion_intensity if args.observable == "2pi"
                  else three_pion_intensity)(traj, model)
        t, rate = np.array(series).T
        return Table({"t": float_column(t), "rate": float_column(rate)}), params

    # one point of the scan evaluators, raising so that domain errors exit 3
    if args.observable == "epsilon":
        cols = {"engine": [args.engine],
                **point_row("epsilon", {**cfg, "engine": args.engine})}
    else:  # width-shift (engine-independent)
        cols = point_row("width_shift", cfg)
    return Table(cols), params


def _cmd_scan(args):
    spec = ScanSpec.from_json_file(args.spec)
    table = run_scan(spec, workers=args.workers)
    return table, {"command": "scan", "workers": args.workers, "spec": spec.to_dict()}


def _cmd_converge(args):
    try:
        m_list = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInput(f"bad --m-list: {exc}") from exc
    table = convergence_study(args.energy, args.t_max, m_list, hbar=args.hbar)
    params = {"command": "converge", "energy": args.energy, "t_max": args.t_max,
              "m_list": m_list, "hbar": args.hbar}
    return table, params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronon-lab",
        description="Quantized-time two-state evolution laboratory")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("modes", help="effective-energy report for the symmetric H")
    _add_chronon_args(sub)
    sub.add_argument("--convention", choices=CONVENTIONS, default="paper")
    _add_output_args(sub)
    sub.set_defaults(handler=_cmd_modes)

    sub = subs.add_parser("evolve", help="generate a trajectory")
    sub.add_argument("--engine", choices=ENGINES, required=True)
    _add_chronon_args(sub)
    sub.add_argument("--t-max", type=float, required=True)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--psi0", default="1,0", help="two complex amplitudes, e.g. '1,0'")
    _add_output_args(sub)
    sub.set_defaults(handler=_cmd_evolve)

    sub = subs.add_parser("kaon", help="kaon-model observables from a config file")
    sub.add_argument("--config", required=True)
    sub.add_argument("--observable", choices=("2pi", "3pi", "epsilon", "width-shift"),
                     required=True)
    sub.add_argument("--engine", choices=ENGINES, default="continuous")
    _add_output_args(sub)
    sub.set_defaults(handler=_cmd_kaon)

    sub = subs.add_parser("scan", help="run a parameter scan from a JSON spec")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--workers", type=int, default=1,
                     help="at least 1, recorded in the manifest; scans run in one process")
    _add_output_args(sub)
    sub.set_defaults(handler=_cmd_scan)

    sub = subs.add_parser("converge", help="integrator convergence study")
    sub.add_argument("--energy", type=float, required=True)
    sub.add_argument("--t-max", type=float, required=True)
    sub.add_argument("--m-list", required=True, help="comma-separated step counts")
    sub.add_argument("--hbar", type=float, default=1.0)
    _add_output_args(sub)
    sub.set_defaults(handler=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table, params = args.handler(args)
        if args.out:
            emit_with_manifest(table, args.format, args.out, params)
        else:
            emit(table, args.format)
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
