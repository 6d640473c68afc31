"""The benchmark's workloads: every `chronon-lab` command line, built from a seed.

A workload is a fixed sequence of commands. The seed moves grid bounds, the
`cli_mix` parameters and (in `oracles`) which rows are checked; it never
changes how many points, steps or commands there are. `tiny=True` shrinks
every size for the smoke test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracles import read_kaon_config

# Shipped kaon configs, relative to the repository root; cli_mix runs every
# observable on both.
KAON_CONFIGS = ("configs/kaon_natural.cfg", "configs/kaon_physical.cfg")


@dataclass
class Command:
    """One CLI invocation: `python -m chronon_lab <argv>`.

    `check` names an oracle in `oracles.CHECKS`; `params` is what it needs.
    `out` is the --out path, or None when the rows go to stdout.
    """

    argv: list[str]
    rows: int
    check: str
    params: dict
    fmt: str = "csv"
    out: str | None = None

    @property
    def workers(self) -> int:
        """The --workers value, 1 when the command has none."""
        if "--workers" not in self.argv:
            return 1
        return int(self.argv[self.argv.index("--workers") + 1])


@dataclass
class Workload:
    name: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)  # path -> text to write
    sizes: dict = field(default_factory=dict)

    def write_files(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="utf-8")

    def total_rows(self) -> int:
        return sum(c.rows for c in self.commands)


def _log_axis(name, start, stop, count):
    return {"name": name, "start": start, "stop": stop, "count": count,
            "spacing": "log"}


def _lin_axis(name, start, stop, count):
    return {"name": name, "start": start, "stop": stop, "count": count,
            "spacing": "linear"}


def _scan(work: Path, idx: int, spec: dict, extra: list[str], fmt="csv",
          to_file=False) -> tuple[Command, str, str]:
    """A `scan` command over `spec`; returns the command and its spec file."""
    spec_path = str(work / f"spec{idx}.json")
    argv = ["scan", "--spec", spec_path, *extra, "--format", fmt]
    out = None
    if to_file:
        out = str(work / f"out{idx}.{fmt}")
        argv += ["--out", out]
    rows = 1
    for ax in spec["grid"]:
        rows *= ax["count"]
    cmd = Command(argv, rows, "scan", {"spec": spec}, fmt, out)
    return cmd, spec_path, json.dumps(spec, indent=2)


def _build_scans(name: str, specs: list[tuple[dict, list[str], str, bool]],
                 work: Path, sizes: dict) -> Workload:
    commands, files = [], {}
    for idx, (spec, extra, fmt, to_file) in enumerate(specs):
        cmd, path, text = _scan(work, idx, spec, extra, fmt, to_file)
        commands.append(cmd)
        files[path] = text
    return Workload(name, commands, files, sizes)


def scan_modes(rng: random.Random, work: Path, tiny: bool, root: Path) -> Workload:
    n_e, n_t = (4, 5) if tiny else (50, 100)
    spec = {
        "quantity": "mode_report",
        "grid": [
            _log_axis("energy", 10 ** rng.uniform(-3, -2.5),
                      10 ** rng.uniform(2.5, 3), n_e),
            # stop exactly at 1 so every energy has a tau_scale = 1 row
            _log_axis("tau_scale", 10 ** rng.uniform(-3, -2.5), 1.0, n_t),
        ],
        "fixed": {"n": 1, "hbar": 1.0, "convention": "paper"},
    }
    return _build_scans("scan_modes", [(spec, ["--workers", "1"], "csv", False)],
                        work, {"points": n_e * n_t, "workers": 1})


def kernels_long(rng: random.Random, work: Path, tiny: bool, root: Path) -> Workload:
    points, steps, top = (4, 200, 8) if tiny else (80, 10_000, 18)
    # tau_scale = 1e-3 keeps |lambda|^(2 steps) finite over 1e4 steps; at
    # tau_scale = 1 each discrete step grows the magnitude by sqrt 2, which
    # overflows after about 2000 steps.
    tau_scale = 1e-3
    discrete = {
        "quantity": "trajectory-observable",
        "grid": [_lin_axis("diag", rng.uniform(-2, -1), rng.uniform(1, 2), points)],
        "fixed": {"energy": 1.0, "engine": "discrete", "n": 1, "hbar": 1.0,
                  "tau_scale": tau_scale, "steps": steps,
                  "t_max": steps * tau_scale, "psi0": "1,0",
                  "observable": "norm2_final"},
    }
    continuous = {
        "quantity": "trajectory-observable",
        "grid": [_log_axis("energy", 10 ** rng.uniform(-3, -2.5),
                           10 ** rng.uniform(2.5, 3), points)],
        "fixed": {"engine": "continuous", "hbar": 1.0, "steps": steps,
                  "t_max": 10.0, "psi0": "1,0", "observable": "prob_final",
                  "direction": "1,0"},
    }
    wl = _build_scans("kernels_long", [(discrete, [], "csv", False),
                                       (continuous, [], "csv", False)], work,
                      {"converge_m_max": 2 ** top, "scan_points": points,
                       "scan_steps": steps})
    m_list = [2 ** k for k in range(4, top + 1)]
    wl.commands.insert(0, _converge(1.0, 1.0, m_list))
    return wl


def pool_kaon(rng: random.Random, work: Path, tiny: bool, root: Path) -> Workload:
    n_t, n_p = (4, 5) if tiny else (50, 100)
    tau_axis = _log_axis("tau_scale", 10 ** rng.uniform(-3, -2.5), 1.0, n_t)
    epsilon = {
        "quantity": "epsilon",
        "grid": [tau_axis, _lin_axis("delta_re", rng.uniform(1e-3, 2e-3),
                                     rng.uniform(0.04, 0.05), n_p)],
        "fixed": {"mixing_e": 1.0, "gamma_s": 0.1, "gamma_l": 0.001,
                  "delta_im": 0.0, "n": 1, "hbar": 1.0, "engine": "discrete"},
    }
    widths = {
        "quantity": "width_shift",
        "grid": [tau_axis, _lin_axis("gamma_s", rng.uniform(0.05, 0.1),
                                     rng.uniform(0.4, 0.5), n_p)],
        "fixed": {"mixing_e": 1.0, "gamma_l": 0.001, "delta_re": 0.02,
                  "delta_im": 0.0, "n": 1, "hbar": 1.0},
    }
    pool = ["--workers", "2"]
    return _build_scans("pool_kaon", [(epsilon, pool, "json", True),
                                      (widths, pool, "json", True)], work,
                        {"points_per_scan": n_t * n_p, "scans": 2, "workers": 2})


def _converge(energy: float, t_max: float, m_list: list[int]) -> Command:
    argv = ["converge", "--energy", repr(energy), "--t-max", repr(t_max),
            "--m-list", ",".join(map(str, m_list))]
    return Command(argv, len(m_list), "converge",
                   {"energy": energy, "t_max": t_max, "hbar": 1.0})


def _psi0(rng: random.Random) -> str:
    a = complex(round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
    b = complex(round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
    return f"{a!r},{b!r}".replace("(", "").replace(")", "")


def cli_mix(rng: random.Random, work: Path, tiny: bool, root: Path) -> Workload:
    n_modes, n_disc, n_cont, n_conv, steps = (2, 1, 1, 1, 50) if tiny \
        else (16, 4, 5, 4, 2000)
    cmds = []
    for k in range(n_modes):
        energy = 10 ** rng.uniform(-3, 3)
        n = rng.choice((1, 2, 3))
        # half the modes commands sit at the chronon point tau_scale = 1
        tau_scale = 1.0 if k % 2 == 0 else 10 ** rng.uniform(-3, 0)
        hbar = 10 ** rng.uniform(-1, 1)
        convention = ("paper", "standard")[k % 4 // 2]
        fmt = ("csv", "json")[k % 2]
        argv = ["modes", "--energy", repr(energy), "--n", str(n),
                "--tau-scale", repr(tau_scale), "--hbar", repr(hbar),
                "--convention", convention, "--format", fmt]
        cmds.append(Command(argv, 2, "modes", {
            "energy": energy, "n": n, "tau_scale": tau_scale, "hbar": hbar,
            "convention": convention}, fmt))
    for rel in KAON_CONFIGS:
        cfg = str(root / rel)
        series_rows = read_kaon_config(cfg)["steps"] + 1
        for obs, engine in (("2pi", "continuous"), ("3pi", "continuous"),
                            ("epsilon", "continuous"), ("epsilon", "discrete"),
                            ("width-shift", "continuous")):
            fmt = "json" if obs == "width-shift" else "csv"
            argv = ["kaon", "--config", cfg, "--observable", obs,
                    "--engine", engine, "--format", fmt]
            rows = series_rows if obs in ("2pi", "3pi") else 1
            cmds.append(Command(argv, rows, "kaon",
                                {"config": cfg, "observable": obs,
                                 "engine": engine}, fmt))
    # the README's short discrete evolve at the chronon point
    cmds.append(_evolve("discrete", 1.0, 1, 1.0, 10.0, 10, "1,0"))
    for _ in range(n_disc):
        energy = 10 ** rng.uniform(-1, 1)
        n = rng.choice((1, 2))
        tau_scale = 10 ** rng.uniform(-3, -2)
        t_max = steps * n * tau_scale / energy
        cmds.append(_evolve("discrete", energy, n, tau_scale, t_max, steps,
                            _psi0(rng)))
    for _ in range(n_cont):
        cmds.append(_evolve("continuous", 10 ** rng.uniform(-1, 1), 1, 1.0,
                            rng.uniform(1, 20), steps, _psi0(rng)))
    for _ in range(n_conv):
        cmds.append(_converge(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                              [16, 32, 64, 128, 256]))
    return Workload("cli_mix", cmds, {}, {"commands": len(cmds),
                                          "evolve_steps": steps})


def _evolve(engine, energy, n, tau_scale, t_max, steps, psi0) -> Command:
    argv = ["evolve", "--engine", engine, "--energy", repr(energy), "--n", str(n),
            "--tau-scale", repr(tau_scale), "--hbar", "1.0", "--t-max", repr(t_max),
            "--steps", str(steps), f"--psi0={psi0}"]  # may start with '-'
    return Command(argv, steps + 1, "evolve", {
        "engine": engine, "energy": energy, "n": n, "tau_scale": tau_scale,
        "hbar": 1.0, "t_max": t_max, "steps": steps, "psi0": psi0})


BUILDERS = {"scan_modes": scan_modes, "kernels_long": kernels_long,
            "pool_kaon": pool_kaon, "cli_mix": cli_mix}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, work: Path, root: Path,
          tiny: bool = False) -> Workload:
    """The workload `name` for `seed`, with its files placed under `work`.

    `root` is the repository checkout whose shipped configs `cli_mix` reads.
    """
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, Path(work), tiny, Path(root))
