"""Output checks: parse each command's rows and recompute a sample independently.

Nothing here imports chronon_lab. Expected values come from closed forms
evaluated in mpmath at 40 digits, from scipy's `expm`, or from eigenmode
powers; they are compared within a relative tolerance, never by digest,
so deliberate last-digit drift in the program passes.

Every check returns a list of problems; an empty list means the command's
output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.linalg import expm

mp.mp.dps = 40

SAMPLE_ROWS = 24
RTOL = 1e-8
TWO_LN2_OVER_PI = 2.0 * math.log(2.0) / math.pi


def read_kaon_config(path) -> dict:
    """The shipped `key = value` kaon config, with the program's defaults."""
    cfg = {"hbar": 1.0, "gamma_s": 0.0, "gamma_l": 0.0, "delta_re": 0.0,
           "delta_im": 0.0, "n": 1, "tau_scale": 1.0, "psi0": "K0"}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = (s.strip() for s in line.partition("="))
            cfg[key] = value if key == "psi0" else (
                int(value) if key in ("n", "steps") else float(value))
    return cfg


# ---------------------------------------------------------------------------
# parsing

def _num(value):
    """A CSV cell or JSON value as a float, None for empty, str otherwise."""
    if value is None or value == "":
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except ValueError:
        return value


def parse_rows(data: bytes, fmt: str) -> list[dict]:
    if fmt == "json":
        raw = json.loads(data.decode("utf-8"))
    else:
        raw = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    return [{k: _num(v) for k, v in row.items()} for row in raw]


def _close(got, want, rtol=RTOL, atol=0.0) -> bool:
    if not isinstance(got, float):
        return False
    want = float(want)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= rtol * abs(want) + atol


def _compare(row: dict, expected: dict, where: str, rtol=RTOL, atol=0.0) -> list[str]:
    bad = []
    for col, want in expected.items():
        got = row.get(col)
        ok = got == want if isinstance(want, str) else _close(got, want, rtol, atol)
        if not ok:
            bad.append(f"{where}: {col}={got!r}, oracle {want!r}")
    return bad


def _sample(n_rows: int, rng: random.Random) -> list[int]:
    """First, last and a seeded sample of row indices."""
    picks = set(rng.sample(range(n_rows), min(n_rows, SAMPLE_ROWS)))
    return sorted(picks | {0, n_rows - 1})


# ---------------------------------------------------------------------------
# closed forms

def mode_oracle(energy, n, tau_scale, hbar, convention="paper") -> list[dict]:
    """Both modes of the symmetric H at (E, n, tau_scale, hbar), ascending h.

    lambda = 1 - i h n tau / hbar, h_eff = (i hbar / (n tau)) log(lambda),
    h_first = h + i h^2 tau / hbar. Both modes share |Im h_eff| and
    |h_eff|, and the effective generator is normal, so its non-Hermiticity
    is |Im h_eff| / |h_eff|.
    """
    e = mp.mpf(energy)
    hb = mp.mpf(hbar)
    tau = mp.mpf(tau_scale) * hb / e
    step = n * tau
    out = []
    for k, h in enumerate((-e, e)):
        lam = 1 - 1j * h * step / hb
        heff = 1j * hb / step * mp.log(lam)
        hfirst = h + 1j * h * h * tau / hb
        mag = abs(lam)
        grows = heff.imag > 0 if convention == "standard" else heff.imag < 0
        out.append({
            "mode": k, "h": h, "lambda_re": lam.real, "lambda_im": lam.imag,
            "heff_re": heff.real, "heff_im": heff.imag,
            "hfirst_re": hfirst.real, "hfirst_im": hfirst.imag,
            "step_mag": mag, "efold_time": step / abs(mp.log(mag)),
            "direction": float((mag > 1) - (mag < 1)),
            "reading": "growth" if grows else "decay",
            "ratio_exact": abs(heff.imag / heff.real),
            "ratio_first": abs(hfirst.imag / hfirst.real),
            "nu_nonhermitian": abs(heff.imag) / abs(heff),
        })
    return out


def _kaon_h(mixing_e, gamma_s, gamma_l, delta, hbar):
    """CP-basis entries a, d, b of [[a, d], [conj d, b]] and both eigenvalues."""
    e, hb = mp.mpf(mixing_e), mp.mpf(hbar)
    a = e - 0.5j * hb * mp.mpf(gamma_s)
    b = -e - 0.5j * hb * mp.mpf(gamma_l)
    d = mp.mpc(delta)
    disc = mp.sqrt(((a - b) / 2) ** 2 + d * mp.conj(d))
    return a, d, b, ((a + b) / 2 + disc, (a + b) / 2 - disc)


def epsilon_oracle(mixing_e, gamma_s, gamma_l, delta, hbar, n, tau_scale,
                   engine) -> complex:
    """<K1|v>/<K2|v> of the long-lived mode, v = (d, h - a) for eigenvalue h."""
    a, d, _, hs = _kaon_h(mixing_e, gamma_s, gamma_l, delta, hbar)
    step = n * mp.mpf(tau_scale) * mp.mpf(hbar) / mp.mpf(mixing_e)
    if engine == "continuous":
        rate = [-2 * h.imag / hbar for h in hs]
    else:
        rate = [-2 / step * mp.log(abs(1 - 1j * h * step / hbar)) for h in hs]
    slow = hs[0] if rate[0] < rate[1] else hs[1]
    return complex(d / (slow - a))


def width_oracle(mixing_e, gamma_s, gamma_l, delta, hbar, n, tau_scale) -> dict:
    _, _, _, hs = _kaon_h(mixing_e, gamma_s, gamma_l, delta, hbar)
    step = n * mp.mpf(tau_scale) * mp.mpf(hbar) / mp.mpf(mixing_e)
    recs = []
    for h in hs:
        lam = 1 - 1j * h * step / hbar
        recs.append({"h_re": h.real, "h_im": h.imag, "lambda_re": lam.real,
                     "lambda_im": lam.imag, "lambda_abs": abs(lam),
                     "gamma_continuous": -2 * h.imag / hbar,
                     "gamma_effective": -2 / step * mp.log(abs(lam))})
    recs.sort(key=lambda r: (-r["gamma_continuous"], -r["h_re"]))
    return {f"{lbl}_{k}": v for lbl, r in zip(("fast", "slow"), recs)
            for k, v in r.items()}


def _symmetric(energy, diag=0.0) -> np.ndarray:
    return np.array([[diag, energy], [energy, diag]], dtype=complex)


def continuous_state(h: np.ndarray, psi0: np.ndarray, t: float, hbar: float):
    return expm(-1j * t / hbar * h) @ psi0


def discrete_state(energy, diag, psi0, n, tau_scale, hbar, k) -> list:
    """U^k psi0 by eigenmode powers: H = [[d, E], [E, d]] has eigenvectors
    (1, -1)/sqrt 2 and (1, 1)/sqrt 2 with eigenvalues d - E and d + E."""
    step = n * mp.mpf(tau_scale) * mp.mpf(hbar) / mp.mpf(energy)
    a0, a1 = mp.mpc(psi0[0]), mp.mpc(psi0[1])
    out = [mp.mpc(0), mp.mpc(0)]
    for sign in (-1, 1):
        h = mp.mpf(diag) + sign * mp.mpf(energy)
        lam_k = (1 - 1j * h * step / hbar) ** k
        c = (a0 + sign * a1) / 2  # <v|psi0> v, v = (1, sign)/sqrt 2
        out[0] += lam_k * c
        out[1] += lam_k * c * sign
    return out


def parse_pair(text: str) -> np.ndarray:
    return np.array([complex(p.strip()) for p in text.split(",")])


# ---------------------------------------------------------------------------
# per-quantity scan rows

def _axis_values(ax: dict) -> np.ndarray:
    if ax["count"] == 1:
        return np.array([float(ax["start"])])
    if ax.get("spacing") == "log":
        return np.geomspace(ax["start"], ax["stop"], ax["count"])
    return np.linspace(ax["start"], ax["stop"], ax["count"])


def _scan_expected(quantity: str, p: dict) -> dict:
    if quantity == "mode_report":
        modes = mode_oracle(p["energy"], p.get("n", 1), p["tau_scale"],
                            p.get("hbar", 1.0))
        exp = {f"mode{m['mode']}_{k}": v for m in modes for k, v in m.items()
               if k not in ("mode", "direction", "reading", "nu_nonhermitian")}
        exp["nu_nonhermitian"] = modes[0]["nu_nonhermitian"]
        return exp
    if quantity in ("epsilon", "width_shift"):
        kaon = (p["mixing_e"], p.get("gamma_s", 0.0), p.get("gamma_l", 0.0),
                complex(p.get("delta_re", 0.0), p.get("delta_im", 0.0)),
                p.get("hbar", 1.0), p.get("n", 1), p.get("tau_scale", 1.0))
        if quantity == "width_shift":
            return width_oracle(*kaon)
        eps = epsilon_oracle(*kaon, p.get("engine", "continuous"))
        return {"epsilon_re": eps.real, "epsilon_im": eps.imag,
                "epsilon_abs": abs(eps)}
    # trajectory-observable
    psi0 = parse_pair(p.get("psi0", "1,0"))
    hbar = p.get("hbar", 1.0)
    if p["engine"] == "discrete":
        state = discrete_state(p["energy"], p.get("diag", 0.0), psi0, p.get("n", 1),
                               p.get("tau_scale", 1.0), hbar, p["steps"])
        state = np.array([complex(s) for s in state])
    else:
        state = continuous_state(_symmetric(p["energy"], p.get("diag", 0.0)), psi0,
                                 p["t_max"], hbar)
    if p.get("observable", "norm2_final") == "norm2_final":
        return {"value": float(np.sum(np.abs(state) ** 2))}
    d = parse_pair(p.get("direction", "1,0"))
    d = d / np.linalg.norm(d)
    return {"value": abs(state @ d.conj()) ** 2}


def _atol(quantity: str, p: dict) -> float:
    """Absolute floor for values that can sit near zero.

    An effective width -(2 / n tau) ln|lambda| with |lambda| near 1 carries
    an absolute error of about 2 ulp / (n tau); epsilon and probabilities
    are judged against the unit scale of their inputs.
    """
    if quantity == "width_shift":
        return 1e-12 * p["mixing_e"] / (p.get("n", 1) * p.get("tau_scale", 1.0)
                                        * p.get("hbar", 1.0))
    return {"epsilon": 1e-12, "trajectory-observable": 1e-9}.get(quantity, 1e-300)


def check_scan(cmd, data: bytes, rng: random.Random) -> list[str]:
    spec = cmd.params["spec"]
    rows = parse_rows(data, cmd.fmt)
    if len(rows) != cmd.rows:
        return [f"{len(rows)} rows, expected {cmd.rows}"]
    bad = [f"row {i}: status {r.get('status')!r}" for i, r in enumerate(rows)
           if r.get("status") != "ok"]
    names = [ax["name"] for ax in spec["grid"]]
    grid = np.stack(np.meshgrid(*[_axis_values(ax) for ax in spec["grid"]],
                                indexing="ij"), axis=-1).reshape(-1, len(names))
    got = np.array([[r[n] for n in names] for r in rows], dtype=float)
    if not np.allclose(got, grid, rtol=1e-12, atol=0.0):
        bad.append("grid columns differ from the spec's row-major grid")
    quantity = spec["quantity"]
    for i in _sample(len(rows), rng):
        params = {**spec["fixed"], **{n: rows[i][n] for n in names}}
        bad += _compare(rows[i], _scan_expected(quantity, params), f"row {i}",
                        atol=_atol(quantity, params))
    if quantity == "mode_report":
        # the chronon point tau = hbar / E: Im/Re = 2 ln 2 / pi for both modes
        for i, r in enumerate(rows):
            if r.get("tau_scale") == 1.0 and spec["fixed"].get("n", 1) == 1:
                bad += _compare(r, {"mode0_ratio_exact": TWO_LN2_OVER_PI,
                                    "mode1_ratio_exact": TWO_LN2_OVER_PI},
                                f"row {i}", rtol=1e-12)
    return bad


# ---------------------------------------------------------------------------
# short commands

def check_modes(cmd, data: bytes, rng: random.Random) -> list[str]:
    p = cmd.params
    rows = parse_rows(data, cmd.fmt)
    if len(rows) != 2:
        return [f"{len(rows)} rows, expected 2"]
    bad = []
    for row, exp in zip(rows, mode_oracle(p["energy"], p["n"], p["tau_scale"],
                                          p["hbar"], p["convention"])):
        bad += _compare(row, exp, f"mode {exp['mode']}")
        if p["tau_scale"] == 1.0 and p["n"] == 1:
            bad += _compare(row, {"ratio_exact": TWO_LN2_OVER_PI},
                            f"mode {exp['mode']}", rtol=1e-12)
    return bad


_KAON_STATES = {"K0": (1, 1), "K0bar": (1, -1), "K1": (math.sqrt(2), 0),
                "K2": (0, math.sqrt(2))}


def check_kaon(cmd, data: bytes, rng: random.Random) -> list[str]:
    p = cmd.params
    cfg = read_kaon_config(p["config"])
    rows = parse_rows(data, cmd.fmt)
    if len(rows) != cmd.rows:
        return [f"{len(rows)} rows, expected {cmd.rows}"]
    delta = complex(cfg["delta_re"], cfg["delta_im"])
    kaon = (cfg["mixing_e"], cfg["gamma_s"], cfg["gamma_l"], delta, cfg["hbar"])
    obs = p["observable"]
    if obs == "epsilon":
        eps = epsilon_oracle(*kaon, cfg["n"], cfg["tau_scale"], p["engine"])
        return _compare(rows[0], {"epsilon_re": eps.real, "epsilon_im": eps.imag,
                                  "epsilon_abs": abs(eps), "engine": p["engine"]},
                        "row 0", atol=1e-12)
    if obs == "width-shift":
        exp = width_oracle(*kaon, cfg["n"], cfg["tau_scale"])
        return _compare(rows[0], exp, "row 0", atol=_atol("width_shift", cfg))
    # 2pi / 3pi: Gamma |<K1|psi(t)>|^2 or Gamma |<K2|psi(t)>|^2 (cp basis)
    a, d, b, _ = _kaon_h(*kaon)
    h = np.array([[complex(a), complex(d)], [complex(mp.conj(d)), complex(b)]])
    psi0 = np.array(_KAON_STATES[cfg["psi0"]], dtype=complex) / math.sqrt(2)
    channel, gamma = (0, cfg["gamma_s"]) if obs == "2pi" else (1, cfg["gamma_l"])
    bad = []
    for i in _sample(len(rows), rng):
        t = rows[i]["t"]
        if not _close(t, i * cfg["t_max"] / cfg["steps"], 1e-12, 1e-300):
            bad.append(f"row {i}: t={t!r} off the grid")
            continue
        psi = continuous_state(h, psi0, t, cfg["hbar"])
        bad += _compare(rows[i], {"rate": gamma * abs(psi[channel]) ** 2},
                        f"row {i}", atol=1e-12 * gamma)
    return bad


def check_evolve(cmd, data: bytes, rng: random.Random) -> list[str]:
    p = cmd.params
    rows = parse_rows(data, cmd.fmt)
    if len(rows) != cmd.rows:
        return [f"{len(rows)} rows, expected {cmd.rows}"]
    psi0 = parse_pair(p["psi0"])
    h = _symmetric(p["energy"])
    dt = p["t_max"] / p["steps"]
    bad = []
    for i in _sample(len(rows), rng):
        row = rows[i]
        if not _close(row["t"], i * dt, 1e-9, 1e-300):
            bad.append(f"row {i}: t={row['t']!r}, oracle {i * dt!r}")
            continue
        if p["engine"] == "discrete":
            state = [complex(s) for s in discrete_state(
                p["energy"], 0.0, psi0, p["n"], p["tau_scale"], p["hbar"], i)]
        else:
            state = continuous_state(h, psi0, row["t"], p["hbar"])
        norm2 = abs(state[0]) ** 2 + abs(state[1]) ** 2
        bad += _compare(row, {"a0_re": state[0].real, "a0_im": state[0].imag,
                              "a1_re": state[1].real, "a1_im": state[1].imag,
                              "norm2": norm2}, f"row {i}", rtol=1e-9,
                        atol=1e-9 * math.sqrt(norm2))
    return bad


def check_converge(cmd, data: bytes, rng: random.Random) -> list[str]:
    """max |(I - i H t/m)^m - expm(-i H t)| against the program's rows.

    The composed map comes from eigenmode powers in mpmath, the target from
    scipy expm. The program's sequential product carries about m ulp of
    rounding, a few 1e-4 of the error at m = 2^20, hence rtol 2e-3.
    """
    p = cmd.params
    rows = parse_rows(data, cmd.fmt)
    if len(rows) != cmd.rows:
        return [f"{len(rows)} rows, expected {cmd.rows}"]
    e, t, hbar = p["energy"], p["t_max"], p["hbar"]
    target = expm(-1j * t / hbar * _symmetric(e))
    bad, prev = [], None
    for i, row in enumerate(rows):
        m = int(row["m"])
        cols = [discrete_state(e, 0.0, col, 1, t / m * e / hbar, hbar, m)
                for col in ((1, 0), (0, 1))]
        err = max(float(abs(cols[j][k] - mp.mpc(target[k, j])))
                  for j in range(2) for k in range(2))
        exp = {"max_entry_error": err, "status": "ok"}
        if prev is not None:
            exp["observed_order"] = math.log(prev[1] / err) / math.log(m / prev[0])
        bad += _compare(row, exp, f"row {i}", rtol=2e-3)
        prev = (m, err)
    return bad


def check_manifest(out: str, data: bytes) -> list[str]:
    path = Path(out).with_name(Path(out).name + ".manifest.json")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    digest = manifest.get("outputs", {}).get(Path(out).name)
    if digest != hashlib.sha256(data).hexdigest():
        return ["manifest digest does not match the written file"]
    return []


CHECKS = {"scan": check_scan, "modes": check_modes, "kaon": check_kaon,
          "evolve": check_evolve, "converge": check_converge}


def check(cmd, data: bytes, rng: random.Random) -> list[str]:
    """All problems with one command's output bytes (stdout or --out file)."""
    try:
        bad = CHECKS[cmd.check](cmd, data, rng)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
    if cmd.out is not None:
        bad += check_manifest(cmd.out, data)
    return bad
