"""The one mpmath reference of the tests: each closed form of the package, once.

It imports nothing from chronon_lab: arguments are exact doubles, complex
numbers and integers, or a kaon model and a chronon point read by attribute;
results are mpmath numbers, and `rel_err` compares a double with one. Every
function works at DPS digits, and forms the kaon eigenvalues at log10 of their
split (larger modulus over smaller) plus SPLIT_DIGITS where that is more, so
that the smaller root keeps its digits.
"""

import mpmath

DPS, SPLIT_DIGITS = 50, 20
_num, _precise = mpmath.mpmathify, mpmath.workdps(DPS)


@_precise
def rel_err(got, want, scale=0) -> float:
    """|got 2^scale / want - 1| of a double or complex got."""
    return float(abs(_num(got) * mpmath.ldexp(1, scale) / want - 1))


@_precise
def mode(h, energy, n, tau_scale, hbar=1) -> dict:
    """A mode h != 0 at (E, n, tau_scale, hbar): y = (h / E) n tau_scale, lambda =
    1 - i y, ln|lambda| = log1p(2 Im y + |y|^2) / 2 (log|lambda| cancels near 1),
    h_eff = i (E / (n tau_scale)) Log lambda, h_first = h + i h (h / E) tau_scale,
    gamma_effective = -2 ln|lambda| / (n tau), efold_time and the ratios |Im / Re|."""
    h, energy, tau_scale, hbar = map(_num, (h, energy, tau_scale, hbar))
    y = h * n * tau_scale / energy
    log_mag = mpmath.log1p(2 * mpmath.im(y) + mpmath.re(y) ** 2 + mpmath.im(y) ** 2) / 2
    h_eff = 1j * energy / (n * tau_scale) * mpmath.mpc(log_mag, mpmath.arg(1 - 1j * y))
    h_first = h + 1j * h * h / energy * tau_scale
    gamma = -2 * energy * log_mag / (n * tau_scale * hbar)
    return {"y": y, "lambda": 1 - 1j * y, "h_eff": h_eff, "h_first": h_first,
            "gamma_effective": gamma, "efold_time": 2 / abs(gamma),
            "ratio_exact": abs(h_eff.imag / h_eff.real),
            "ratio_first": abs(h_first.imag / h_first.real)}


@_precise
def nu(e0, e1):
    """hypot(Im e0, Im e1) / hypot(|e0|, |e1|), that of V diag(e0, e1) V^dagger."""
    return mpmath.hypot(e0.imag, e1.imag) / mpmath.hypot(abs(e0), abs(e1))


def _kaon_modes(model, dps=DPS):
    """(b, d, (h0, h1)) of H = [[a, d], [conj d, b]] in the cp basis, a = E - i hbar
    gamma_s / 2, b = -E - i hbar gamma_l / 2: h = (a + b) / 2 -/+ D, D^2 = ((a - b) / 2)^2
    + |d|^2."""
    e, g_s, g_l, d, hbar = map(_num, (model.mixing_energy, model.gamma_short,
                                      model.gamma_long, model.delta, model.units.hbar))
    with mpmath.workdps(dps):
        a, b = e - 0.5j * hbar * g_s, -e - 0.5j * hbar * g_l
        disc = mpmath.sqrt(((a - b) / 2) ** 2 + d * mpmath.conj(d))
        hs = ((a + b) / 2 - disc, (a + b) / 2 + disc)
        small, large = sorted(map(abs, hs))
        need = int(mpmath.log10(large / small)) + 1 + SPLIT_DIGITS if small else dps
    return (b, d, hs) if need <= dps else _kaon_modes(model, need)


@_precise
def widths(model, point):
    """(h, lambda, gamma_continuous, gamma_effective) per mode, the wider first."""
    hbar = model.units.hbar
    return sorted(((h, m["lambda"], -2 * h.imag / hbar, m["gamma_effective"])
                   for h in _kaon_modes(model)[2]
                   for m in [mode(h, point.energy, point.n, point.tau_scale, hbar)]),
                  key=lambda w: -w[2])


@_precise
def epsilon(model, point, engine):
    """<K1|v> / <K2|v> = -(b - h) / conj(d) of the long-lived mode h, that of the
    smaller continuous or effective width."""
    b, d, _ = _kaon_modes(model)
    slow = min(widths(model, point), key=lambda w: w[2 if engine == "continuous" else 3])
    return -(b - slow[0]) / mpmath.conj(d)


def _matrix(m):
    return mpmath.matrix([[_num(x) for x in row] for row in m])


@_precise
def matrix_power(m, k) -> list:
    """M^k of a 2x2 matrix, rounded to complex, as nested lists."""
    return [[complex(x) for x in row] for row in (_matrix(m) ** k).tolist()]


@_precise
def converge_rows(m_list, u01s=None) -> list:
    """(error, observed order) per m: the error max |U^m - exp(-i X)| over the entries,
    X = [[0, 1], [1, 0]], of U = [[1, u01], [u01, 1]] (the program's float U, or I - i X
    / m where u01s is None), U^m from U's eigenvalues 1 +/- u01; the order log(e0 / e1)
    / log(m1 / m0) from the row before, None on the first."""
    rows = []
    for i, m in enumerate(m_list):
        u01 = -1j / _num(m) if u01s is None else _num(u01s[i])
        a, b = (1 + u01) ** m, (1 - u01) ** m
        err = max(abs((a + b) / 2 - mpmath.cos(1)), abs((a - b) / 2 + 1j * mpmath.sin(1)))
        rows.append((err, mpmath.log(rows[-1][0] / err) / mpmath.log(_num(m) / m_list[i - 1])
                     if rows else None))
    return rows


@_precise
def final_state(u, psi0, steps, direction) -> dict:
    """norm2_final |psi|^2 and prob_final |<d|psi>|^2 / |d|^2 of psi = U^steps psi0."""
    psi, d = _matrix(u) ** steps * _matrix([psi0]).T, list(map(_num, direction))
    return {"norm2_final": abs(psi[0]) ** 2 + abs(psi[1]) ** 2,
            "prob_final": abs(mpmath.fdot(psi, d, conjugate=True)) ** 2
            / (abs(d[0]) ** 2 + abs(d[1]) ** 2)}
