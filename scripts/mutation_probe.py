#!/usr/bin/env python3
"""Mutation probe: which small changes to one module do the tests notice?

Usage: python3 scripts/mutation_probe.py MODULE [--tests PATH ...]

MODULE is a module of the chronon_lab package, such as `linalg2`. The probe
parses its source with `ast` and lists every mutation site:

- a binary operator swapped: `+` and `-`, `*` and `/`, `&` and `|`;
- a comparison swapped: `<` and `<=`, `>` and `>=`;
- a float constant scaled by 1.001;
- one operand of `&` or `|` dropped;
- `np.where(c, a, b)` replaced by `b`.

Annotations are skipped: the package never evaluates them. Every site is a
mutant: each one is written, alone, into a copy of the repository in a
temporary directory, where `python -m pytest -x` runs the tests (by default
every test file, the module's own first). A failing run kills the mutant, as
does one that takes five times as long as the unmutated run. A survivor
that EQUIVALENT lists is reported as equivalent, with its reason: no input
tells it from the module, or none that can be built. The probe prints one
line per mutant, then the score: killed mutants over those that are not
equivalent. It exits 1 if a mutant that is not equivalent survives.

A run takes about as long as one test run per site, less the part that
`-x` saves on killed mutants. On a 2-core host the suite takes 20-28 s,
and the runs took: linalg2 (134 sites) 7.5 minutes, evolution (58) 4,
kaon (54) 4.7, spectrum (32) 3.7, cli (6) 2.5, and quantities (16) and
runner (26) about 5 and 2.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt}

# (module, source line, mutant as printed) -> why no input can tell the mutant
# from the module, or none that can be built
_BIG = "return y, lam, (mod * np.where((np.abs(q) < 2.0 ** 1000) & (q >= -0.5), small,"
_PAST_2_1000 = ("past 2^1000 both branches give ln|lambda| / |y| within rounding, as "
                "|lambda|^2 = q + 1, so the branch point may move by a factor 2")
_NEAR_HALF = ("near q = -1/2 neither branch cancels (log1p(q) is about -0.69, log|lambda| "
              "about -0.35): both are within 4 eps of mpmath over 3000 multipliers with "
              "|lambda|^2 in [0.4995, 0.5], so the branch point may move by 0.1%")
_SMALL = "small = np.where(q == 0, 1.0, np.log1p(q) / q) * s / np.where(s == 0, 1.0, 2 * mod)"
_J = "j = np.minimum(0, np.maximum(k, np.where(im == 0, k, np.frexp(im)[1] - 60)))"
_FINITE = "finite = np.isfinite(gamma) & (np.isfinite(gamma_eff) | zero)"
_WIDTH = ("gamma = -2 (Im h / hbar) is a width of the model, between gamma_long and "
          "gamma_short up to rounding, so it is finite")
_TIE = "tie = np.abs(keys[:, 0] - keys[:, 1]) <= 1e-12 * key_scale  # relative, so scale-free"
_SAME_CP = ("lanes.fail(tie & (np.abs(w[:, 0] - w[:, 1]) <= 1e-12), DegenerateModes,  "
            "# unit vectors")
_SLOW = "slow = np.where(np.where(tie, w[:, 0] > w[:, 1], keys[:, 0] < keys[:, 1])[:, None],"
_NEAR_TIE = ("no input found where the tolerance's last 0.1% decides: none of 60000 "
             "random kaon points, many of them near a tie, tells the two apart")
_DIRECTION = '"direction": [(im > 0) - (im < 0) for im in ims],'
_HERMITIAN_MODES = ("`modes` builds a Hermitian H, whose step map has |lambda| >= 1, so Im h_eff "
                    ">= 0 and (im < 0) is 0")
EQUIVALENT = {
    ("linalg2", "by_real = np.abs(b.real) >= np.abs(b.imag)",
     "np.abs(b.real) >= np.abs(b.imag) -> np.abs(b.real) > np.abs(b.imag)"):
        "where |Re b| = |Im b| the ratio is +-1 and both branches give the same quotient "
        "bit for bit",
    ("linalg2", "swap = (hi.real == lo.real) & (hi.imag < lo.imag)  # hi.real >= lo.real: "
     "Re root >= 0", "hi.imag < lo.imag -> hi.imag <= lo.imag"):
        "where the imaginary parts tie too the two values are equal, so a swap changes nothing",
    ("linalg2", "np.divide(np.sinh(x), np.where(delta != 0, delta, 1.0), out=sinch, "
     "where=~small)", "np.where(delta != 0, delta, 1.0) -> np.where(delta != 0, delta, 1.001)"):
        "read only where delta = 0, so x = 0: a series lane, which where=~small skips",
    ("spectrum", _BIG, "np.abs(q) < 2.0 ** 1000 -> np.abs(q) <= 2.0 ** 1000"): _PAST_2_1000,
    ("spectrum", _BIG, "2.0 ** 1000 -> 2.002 ** 1000"): _PAST_2_1000,
    ("spectrum", _BIG, "q >= -0.5 -> q > -0.5"): _NEAR_HALF,
    ("spectrum", _BIG, "-0.5 -> -0.5005"): _NEAR_HALF,
    ("spectrum", _SMALL, "np.where(s == 0, 1.0, 2 * mod) -> np.where(s == 0, 1.001, 2 * mod)"):
        "read only where s = 0, whose quotient is 0 over any nonzero divisor",
    ("spectrum", _J, "np.frexp(im)[1] - 60 -> np.frexp(im)[1] + 60"):
        "the offset only keeps 2 Im h' 2^-j inside the double range: 60 above Im h''s "
        "exponent it is still at least 2^-60, and a term of s that underflows at one offset "
        "and not at the other is below 2^-900 of it",
    ("kaon", "if not count < DEFAULT_GRID_CAP:",
     "count < DEFAULT_GRID_CAP -> count <= DEFAULT_GRID_CAP"):
        "at count = cap, evolve refuses the grid of cap steps with the same text",
    ("kaon", _FINITE, "np.isfinite(gamma) & (np.isfinite(gamma_eff) | zero) -> "
     "np.isfinite(gamma_eff) | zero"): _WIDTH,
    ("kaon", _TIE, "1e-12 * key_scale -> 1.0009999999999999e-12 * key_scale"): _NEAR_TIE,
    ("kaon", _SAME_CP, "np.abs(w[:, 0] - w[:, 1]) <= 1e-12 -> "
     "np.abs(w[:, 0] - w[:, 1]) <= 1.0009999999999999e-12"): _NEAR_TIE,
    ("kaon", _SAME_CP, "np.abs(w[:, 0] - w[:, 1]) <= 1e-12 -> np.abs(w[:, 0] - w[:, 1]) < 1e-12"):
        "a tie needs the rounded CP-content gap to equal 1e-12",
    ("kaon", _SLOW, "keys[:, 0] < keys[:, 1] -> keys[:, 0] <= keys[:, 1]"):
        "equal keys are a tie, so this test sees unequal ones only",
    ("kaon", _SLOW, "w[:, 0] > w[:, 1] -> w[:, 0] >= w[:, 1]"):
        "equal CP contents on a tie are DegenerateModes, so this test sees unequal ones only",
    ("cli", _DIRECTION, "(im > 0) - (im < 0) -> (im > 0) + (im < 0)"): _HERMITIAN_MODES,
    ("cli", '"reading": ["steady" if im == 0 else "growth" if (im > 0) == growth else "decay"',
     "im > 0 -> im >= 0"): "read only where im != 0, where im > 0 and im >= 0 agree",
    ("evolution", "lanes.require((k >= 1) & (abs(k_float - k)",
     "abs(k_float - k) <= _GRID_RTOL * np.maximum(abs(k_float), 1.0) -> "
     "abs(k_float - k) < _GRID_RTOL * np.maximum(abs(k_float), 1.0)"):
        "a tie needs k_float - k, a multiple of ulp(k_float), to equal the rounded 1e-9 "
        "max(|k_float|, 1), on a grid 2^30 times finer: no k_float within a few ulps of "
        "1e-9 k of an integer k up to 1e8 gives one",
}


# One mutation: the `index`-th node of `ast.walk` order, rewritten by `kind`
# (an operator index for a comparison), on source line `line`.
Site = namedtuple("Site", "index kind line")


def _annotation_ids(tree) -> set:
    """The ids of the nodes inside annotations."""
    ids = set()
    for node in ast.walk(tree):
        roots = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            roots = [node.returns] + [a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        elif isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        for root in filter(None, roots):
            ids.update(id(n) for n in ast.walk(root))
    return ids


def _is_where(node) -> bool:
    return (isinstance(node, ast.Call) and len(node.args) == 3 and not node.keywords
            and isinstance(node.func, ast.Attribute) and node.func.attr == "where"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np")


def sites(source: str) -> list:
    tree = ast.parse(source)
    skip = _annotation_ids(tree)
    out = []
    for i, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            out.append(Site(i, "swap", node.lineno))
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
                out += [Site(i, "left", node.lineno), Site(i, "right", node.lineno)]
        elif isinstance(node, ast.Compare):
            out += [Site(i, k, node.lineno) for k, op in enumerate(node.ops)
                    if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            out.append(Site(i, "scale", node.lineno))
        elif _is_where(node):
            out.append(Site(i, "where", node.lineno))
    return out


class _Replace(ast.NodeTransformer):
    def __init__(self, target, new):
        self.target, self.new = target, new

    def visit(self, node):
        return self.new if node is self.target else self.generic_visit(node)


def mutate(source: str, site: Site) -> tuple:
    """(mutated source, 'before -> after' of the mutated expression)."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == site.index)
    # a constant is shown in the expression that holds it
    shown = next((n for n in ast.walk(tree) if node in ast.iter_child_nodes(n)), node) \
        if site.kind == "scale" else node
    before = ast.unparse(shown)
    if site.kind == "swap":
        new = type(node)(**{**vars(node), "op": SWAPS[type(node.op)]()})
    elif site.kind in ("left", "right"):
        new = getattr(node, site.kind)
    elif site.kind == "scale":
        new = ast.Constant(node.value * 1.001)
    elif site.kind == "where":
        new = node.args[2]
    else:
        ops = list(node.ops)
        ops[site.kind] = SWAPS[type(ops[site.kind])]()
        new = ast.Compare(node.left, ops, node.comparators)
    tree = ast.fix_missing_locations(_Replace(node, new).visit(tree))
    return ast.unparse(tree), f"{before} -> {ast.unparse(new if shown is node else shown)}"


def run_tests(work: Path, tests: list, timeout: float):
    """(passed, seconds) of one pytest run in `work`; a timeout fails."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module")
    ap.add_argument("--tests", nargs="+", help="test files or directories "
                    "(default: every test file, the module's own first)")
    args = ap.parse_args(argv)
    path = ROOT / "src" / "chronon_lab" / f"{args.module}.py"
    # with -x a killed mutant's run stops at its first failure, which its
    # module's own tests usually hold
    own = f"tests/test_{args.module}.py"
    files = sorted(str(t.relative_to(ROOT)) for t in ROOT.glob("tests/test_*.py"))
    tests = args.tests or sorted(files, key=lambda t: t != own)
    source = path.read_text()
    lines = source.splitlines()
    mutants = sorted(((s, *mutate(source, s)) for s in sites(source)), key=lambda m: m[0].line)
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        work = Path(tmp)
        # the tests read the configs, the README and the scripts beside them
        shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        passed, base = run_tests(work, tests, None)
        if not passed:
            print("the unmutated module fails its tests", file=sys.stderr)
            return 2
        print(f"{args.module}: {len(mutants)} sites; unmutated run {base:.1f} s")
        target = work / "src" / "chronon_lab" / path.name
        counts = {"killed": 0, "equivalent": 0, "SURVIVED": 0}
        for site, mutated, what in mutants:
            target.write_text(mutated)
            passed, _ = run_tests(work, tests, 5 * base + 10)
            reason = EQUIVALENT.get((args.module, lines[site.line - 1].strip(), what))
            verdict = "killed" if not passed else "equivalent" if reason else "SURVIVED"
            counts[verdict] += 1
            print(f"{verdict:10} {args.module}.py:{site.line}  {what}"
                  + (f"  ({reason})" if passed and reason else ""), flush=True)
    scored = len(mutants) - counts["equivalent"]
    print(f"{args.module}: {counts['killed']} killed, {counts['equivalent']} equivalent, "
          f"{counts['SURVIVED']} survived; score {counts['killed']}/{scored}")
    return 1 if counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
