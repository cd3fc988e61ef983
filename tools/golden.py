"""Golden artifacts: every `kg` subcommand on fixed small configs.

    python3 tools/golden.py OUT_DIR [--src SRC_DIR]
    python3 tools/golden.py --compare OUT_A OUT_B [--rtol R]

Runs each case below in-process through `kgdelta.cli.main`, imported from
SRC_DIR (default: the `src/` next to this script), and writes each case's
artifacts, its standard output and error and its exit code under
OUT_DIR/<case>/.  A case that raises instead of returning records
``raised <ExceptionType>`` as its exit code, and the next case runs.
Python warnings are suppressed: they quote source lines.
Everything written is deterministic, so two source trees produce the same
artifacts exactly when

    diff -r OUT_A OUT_B

prints nothing.  To compare against another checkout, point --src at its
`src/`; this script needs nothing else from it.

--compare checks two such directories for a change that may move the last
bits of its numbers.  Both must hold the same files, with the same lines.
Text outside numbers must match exactly: stdout.txt (which holds stderr
too), exit_code.txt and the configs entirely, the comment and column lines
of every CSV, and every key, string and non-finite value of every JSON.
Each number is compared with its counterpart, and the difference is scaled
by max(1, |largest value|) of its column: a CSV column, or a JSON key path
with the list indices dropped.  The script prints, per file that is not
byte-identical, the largest scaled difference and its column, and exits 1
if a text or row count differs or a scaled difference exceeds --rtol.  The
default --rtol 0 asks for byte-identical files.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

SHOOT_GRID = {"L": 20, "n": 401, "dt": 0.05, "tol": 1e-6, "T_max": 100}

# (case name, subcommand, config); every case finishes in a few seconds
CASES = (
    ("profile-default", "profile", {}),
    ("profile-strong-delta", "profile", {"gamma": -2.5, "p": 4}),
    # once nu_plus = inf and nu_minus = -inf: alpha^2 overflowed
    ("profile-huge-alpha", "profile", {"alpha": 1e200}),
    # once nu = inf and nu_plus = nan: (p-1)(p+3) overflowed
    ("profile-huge-p", "profile", {"p": 1e300}),
    ("simulate-qgamma", "simulate", {"L": 20, "n": 401, "T": 5, "scale": 0.9}),
    ("simulate-linear", "simulate",
     {"L": 20, "n": 401, "T": 5, "init": "gaussian", "nonlinearity": 0,
      "gamma": 1.5, "snapshot_stride": 7}),
    ("simulate-equilibrium-p3.5", "simulate",
     {"L": 20, "n": 401, "T": 5, "init": "equilibrium", "p": 3.5, "dt": 0.0375}),
    # no pinned profile at |gamma| >= 2: the equilibrium start is refused (exit 3)
    ("simulate-equilibrium-strong-delta", "simulate",
     {"L": 20, "n": 401, "T": 1, "init": "equilibrium", "gamma": -2.5}),
    # the pinned profile exists, but its Newton fails this close to -2 (exit 3)
    ("simulate-equilibrium-near-minus-2", "simulate",
     {"T": 1, "init": "equilibrium", "gamma": -1.999}),
    ("simulate-blowup", "simulate",
     {"L": 20, "n": 401, "T": 40, "init": "q", "z": 0.5, "scale": 1.5, "gamma": 0}),
    ("simulate-nonfinite", "simulate",
     {"L": 20, "n": 401, "T": 40, "init": "q", "z": 0.5, "scale": 1.5, "gamma": 0,
      "blowup_cap": 1e300, "snapshot_stride": 7}),
    # blowup_cap^2 underflows to 0: the cap is tested on the exact sup |u|
    ("simulate-cap-underflow", "simulate",
     {"L": 20, "n": 401, "T": 1, "blowup_cap": 1e-170, "snapshot_stride": 1}),
    # the same two exits from an even start (scale * Q_gamma)
    ("simulate-even-blowup", "simulate",
     {"L": 20, "n": 401, "T": 40, "init": "qgamma", "scale": 1.5, "gamma": 0}),
    ("simulate-even-nonfinite", "simulate",
     {"L": 20, "n": 401, "T": 40, "init": "qgamma", "scale": 1.5, "gamma": 0,
      "blowup_cap": 1e300, "snapshot_stride": 7}),
    ("simulate-contaminated", "simulate",
     {"L": 6, "n": 121, "T": 20, "init": "gaussian", "alpha": 0.01, "gamma": 0,
      "nonlinearity": 0}),
    ("simulate-family-odd-T", "simulate",
     {"L": 25, "n": 501, "T": 3.01, "init": "family", "varsigma": 1, "z": 4,
      "lambda": -0.1, "scale": -1, "p": 4}),
    ("shoot-free", "shoot", {**SHOOT_GRID, "gamma": -1, "z": 3}),
    ("shoot-free-negative", "shoot", {**SHOOT_GRID, "gamma": -1, "z": 3, "scale": -1}),
    ("shoot-even", "shoot", {**SHOOT_GRID, "gamma": -2.5, "varsigma": 1, "z": 4.5}),
    ("shoot-bad-bracket", "shoot",
     {**SHOOT_GRID, "gamma": -1, "z": 3, "lambda_lo": -0.3, "lambda_hi": -0.2}),
    ("track", "track",
     {"L": 25, "n": 501, "dt": 0.05, "T": 6, "init": "q", "z": 4,
      "snapshot_stride": 5}),
    # the even pair: the sigma = 1 path of fit_center and decompose
    ("track-pair", "track",
     {"L": 25, "n": 501, "dt": 0.05, "T": 6, "init": "family", "varsigma": 1,
      "z": 4.5, "gamma": -2.5, "snapshot_stride": 5}),
    # nonlinearity = 0: the linear flow, in which the soliton disperses (once
    # the nonlinear flow, 24 frames)
    ("track-linear", "track",
     {"L": 25, "n": 501, "dt": 0.05, "T": 6, "init": "q", "z": 4,
      "snapshot_stride": 5, "nonlinearity": 0}),
    # the mirror of a family start: the flow steps -R(z), the fit reads R(z)
    ("track-negative", "track",
     {"L": 25, "n": 501, "dt": 0.05, "T": 6, "init": "family", "z": 4,
      "gamma": -1, "snapshot_stride": 5, "scale": -1}),
    # the mirror of the `track` case's start (once 0 frames, exit 0)
    ("track-negative-scale", "track",
     {"L": 25, "n": 501, "dt": 0.05, "T": 6, "init": "q", "z": 4, "scale": -1,
      "snapshot_stride": 5}),
    # a pair that drifts inward until the next guess is z <= 2 (once exit 3
    # after 39 fitted frames, none of them written)
    ("track-pair-inward", "track",
     {"L": 20, "n": 801, "T": 6, "init": "family", "varsigma": 1, "z": 2.2,
      "lambda": -0.05, "gamma": -0.5, "snapshot_stride": 4}),
    # the first guess, the peak node x = 2, is already z <= 2 (once exit 3)
    ("track-pair-first-guess", "track",
     {"L": 20, "n": 401, "T": 6, "init": "family", "varsigma": 1, "z": 2.05,
      "lambda": -0.05, "gamma": -0.5, "snapshot_stride": 4}),
    ("variational-free", "variational",
     {"L": 15, "n": 301, "init": "q", "z": 3, "max_iters": 400}),
    # the benchmark's free descend shape on its own grid: a bump that slides
    # out to the drift detector at L/3
    ("variational-free-slide", "variational",
     {"L": 15, "n": 601, "init": "q", "z": 2.875, "gamma": -1}),
    # cut by max_iters at an iterate past the drift detector (drift 5.05 > L/3),
    # before the gradient steps have relaxed it
    ("variational-cut", "variational",
     {"L": 15, "n": 601, "init": "q", "z": 3, "gamma": -1, "max_iters": 2}),
    ("variational-even", "variational",
     {"L": 15, "n": 301, "init": "family", "varsigma": 1, "z": 3.5,
      "symmetry": "even", "max_iters": 400}),
    # the even descent from the prepared equilibrium (stops at r_gamma = 2.25)
    ("variational-even-equilibrium", "variational",
     {"L": 15, "n": 301, "init": "equilibrium", "symmetry": "even",
      "max_iters": 400}),
    # an even pair whose descent once stopped at J = 2.6633, short of r_gamma:
    # the outward translation was its only move
    ("variational-even-stall", "variational",
     {"L": 15, "n": 601, "init": "family", "varsigma": 1, "z": 3.7900183011491833,
      "gamma": -1, "symmetry": "even"}),
    # free start on the pinned saddle Q_gamma, gamma = -1 (escapes at 4/3)
    ("variational-saddle", "variational", {"L": 15, "n": 601, "init": "qgamma"}),
    # gamma = -2.5 even pair (escapes at 2 J_0(Q) = 8/3)
    ("variational-repulsive", "variational",
     {"L": 20, "n": 801, "init": "family", "varsigma": 1, "z": 4.5, "gamma": -2.5,
      "symmetry": "even"}),
    # gamma = 1, non-integer p: stops at the pinned minimizer Q_gamma
    ("variational-attractive", "variational",
     {"L": 15, "n": 301, "init": "q", "z": 0.5, "gamma": 1, "p": 3.5}),
    # one interior unknown: 1x1 preconditioner solve
    ("variational-n3","variational", {"L": 1, "n": 3, "dt": 0.5}),
    # config errors: the message, its line and exit 2 (keys are written sorted)
    ("config-unknown-key", "simulate", {"L": 20, "n": 401, "speed": 1}),
    ("config-cfl", "simulate", {"L": 10, "n": 201, "dt": 0.051}),
    ("config-nan-T", "simulate", {"L": 20, "n": 401, "T": "nan"}),
    # mu is a module constant, not a key
    ("config-retired-key", "track", {"L": 20, "n": 401, "mu": 0.1}),
    # the delta node's -gamma/h entry bounds dt below CFL*h (exit 2); once a
    # run that gained energy (exit 0) and a blowup of small data (exit 0)
    ("config-stiff-delta", "simulate",
     {"L": 20, "n": 801, "dt": 0.025, "T": 20, "init": "q", "z": 5, "scale": 0.1,
      "gamma": -280}),
    ("config-stiffer-delta", "simulate",
     {"L": 20, "n": 801, "dt": 0.025, "T": 20, "init": "q", "z": 5, "scale": 0.1,
      "gamma": -1000}),
    # once exit 0 with E_final = nan
    ("config-huge-negative-gamma", "simulate",
     {"L": 15, "n": 301, "T": 1, "init": "gaussian", "gamma": -1e300}),
    # numeric failures at the input: T / dt overflows, 1/h^2 overflows (exit 3)
    ("simulate-huge-T", "simulate", {"L": 20, "n": 401, "dt": 0.05, "T": 1e308}),
    ("simulate-tiny-grid", "simulate", {"L": 1e-300, "n": 101, "dt": 1e-305}),
    # 1/h^2 is finite but its square overflows (exit 3)
    ("simulate-tiny-grid-nan", "simulate", {"L": 6e-153, "n": 101, "dt": 1e-170}),
    ("variational-tiny-grid-nan", "variational",
     {"L": 6e-153, "n": 101, "dt": 1e-170}),
    # int |u|^{p+1} of the start overflows: no Nehari projection (exit 3)
    ("variational-huge-scale", "variational",
     {"L": 15, "n": 301, "init": "gaussian", "scale": 1e80}),
    # the start's terms are finite but its projection's overflow (exit 3;
    # once exit 0 with a nan level)
    ("variational-huge-negative-gamma", "variational",
     {"L": 10, "n": 101, "dt": 1e-110, "gamma": -1e200, "init": "q", "z": 3}),
    # the start's energy is not finite: refused before sample 0 (exit 3)
    ("simulate-huge-scale", "simulate",
     {"L": 15, "n": 301, "T": 1, "init": "gaussian", "scale": 1e80}),
    ("track-huge-scale", "track",
     {"L": 15, "n": 301, "T": 1, "init": "gaussian", "scale": 1e200}),
    # once an OverflowError in decompose (a_minus squared); the start's energy
    # is not finite either, so evolve now refuses it first (exit 3)
    ("track-huge-scale-n3", "track",
     {"L": 40, "n": 3, "init": "gaussian", "scale": 1e160, "p": 4, "T": 0}),
    # a node array larger than the address space: refused by make_grid (exit 3)
    ("simulate-huge-n", "simulate",
     {"L": 5e14, "n": 1000000000000001, "dt": 0.5, "T": 1}),
    # the spacing 2L/(n-1) overflows to inf (exit 3)
    ("simulate-huge-L", "simulate", {"L": 1e308, "n": 401, "T": 1}),
    # a node count beyond the float range: refused on n's line (exit 2; once
    # raised OverflowError)
    ("simulate-overflow-n", "simulate", {"L": 20, "n": 10**400 + 1, "T": 1}),
)


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))


class Mismatch(Exception):
    """Text, structure or a row count differs between the two files."""


def _finite(text: str) -> float | None:
    """text as a finite float, or None."""
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _csv_columns(text_a: str, text_b: str) -> dict:
    """Column name -> [(a, b), ...] of the numbers of two CSV artifacts: the
    data rows' fields, and the values of ``# key = value`` comment lines
    under the column ``# key``."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        raise Mismatch(f"{len(lines_a)} vs {len(lines_b)} lines")
    columns, pairs = None, {}
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), 1):
        if la.startswith("#"):
            key_a, _, fa = la.partition(" = ")
            key_b, _, fb = lb.partition(" = ")
            if key_a != key_b:
                raise Mismatch(f"line {i}: {la!r} vs {lb!r}")
            names, fields_a, fields_b = [key_a], [fa], [fb]
        elif columns is None:
            columns, names, fields_a, fields_b = la.split(","), [], [], []
            if la != lb:
                raise Mismatch(f"line {i}: {la!r} vs {lb!r}")
        else:
            names, fields_a, fields_b = columns, la.split(","), lb.split(",")
            if not len(fields_a) == len(fields_b) == len(columns):
                raise Mismatch(f"line {i}: field counts {len(fields_a)} vs "
                               f"{len(fields_b)}")
        for name, fa, fb in zip(names, fields_a, fields_b):
            a, b = _finite(fa), _finite(fb)
            if a is None or b is None:
                if fa != fb:
                    raise Mismatch(f"line {i}, {name}: {fa!r} vs {fb!r}")
            else:
                pairs.setdefault(name, []).append((a, b))
    return pairs


def _json_columns(a, b, path: str = "", pairs: dict | None = None) -> dict:
    """Key path -> [(a, b), ...] of the numbers of two parsed JSON artifacts;
    list indices are dropped from the paths, so a list is one column."""
    pairs = {} if pairs is None else pairs
    number = (int, float)
    if isinstance(a, number) and isinstance(b, number) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        pairs.setdefault(path, []).append((float(a), float(b)))
    elif isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            raise Mismatch(f"{path or 'top level'}: keys {sorted(a)} vs {sorted(b)}")
        for key in a:
            _json_columns(a[key], b[key], f"{path}.{key}" if path else key, pairs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{path}: {len(a)} vs {len(b)} entries")
        for x, y in zip(a, b):
            _json_columns(x, y, path + "[]", pairs)
    elif type(a) is not type(b) or a != b:
        raise Mismatch(f"{path}: {a!r} vs {b!r}")
    return pairs


def compare_file(path_a: Path, path_b: Path) -> tuple[float, str]:
    """The largest scaled numeric difference between two artifacts and its
    column; raises Mismatch where text or structure differs."""
    text_a, text_b = path_a.read_text(), path_b.read_text()
    if path_a.suffix == ".csv":
        pairs = _csv_columns(text_a, text_b)
    elif path_a.suffix == ".json":
        pairs = _json_columns(json.loads(text_a), json.loads(text_b))
    elif text_a != text_b:
        raise Mismatch("text differs")
    else:
        pairs = {}
    worst, where = 0.0, ""
    for column, values in pairs.items():
        scale = max(1.0, max(max(abs(a), abs(b)) for a, b in values))
        diff = max(abs(a - b) for a, b in values) / scale
        if diff > worst:
            worst, where = diff, column
    return worst, where


def compare(dir_a: Path, dir_b: Path, rtol: float) -> int:
    """Print the comparison of two golden directories; 0 if they agree."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    failed = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {dir_a if rel in files_a else dir_b}")
        failed += 1
    identical, worst, where = 0, 0.0, ""
    for rel in sorted(files_a & files_b):
        path_a, path_b = dir_a / rel, dir_b / rel
        if path_a.read_bytes() == path_b.read_bytes():
            identical += 1
            continue
        try:
            diff, column = compare_file(path_a, path_b)
        except Mismatch as exc:
            print(f"{rel}: FAIL, {exc}")
            failed += 1
            continue
        bad = diff > rtol or rtol == 0.0
        print(f"{rel}: {'FAIL, ' if bad else ''}largest scaled difference "
              f"{diff:.3g} in column {column or '(none)'}")
        failed += bad
        if diff > worst:
            worst, where = diff, f"{rel}: {column}"
    print(f"{len(files_a | files_b)} files, {identical} byte-identical, "
          f"{failed} failed at rtol {rtol:g}; largest scaled difference "
          f"{worst:.3g}{f' ({where})' if where else ''}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, nargs="?", help="directory for the artifacts")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the kgdelta package to run")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OUT_A", "OUT_B"),
                        help="compare two artifact directories instead of writing one")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest scaled numeric difference --compare accepts")
    args = parser.parse_args(argv)
    if (args.out is None) == (args.compare is None):
        parser.error("give either OUT_DIR or --compare OUT_A OUT_B")
    if args.compare is not None:
        if not args.rtol >= 0.0:
            parser.error(f"--rtol must be >= 0, got {args.rtol}")
        for d in args.compare:
            if not d.is_dir():
                parser.error(f"{d} is not a directory")
        return compare(*args.compare, args.rtol)
    if not (args.src / "kgdelta" / "cli.py").is_file():
        parser.error(f"{args.src} holds no kgdelta package")
    sys.path.insert(0, str(args.src.resolve()))
    from kgdelta import cli

    args.out.mkdir(parents=True, exist_ok=True)
    for name, cmd, cfg in CASES:
        case = args.out / name
        case.mkdir()
        config = args.out / f"{name}.cfg"
        config.write_text(config_text(cfg))
        stdout = io.StringIO()
        # warnings name source lines, which differ between trees by design
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main([cmd, "--config", str(config), "--out", str(case)])
            except Exception as exc:  # a crash is a result to compare, not an end
                code = f"raised {type(exc).__name__}"
        (case / "stdout.txt").write_text(stdout.getvalue())
        (case / "exit_code.txt").write_text(f"{code}\n")
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
