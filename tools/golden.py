"""Golden artifacts: every `kg` subcommand on fixed small configs.

    python3 tools/golden.py OUT_DIR [--src SRC_DIR]

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
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import warnings
from pathlib import Path

SHOOT_GRID = {"L": 20, "n": 401, "dt": 0.05, "tol": 1e-6, "T_max": 100}

# (case name, subcommand, config); every case finishes in a few seconds
CASES = (
    ("profile-default", "profile", {}),
    ("profile-strong-delta", "profile", {"gamma": -2.5, "p": 4}),
    ("simulate-qgamma", "simulate", {"L": 20, "n": 401, "T": 5, "scale": 0.9}),
    ("simulate-linear", "simulate",
     {"L": 20, "n": 401, "T": 5, "init": "gaussian", "nonlinearity": 0,
      "gamma": 1.5, "snapshot_stride": 7}),
    ("simulate-equilibrium-p3.5", "simulate",
     {"L": 20, "n": 401, "T": 5, "init": "equilibrium", "p": 3.5, "dt": 0.0375}),
    ("simulate-blowup", "simulate",
     {"L": 20, "n": 401, "T": 40, "init": "q", "z": 0.5, "scale": 1.5, "gamma": 0}),
    ("simulate-nonfinite", "simulate",
     {"L": 20, "n": 401, "T": 40, "init": "q", "z": 0.5, "scale": 1.5, "gamma": 0,
      "blowup_cap": 1e300, "snapshot_stride": 7}),
    ("simulate-contaminated", "simulate",
     {"L": 6, "n": 121, "T": 20, "init": "gaussian", "alpha": 0.01, "gamma": 0,
      "nonlinearity": 0}),
    ("simulate-family-odd-T", "simulate",
     {"L": 25, "n": 501, "T": 3.01, "init": "family", "varsigma": 1, "z": 4,
      "lambda": -0.1, "sign": -1, "p": 4}),
    ("shoot-free", "shoot", {**SHOOT_GRID, "gamma": -1, "z": 3}),
    ("shoot-free-negative", "shoot", {**SHOOT_GRID, "gamma": -1, "z": 3, "sign": -1}),
    ("shoot-even", "shoot", {**SHOOT_GRID, "gamma": -2.5, "varsigma": 1, "z": 4.5}),
    ("shoot-bad-bracket", "shoot",
     {**SHOOT_GRID, "gamma": -1, "z": 3, "lambda_lo": -0.3, "lambda_hi": -0.2}),
    ("track", "track",
     {"L": 25, "n": 501, "dt": 0.05, "T": 6, "init": "q", "z": 4,
      "snapshot_stride": 5}),
    ("variational-free", "variational",
     {"L": 15, "n": 301, "init": "q", "z": 3, "max_iters": 400}),
    ("variational-even", "variational",
     {"L": 15, "n": 301, "init": "family", "varsigma": 1, "z": 3.5,
      "symmetry": "even", "max_iters": 400}),
    # free start on the pinned saddle Q_gamma, gamma = -1 (escapes at 4/3)
    ("variational-saddle", "variational", {"L": 15, "n": 601, "init": "qgamma"}),
    # gamma = -2.5 even pair (escapes at 2 J_0(Q) = 8/3)
    ("variational-repulsive", "variational",
     {"L": 20, "n": 801, "init": "family", "varsigma": 1, "z": 4.5, "gamma": -2.5,
      "symmetry": "even"}),
    # one interior unknown: 1x1 preconditioner solve
    ("variational-n3", "variational", {"L": 1, "n": 3, "dt": 0.5}),
    # config errors: the message, its line and exit 2 (keys are written sorted)
    ("config-unknown-key", "simulate", {"L": 20, "n": 401, "speed": 1}),
    ("config-cfl", "simulate", {"L": 10, "n": 201, "dt": 0.051}),
    ("config-nan-T", "simulate", {"L": 20, "n": 401, "T": "nan"}),
    # mu is a module constant, not a key
    ("config-retired-key", "track", {"L": 20, "n": 401, "mu": 0.1}),
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
    # the start's energy is not finite: refused before sample 0 (exit 3)
    ("simulate-huge-scale", "simulate",
     {"L": 15, "n": 301, "T": 1, "init": "gaussian", "scale": 1e80}),
    ("track-huge-scale", "track",
     {"L": 15, "n": 301, "T": 1, "init": "gaussian", "scale": 1e200}),
    # once an OverflowError in decompose (a_minus squared); the start's energy
    # is not finite either, so evolve now refuses it first (exit 3)
    ("track-huge-scale-n3", "track",
     {"L": 40, "n": 3, "init": "gaussian", "scale": 1e160, "p": 4, "T": 0}),
)


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="directory for the artifacts")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the kgdelta package to run")
    args = parser.parse_args(argv)
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
