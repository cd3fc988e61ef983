"""Batch front-end.

    kg {profile,simulate,shoot,track,variational} --config FILE [--out DIR]

Config files are line-based ``key = value`` text with ``#`` comments, read
against the schema ``RunConfig``; unknown keys, type mismatches, and
constraint violations are reported with their line number.  This is the
only module that reads or writes files.  Every artifact embeds the
fully-resolved config (sorted ``# key = value`` lines in CSVs, a "config"
object in JSON), floats are always printed with %.17g and JSON keys sorted,
so identical config + build gives byte-identical outputs.

Exit codes: 0 success, 2 config error, unusable --out or an artifact that
cannot be written, 3 numeric failure (a partial summary with an
``incomplete`` marker is left behind).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import experiments, profiles, variational
from .errors import ConfigError, KgError
from .evolution import DEFAULT_CAP, EXIT_CONTAMINATION, discrete_stationary_profile, evolve
from .field import (
    MAX_NODES,
    GridSpec,
    PhysParams,
    State,
    diagnostics_MW,
    dt_bound_text,
    dt_is_stable,
    make_grid,
    spacing,
)


# init choice -> the profile of u(0), built from (cfg, params, grid);
# u(0) is scale times it and v(0) is always zero
_INITS = {
    "qgamma": lambda cfg, params, grid: profiles.soliton_Q_gamma(grid.x, params),
    "q": lambda cfg, params, grid: profiles.soliton_Q(grid.x - cfg.z, params.p),
    "equilibrium": lambda cfg, params, grid: discrete_stationary_profile(
        profiles.soliton_Q_gamma(grid.x, params), params, grid),
    "family": lambda cfg, params, grid: experiments.initial_family(
        cfg.lam, cfg.varsigma, cfg.z, grid, params).u,
    "gaussian": lambda cfg, params, grid: np.exp(-grid.x * grid.x),
}
_INIT_CHOICES = tuple(_INITS)


def _key(default, *rules, key: str | None = None):
    """One config key: its default and the rules (ok, text[, at]) it must pass.

    ok(v, c) sees the value v and all parsed values c by attribute.  A failed
    rule reports "<key> <text>" (text formatted with v, or called with (v, c))
    on the key's line, or on the line and under the name of key ``at``.
    ``key`` renames the attribute.
    """
    return field(default=default, metadata={"key": key, "rules": rules})


_POSITIVE = (lambda v, c: v > 0, "must be positive")
_POSITIVE_GOT = (lambda v, c: v > 0, "must be positive, got {v}")
# "not v < 0" rather than "v >= 0": these keys have always let nan through
_NONNEGATIVE = (lambda v, c: not v < 0, "must be nonnegative")
_AT_LEAST_1 = (lambda v, c: not v < 1, "must be >= 1")
_UNIT_RANGE = (lambda v, c: -1.0 <= v <= 1.0, "must lie in [-1, 1], got {v}")


@dataclass
class RunConfig:
    """The config schema: one field per key, validated in field order."""

    p: float = _key(3.0, (lambda v, c: v > 2, "must exceed 2, got {v}"))
    alpha: float = _key(1.0, _POSITIVE_GOT)
    gamma: float = _key(-1.0, (lambda v, c: v < 2, "must be below 2, got {v}"))
    L: float = _key(60.0, _POSITIVE_GOT)
    n: int = _key(2401, (lambda v, c: not (v < 3 or v % 2 == 0),
                         "must be an odd count >= 3, got {v}"),
                  (lambda v, c: v <= MAX_NODES, "must not exceed the largest float"))
    dt: float = _key(0.025, _POSITIVE_GOT, (
        lambda v, c: dt_is_stable(v, spacing(c["L"], c["n"]), c["gamma"]),
        lambda v, c: f"= {v} violates "
                     f"{dt_bound_text(spacing(c['L'], c['n']), c['gamma'])}"))
    T: float = _key(10.0, _NONNEGATIVE)
    snapshot_stride: int = _key(10, _AT_LEAST_1)
    blowup_cap: float = _key(DEFAULT_CAP, _POSITIVE)
    init: str = _key("qgamma", (lambda v, c: v in _INIT_CHOICES,
                                f"must be one of {_INIT_CHOICES}, got {{v!r}}"))
    lam: float = _key(0.0, _UNIT_RANGE, key="lambda")  # "lambda" is a keyword
    varsigma: int = _key(0, (lambda v, c: v in (0, 1), "must be 0 or 1, got {v}"))
    # the largest |x - z| of a profile is L + z, and (p - 1) times it must not
    # overflow where log cosh((p - 1) (x - z) / 2) doubles its argument (a grid
    # whose spacing overflows is left to GridSpec, which refuses it)
    z: float = _key(5.0, _POSITIVE_GOT, (
        lambda v, c: (c["p"] - 1.0) * (c["L"] + v) <= 1e308
        or not math.isfinite(spacing(c["L"], c["n"])),
        "must keep (p - 1) * (L + z) at most 1e308", "p"))
    scale: float = _key(1.0)
    symmetry: str = _key("none", (lambda v, c: v in variational.SYMMETRIES,
                                  f"must be one of {variational.SYMMETRIES}"))
    lambda_lo: float = _key(-0.3, _UNIT_RANGE)
    lambda_hi: float = _key(0.3, _UNIT_RANGE, (lambda v, c: c["lambda_lo"] < v,
                                               "must be below lambda_hi", "lambda_lo"))
    tol: float = _key(1e-10, _POSITIVE)
    T_max: float = _key(200.0, _POSITIVE)
    max_iters: int = _key(20000, _AT_LEAST_1)
    nonlinearity: int = _key(1, (lambda v, c: v in (0, 1), "must be 0 or 1"))

    def params(self) -> PhysParams:
        return PhysParams(p=self.p, alpha=self.alpha, gamma=self.gamma)

    def grid(self) -> GridSpec:
        return make_grid(self.L, self.n)


def _name(f) -> str:
    return f.metadata["key"] or f.name


@functools.cache
def _schema() -> tuple[dict, dict]:
    """key -> field of RunConfig, and attribute -> type, resolved once."""
    return {_name(f): f for f in fields(RunConfig)}, get_type_hints(RunConfig)


def parse_config(text: str) -> RunConfig:
    schema, types = _schema()
    values = {f.name: f.default for f in schema.values()}
    lines: dict[str, int] = {}  # key -> line it was set on

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in lines:
            raise ConfigError(f"duplicate key {key!r} (first at line {lines[key]})", lineno)
        attr = schema[key].name
        kind = types[attr]
        try:
            values[attr] = kind(val)
        except ValueError:
            raise ConfigError(
                f"{key} expects {kind.__name__}, got {val!r}", lineno
            ) from None
        if kind is float and not math.isfinite(values[attr]):
            raise ConfigError(f"{key} must be finite, got {val!r}", lineno)
        lines[key] = lineno

    for key, f in schema.items():
        v = values[f.name]
        for ok, text, *at in f.metadata["rules"]:
            if not ok(v, values):
                text = text(v, values) if callable(text) else text.format(v=v)
                blamed = at[0] if at else key
                raise ConfigError(f"{blamed} {text}", lines.get(blamed, 0))
    return RunConfig(**values)


# ---------------------------------------------------------------- formatting

# the one float format of every artifact: %.17g round-trips a double
FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def echo_lines(cfg: RunConfig) -> list[str]:
    """Sorted ``key = value`` lines of the fully-resolved config."""
    return sorted(f"{key} = {_fmt(val) if isinstance(val, float) else val}"
                  for key, val in _config_obj(cfg).items())


def _config_obj(cfg: RunConfig) -> dict:
    return {_name(f): getattr(cfg, f.name) for f in fields(cfg)}


def _jdump(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return _fmt(x) if np.isfinite(x) else json.dumps(str(x))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_jdump(obj[k], indent + 1)}'
            for k in sorted(obj)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        inner = ",\n".join(f"{pad}  {_jdump(v, indent + 1)}" for v in seq)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_summary(out: Path, command: str, cfg: RunConfig, fields: dict) -> None:
    """<command>.json: the resolved config, the command's fields and the
    ``incomplete`` flag, False unless the fields set it."""
    obj = {"config": _config_obj(cfg), "incomplete": False, **fields}
    (out / f"{command}.json").write_text(_jdump(obj) + "\n", newline="\n")


def _write_csv(
    path: Path, cfg: RunConfig, columns: list[str], rows, extra: list[str] | None = None
) -> None:
    """The one CSV layout: the config echo and the extra lines as ``# ``
    comments, the column line, then one %.17g line per row."""
    lines = ["# " + e for e in [*echo_lines(cfg), *(extra or ())]]
    lines.append(",".join(columns))
    row_format = ",".join([FLOAT_FORMAT] * len(columns))
    lines += [row_format % tuple(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", newline="\n")


# --------------------------------------------------------------- subcommands

def _build_initial(cfg: RunConfig, params: PhysParams, grid: GridSpec) -> State:
    u = cfg.scale * _INITS[cfg.init](cfg, params, grid)
    return State(u=u, v=np.zeros(grid.n))


def _evolve(cfg: RunConfig, params: PhysParams, grid: GridSpec, observer=None):
    """The configured run: evolve from the configured start with the
    config's T, dt, snapshot_stride, blowup_cap and nonlinearity switch."""
    return evolve(_build_initial(cfg, params, grid), cfg.T, cfg.dt, params, grid,
                  observer, snapshot_stride=cfg.snapshot_stride,
                  blowup_cap=cfg.blowup_cap,
                  with_nonlinearity=bool(cfg.nonlinearity))


def cmd_profile(cfg: RunConfig, params: PhysParams, grid: GridSpec, out: Path) -> None:
    x = grid.x
    columns = ["x", "Q", "Q_deriv", "phi"]
    data = [
        x,
        profiles.soliton_Q(x, params.p),
        profiles.soliton_Q_deriv(x, params.p),
        profiles.neutral_even_mode_phi(x, params.p),
    ]
    if abs(params.gamma) < 2.0:
        columns.append("Q_gamma")
        data.append(profiles.soliton_Q_gamma(x, params))
    _write_csv(out / "profile.csv", cfg, columns, zip(*data))

    con = profiles.spectral_constants(params)
    _write_summary(out, "profile", cfg, {
        "constants": {
            "c_Q": con.c_Q,
            "nu": con.nu,
            "nu_plus": con.nu_plus,
            "nu_minus": con.nu_minus,
        },
        "interaction_constants": {
            f"c_{m}": profiles.interaction_constant_cm(m, params.p)
            for m in (2, 3, 4)
        },
        "levels": variational.reference_levels(params),
    })


def cmd_simulate(cfg: RunConfig, params: PhysParams, grid: GridSpec, out: Path) -> None:
    traj = _evolve(cfg, params, grid)
    _write_csv(
        out / "trajectory.csv",
        cfg,
        ["t", "E_gamma", "H1_norm", "L2_v_norm", "u_at_0", "damping_integral"],
        zip(traj.sample_times, traj.energies, traj.norm_H1,
            traj.norm_L2_v, traj.u_center, traj.damping),
    )
    _write_csv(out / "final_state.csv", cfg, ["x", "u", "v"],
               zip(grid.x, traj.final.u, traj.final.v),
               extra=[f"t = {_fmt(traj.final.t)}"])
    mw = diagnostics_MW(traj.final, params, grid, traj.mass_integrals[-1])
    _write_summary(out, "simulate", cfg, {
        "exit": traj.exit,
        "t_final": traj.final.t,
        "samples": len(traj.sample_times),
        "sup_norm_H": traj.sup_norm_H,
        "E_initial": traj.energies[0],
        "E_final": traj.energies[-1],
        "damping_total": traj.damping_integral,
        "M_value": mw["M_value"],
        "W_value": mw["W_value"],
    })


def cmd_shoot(cfg: RunConfig, params: PhysParams, grid: GridSpec, out: Path) -> None:
    res = experiments.bisect_threshold(
        cfg.varsigma, cfg.z, params, grid, cfg.lambda_lo, cfg.lambda_hi, cfg.tol,
        cfg.T_max, dt=cfg.dt, blowup_cap=cfg.blowup_cap)
    probe_rows = []
    for i, (lam, outc) in enumerate(res.probes):
        traj = outc.trajectory
        probe_rows.append(
            {
                "index": i,
                "lambda": lam,
                "classification": outc.classification,
                "certificate_time": outc.certificate_time,
                **outc.certificate,
                "exit": traj.exit,
                "contaminated": traj.exit == EXIT_CONTAMINATION,
            }
        )
        _write_csv(
            out / f"probe_{i:03d}.csv",
            cfg,
            ["t", "E_gamma", "K_gamma", "norm_H"],
            zip(traj.sample_times, traj.energies, traj.K_gamma, traj.norm_H),
            extra=[f"lambda = {_fmt(lam)}",
                   f"classification = {outc.classification}"],
        )
    _write_summary(out, "shoot", cfg, {
        "lambda_star": res.lambda_star,
        "bracket_width": res.bracket_width,
        "bracket_lo": res.bracket_lo,
        "bracket_hi": res.bracket_hi,
        "decays_end": res.decays_end,
        "converged": res.converged,
        "probes": probe_rows,
    })


def cmd_track(cfg: RunConfig, params: PhysParams, grid: GridSpec, out: Path) -> None:
    tracker = experiments.CenterTracker(cfg.varsigma, params, grid)
    traj = _evolve(cfg, params, grid, tracker)
    report = tracker.report()
    rows = [
        (fr.t, fr.z, fr.a_plus, fr.a_minus, fr.a_zero, fr.script_E, fr.script_G,
         fr.eps_norm_H, fr.z_dot_measured, fr.z_dot_predicted, fr.relative_gap)
        for fr in report.frames
    ]
    _write_csv(
        out / "frames.csv",
        cfg,
        [
            "t", "z", "a_plus", "a_minus", "a_zero", "script_E", "script_G",
            "eps_norm_H", "zdot_measured", "zdot_predicted", "relative_gap",
        ],
        rows,
    )
    _write_summary(out, "track", cfg, {
        "exit": traj.exit,
        "t_final": traj.final.t,
        "n_frames": len(report.frames),
        "n_valid": int(np.count_nonzero(report.valid_mask)),
        "sup_half_log": report.sup_half_log,
        "empty": report.empty,
    })


def cmd_variational(cfg: RunConfig, params: PhysParams, grid: GridSpec,
                    out: Path) -> None:
    u_init = _build_initial(cfg, params, grid).u
    rep = variational.minimize_level(params, grid, cfg.symmetry, u_init, cfg.max_iters)
    _write_csv(out / "iterates.csv", cfg, list(rep.history),
               zip(*rep.history.values()))
    _write_summary(out, "variational", cfg, {
        "level_estimate": rep.level_estimate,
        "reference_level": rep.reference_level,
        "escaped": rep.escaped,
        "stop": rep.stop,
        "iterations": rep.iterations,
        "escape_diagnostic": rep.escape_diagnostic,
    })


_RUNNERS = {
    "profile": cmd_profile,
    "simulate": cmd_simulate,
    "shoot": cmd_shoot,
    "track": cmd_track,
    "variational": cmd_variational,
}


def _run(command: str, cfg: RunConfig, out: Path) -> int:
    """Run one subcommand on the config's parameters and grid, built here
    once, into the existing directory out; its exit code."""
    try:
        _RUNNERS[command](cfg, cfg.params(), cfg.grid(), out)
    except KgError as exc:
        _write_summary(out, command, cfg, {"incomplete": True, "error": str(exc)})
        print(f"{command} failed: {exc}", file=sys.stderr)
        return 3
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to main."""
    parser = argparse.ArgumentParser(
        prog="kg",
        description="Soliton laboratory for the damped Klein-Gordon equation "
        "with a delta potential",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _run(args.command, cfg, out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
