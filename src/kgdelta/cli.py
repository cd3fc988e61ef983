"""Batch front-end.

    kg {profile,simulate,shoot,track,variational,check} --config FILE [--out DIR]

Config files are line-based ``key = value`` text with ``#`` comments; unknown
keys, type mismatches, and constraint violations are reported with their line
number.  Every artifact embeds the fully-resolved config (sorted ``# key =
value`` lines in CSVs, a "config" object in JSON), floats are always printed
with %.17g and JSON keys sorted, so identical config + build gives
byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 numeric failure (a partial summary
with an ``incomplete`` marker is left behind), 4 check-suite failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import experiments, modulation, profiles, variational
from .errors import ConfigError, KgError
from .evolution import build_operator, discrete_stationary_profile, evolve
from .field import (
    GridSpec,
    PhysParams,
    State,
    diagnostics_MW,
    energy_E_gamma,
    functional_K_gamma,
    make_grid,
    save_state,
    trapezoid,
)

_INIT_CHOICES = ("qgamma", "q", "equilibrium", "family", "gaussian")
_SYMMETRY_CHOICES = ("none", "even")

# (config key, attribute, python type, default); "lambda" is a keyword, so
# the attribute is lam.
_KEYS = (
    ("p", "p", float, 3.0),
    ("alpha", "alpha", float, 1.0),
    ("gamma", "gamma", float, -1.0),
    ("L", "L", float, 60.0),
    ("n", "n", int, 2401),
    ("dt", "dt", float, 0.025),
    ("T", "T", float, 10.0),
    ("snapshot_stride", "snapshot_stride", int, 10),
    ("blowup_cap", "blowup_cap", float, 1.0e3),
    ("mu", "mu", float, None),  # materialized to alpha/10
    ("L_weight", "L_weight", float, 100.0),
    ("tube_radius", "tube_radius", float, 0.3),
    ("cert_margin", "cert_margin", float, 2e-3),
    ("init", "init", str, "qgamma"),
    ("lambda", "lam", float, 0.0),
    ("varsigma", "varsigma", int, 0),
    ("z", "z", float, 5.0),
    ("sign", "sign", int, 1),
    ("scale", "scale", float, 1.0),
    ("symmetry", "symmetry", str, "none"),
    ("lambda_lo", "lambda_lo", float, -0.3),
    ("lambda_hi", "lambda_hi", float, 0.3),
    ("tol", "tol", float, 1e-10),
    ("descent_tol", "descent_tol", float, 1e-9),
    ("T_max", "T_max", float, 200.0),
    ("max_iters", "max_iters", int, 20000),
    ("seed", "seed", int, 0),
    ("workers", "workers", int, 1),
    ("nonlinearity", "nonlinearity", int, 1),
)
_BY_KEY = {key: (attr, kind, default) for key, attr, kind, default in _KEYS}


@dataclass
class RunConfig:
    p: float
    alpha: float
    gamma: float
    L: float
    n: int
    dt: float
    T: float
    snapshot_stride: int
    blowup_cap: float
    mu: float
    L_weight: float
    tube_radius: float
    cert_margin: float
    init: str
    lam: float
    varsigma: int
    z: float
    sign: int
    scale: float
    symmetry: str
    lambda_lo: float
    lambda_hi: float
    tol: float
    descent_tol: float
    T_max: float
    max_iters: int
    seed: int
    workers: int
    nonlinearity: int

    def params(self) -> PhysParams:
        return PhysParams(p=self.p, alpha=self.alpha, gamma=self.gamma)

    def grid(self) -> GridSpec:
        return make_grid(self.L, self.n)


def parse_config(text: str) -> RunConfig:
    values = {key: default for key, _, _, default in _KEYS}
    lines = {key: 0 for key in values}
    seen: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _BY_KEY:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first at line {seen[key]})", lineno)
        seen[key] = lineno
        _, kind, _ = _BY_KEY[key]
        try:
            values[key] = kind(val) if kind is not str else val
        except ValueError:
            raise ConfigError(
                f"{key} expects {kind.__name__}, got {val!r}", lineno
            ) from None
        lines[key] = lineno

    def fail(key: str, message: str) -> None:
        raise ConfigError(message, lines[key])

    if not values["p"] > 2:
        fail("p", f"p must exceed 2, got {values['p']}")
    if not values["alpha"] > 0:
        fail("alpha", f"alpha must be positive, got {values['alpha']}")
    if not values["gamma"] < 2:
        fail("gamma", f"gamma must be below 2, got {values['gamma']}")
    if not values["L"] > 0:
        fail("L", f"L must be positive, got {values['L']}")
    if values["n"] < 3 or values["n"] % 2 == 0:
        fail("n", f"n must be an odd count >= 3, got {values['n']}")
    if not values["dt"] > 0:
        fail("dt", f"dt must be positive, got {values['dt']}")
    h = 2.0 * values["L"] / (values["n"] - 1)
    if values["dt"] > 0.5 * h * (1.0 + 1e-12):
        fail("dt", f"dt = {values['dt']} violates the CFL bound 0.5*h = {0.5 * h}")
    if values["T"] < 0:
        fail("T", "T must be nonnegative")
    if values["snapshot_stride"] < 1:
        fail("snapshot_stride", "snapshot_stride must be >= 1")
    if not values["blowup_cap"] > 0:
        fail("blowup_cap", "blowup_cap must be positive")
    if values["mu"] is None:
        values["mu"] = 0.1 * values["alpha"]
    if not 0 < values["mu"] < 2 * values["alpha"]:
        fail("mu", f"mu must lie in (0, 2*alpha), got {values['mu']}")
    if values["L_weight"] < 0:
        fail("L_weight", "L_weight must be nonnegative")
    if not values["tube_radius"] > 0:
        fail("tube_radius", "tube_radius must be positive")
    if values["cert_margin"] < 0:
        fail("cert_margin", "cert_margin must be nonnegative")
    if values["init"] not in _INIT_CHOICES:
        fail("init", f"init must be one of {_INIT_CHOICES}, got {values['init']!r}")
    if not -1.0 <= values["lambda"] <= 1.0:
        fail("lambda", f"lambda must lie in [-1, 1], got {values['lambda']}")
    if values["varsigma"] not in (0, 1):
        fail("varsigma", f"varsigma must be 0 or 1, got {values['varsigma']}")
    if not values["z"] > 0:
        fail("z", f"z must be positive, got {values['z']}")
    if values["sign"] not in (-1, 1):
        fail("sign", f"sign must be -1 or 1, got {values['sign']}")
    if values["symmetry"] not in _SYMMETRY_CHOICES:
        fail("symmetry", f"symmetry must be one of {_SYMMETRY_CHOICES}")
    for key in ("lambda_lo", "lambda_hi"):
        if not -1.0 <= values[key] <= 1.0:
            fail(key, f"{key} must lie in [-1, 1], got {values[key]}")
    if not values["lambda_lo"] < values["lambda_hi"]:
        fail("lambda_lo", "lambda_lo must be below lambda_hi")
    if not values["tol"] > 0:
        fail("tol", "tol must be positive")
    if not values["descent_tol"] > 0:
        fail("descent_tol", "descent_tol must be positive")
    if not values["T_max"] > 0:
        fail("T_max", "T_max must be positive")
    if values["max_iters"] < 1:
        fail("max_iters", "max_iters must be >= 1")
    if values["seed"] < 0:
        fail("seed", "seed must be nonnegative")
    if values["workers"] < 1:
        fail("workers", "workers must be >= 1")
    if values["nonlinearity"] not in (0, 1):
        fail("nonlinearity", "nonlinearity must be 0 or 1")

    return RunConfig(**{attr: values[key] for key, attr, _, _ in _KEYS})


# ---------------------------------------------------------------- formatting

def _fmt(x: float) -> str:
    return "%.17g" % x


def echo_pairs(cfg: RunConfig) -> list[tuple[str, str]]:
    """Sorted (key, rendered value) pairs of the fully-resolved config."""
    out = []
    for key, attr, kind, _ in _KEYS:
        val = getattr(cfg, attr)
        out.append((key, _fmt(val) if kind is float else str(val)))
    return sorted(out)


def echo_lines(cfg: RunConfig) -> list[str]:
    return [f"{k} = {v}" for k, v in echo_pairs(cfg)]


def _config_obj(cfg: RunConfig) -> dict:
    return {key: getattr(cfg, _BY_KEY[key][0]) for key, _, _, _ in _KEYS}


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


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(_jdump(obj) + "\n", newline="\n")


def _write_csv(
    path: Path, cfg: RunConfig, columns: list[str], rows, extra: list[str] | None = None
) -> None:
    lines = ["# " + e for e in echo_lines(cfg)]
    for e in extra or ():
        lines.append("# " + e)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


# --------------------------------------------------------------- subcommands

def _build_initial(cfg: RunConfig, params: PhysParams, grid: GridSpec) -> State:
    x = grid.x
    if cfg.init == "qgamma":
        u = cfg.scale * profiles.soliton_Q_gamma(x, params)
    elif cfg.init == "q":
        u = cfg.scale * profiles.soliton_Q(x - cfg.z, params.p)
    elif cfg.init == "equilibrium":
        if abs(params.gamma) < 2.0:
            guess = profiles.soliton_Q_gamma(x, params)
        else:
            guess = profiles.soliton_Q(x, params.p)
        u = cfg.scale * discrete_stationary_profile(guess, params, grid)
    elif cfg.init == "family":
        state = experiments.initial_family(cfg.lam, cfg.varsigma, cfg.z, grid, params)
        u = cfg.sign * state.u
    elif cfg.init == "gaussian":
        u = cfg.scale * np.exp(-x * x)
    else:  # pragma: no cover - parse_config rejects other values
        raise ConfigError(f"unhandled init {cfg.init!r}")
    return State(u=u, v=np.zeros(grid.n))


def cmd_profile(cfg: RunConfig, out: Path) -> None:
    params, grid = cfg.params(), cfg.grid()
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
    _write_json(
        out / "profile.json",
        {
            "config": _config_obj(cfg),
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
            "incomplete": False,
        },
    )


def cmd_simulate(cfg: RunConfig, out: Path) -> None:
    params, grid = cfg.params(), cfg.grid()
    state0 = _build_initial(cfg, params, grid)
    traj = evolve(
        state0,
        cfg.T,
        cfg.dt,
        params,
        grid,
        snapshot_stride=cfg.snapshot_stride,
        blowup_cap=cfg.blowup_cap,
        with_nonlinearity=bool(cfg.nonlinearity),
        keep_snapshots=False,
    )
    _write_csv(
        out / "trajectory.csv",
        cfg,
        ["t", "E_gamma", "H1_norm", "L2_v_norm", "u_at_0", "damping_integral"],
        zip(traj.sample_times, traj.ledger.energies, traj.norm_H1,
            traj.norm_L2_v, traj.u_center, traj.ledger.damping),
    )
    final = traj.states[-1]
    save_state(out / "final_state.csv", final, params, grid, extra_header=echo_lines(cfg))
    mw = diagnostics_MW(final, params, grid, traj.mass_integrals[-1])
    _write_json(
        out / "simulate.json",
        {
            "config": _config_obj(cfg),
            "exit": traj.exit,
            "samples": len(traj.sample_times),
            "sup_norm_H": traj.sup_norm_H,
            "E_initial": traj.ledger.energies[0],
            "E_final": traj.ledger.energies[-1],
            "damping_total": traj.ledger.damping_integral,
            "M_value": mw["M_value"],
            "W_value": mw["W_value"],
            "incomplete": False,
        },
    )


def cmd_shoot(cfg: RunConfig, out: Path) -> None:
    params, grid = cfg.params(), cfg.grid()
    res = experiments.bisect_threshold(
        cfg.varsigma,
        cfg.z,
        params,
        grid,
        cfg.lambda_lo,
        cfg.lambda_hi,
        cfg.tol,
        cfg.T_max,
        dt=cfg.dt,
        workers=cfg.workers,
        sign=cfg.sign,
        blowup_cap=cfg.blowup_cap,
        cert_margin=cfg.cert_margin,
    )
    probe_rows = []
    for i, (lam, outc) in enumerate(res.probes):
        probe_rows.append(
            {
                "index": i,
                "lambda": lam,
                "classification": outc.classification,
                "certificate_time": outc.certificate_time,
                "E_gamma_at_cert": outc.certificate["E_gamma_at_cert"],
                "K_gamma_at_cert": outc.certificate["K_gamma_at_cert"],
                "level_used": outc.certificate["level_used"],
                "symmetry": outc.certificate["symmetry"],
                "exit": outc.trajectory_summary["exit"],
                "contaminated": outc.trajectory_summary["contaminated"],
            }
        )
        summ = outc.trajectory_summary
        _write_csv(
            out / f"probe_{i:03d}.csv",
            cfg,
            ["t", "E_gamma", "K_gamma", "norm_H"],
            zip(summ["t"], summ["E_gamma"], summ["K_gamma"], summ["norm_H"]),
            extra=[f"lambda = {_fmt(lam)}",
                   f"classification = {outc.classification}"],
        )
    _write_json(
        out / "shoot.json",
        {
            "config": _config_obj(cfg),
            "lambda_star": res.lambda_star,
            "bracket_width": res.bracket_width,
            "bracket_lo": res.bracket_lo,
            "bracket_hi": res.bracket_hi,
            "decays_end": res.decays_end,
            "converged": res.converged,
            "probes": probe_rows,
            "incomplete": False,
        },
    )


def cmd_track(cfg: RunConfig, out: Path) -> None:
    params, grid = cfg.params(), cfg.grid()
    state0 = _build_initial(cfg, params, grid)
    traj = evolve(
        state0,
        cfg.T,
        cfg.dt,
        params,
        grid,
        snapshot_stride=cfg.snapshot_stride,
        blowup_cap=cfg.blowup_cap,
    )
    report = experiments.track_center(
        traj,
        cfg.varsigma,
        cfg.sign,
        params,
        grid,
        mu=cfg.mu,
        L_weight=cfg.L_weight,
        tube_radius=cfg.tube_radius,
    )
    rows = []
    for fr, ode in zip(report.frames, report.ode_reports):
        rows.append(
            (
                fr.t,
                fr.z,
                fr.a_plus,
                fr.a_minus,
                fr.a_zero,
                fr.script_E,
                fr.script_G,
                fr.eps_norm_H,
                ode.z_dot_measured,
                ode.z_dot_predicted,
                ode.relative_gap,
            )
        )
    _write_csv(
        out / "frames.csv",
        cfg,
        [
            "t", "z", "a_plus", "a_minus", "a_zero", "script_E", "script_G",
            "eps_norm_H", "zdot_measured", "zdot_predicted", "relative_gap",
        ],
        rows,
    )
    _write_json(
        out / "track.json",
        {
            "config": _config_obj(cfg),
            "exit": traj.exit,
            "n_frames": len(report.frames),
            "n_valid": int(np.count_nonzero(report.valid_mask)),
            "sup_half_log": report.sup_half_log,
            "empty": report.empty,
            "incomplete": False,
        },
    )


def cmd_variational(cfg: RunConfig, out: Path) -> None:
    params, grid = cfg.params(), cfg.grid()
    u_init = _build_initial(cfg, params, grid).u
    rep = variational.minimize_level(
        params, grid, cfg.symmetry, u_init, cfg.max_iters, tol=cfg.descent_tol
    )
    hist = rep.history
    _write_csv(
        out / "iterates.csv",
        cfg,
        ["iter", "J", "K_residual", "center_drift", "mass_near_origin"],
        zip(
            hist["iter"], hist["J"], hist["K_residual"],
            hist["center_drift"], hist["mass_near_origin"],
        ),
    )
    _write_json(
        out / "variational.json",
        {
            "config": _config_obj(cfg),
            "level_estimate": rep.level_estimate,
            "reference_level": rep.reference_level,
            "escaped": rep.escaped,
            "iterations": rep.iterations,
            "escape_diagnostic": rep.escape_diagnostic,
            "incomplete": False,
        },
    )


# -------------------------------------------------------------------- checks

def _check_profile_jump(cfg: RunConfig):
    params = cfg.params()
    gamma = params.gamma if abs(params.gamma) < 2.0 else -1.0
    par = PhysParams(p=params.p, alpha=params.alpha, gamma=gamma)
    shift = 2.0 * np.arctanh(gamma / 2.0) / (par.p - 1.0)
    jump = 2.0 * profiles.soliton_Q_deriv(shift, par.p)
    target = -gamma * profiles.soliton_Q(shift, par.p)
    err = abs(jump - target)
    return err <= 1e-12, f"|jump + gamma*Q_gamma(0)| = {err:.3e}"


def _check_operator_reflection(cfg: RunConfig):
    grid = make_grid(10.0, 101)
    op = build_operator(grid, cfg.params())
    rng = np.random.default_rng(cfg.seed)
    u = rng.standard_normal(grid.n)
    lhs = op.apply(u[::-1])
    rhs = op.apply(u)[::-1]
    ok = np.array_equal(lhs, rhs)
    return ok, "A(reflect u) == reflect(A u) exactly" if ok else "mismatch"


def _check_energy_identity(cfg: RunConfig):
    params = cfg.params()
    grid = make_grid(20.0, 401)
    if abs(params.gamma) < 2.0:
        u0 = 0.9 * profiles.soliton_Q_gamma(grid.x, params)
    else:
        u0 = 0.9 * profiles.soliton_Q(grid.x, params.p)
    traj = evolve(State(u=u0, v=np.zeros(grid.n)), 5.0, 0.025, params, grid,
                  keep_snapshots=False)
    e0, ef = traj.ledger.energies[0], traj.ledger.energies[-1]
    resid = abs(ef - e0 + traj.ledger.damping_integral)
    ok = resid <= 1e-3 * max(1.0, abs(e0)) and ef <= e0 + 1e-8
    return ok, f"|E_f - E_0 + damping| = {resid:.3e}"


def _check_nehari_idempotent(cfg: RunConfig):
    params = cfg.params()
    grid = make_grid(15.0, 301)
    rng = np.random.default_rng(cfg.seed + 1)
    u = profiles.soliton_Q(grid.x, params.p) + 0.1 * rng.standard_normal(grid.n)
    once = variational.nehari_project(u, params, grid)
    twice = variational.nehari_project(once, params, grid)
    err = float(np.max(np.abs(twice - once))) / max(1.0, float(np.max(np.abs(once))))
    return err <= 1e-12, f"second projection moved {err:.3e}"


def _check_dichotomy(cfg: RunConfig):
    params = PhysParams(p=cfg.p, alpha=cfg.alpha, gamma=0.0)
    grid = make_grid(20.0, 401)
    q = profiles.soliton_Q(grid.x, params.p)
    small = experiments.classify_trajectory(
        State(u=0.5 * q, v=np.zeros(grid.n)), params, grid, 60.0, "none"
    )
    large = experiments.classify_trajectory(
        State(u=1.5 * q, v=np.zeros(grid.n)), params, grid, 60.0, "none"
    )
    ok = small.classification == "Decays" and large.classification == "BlowsUp"
    return ok, f"0.5Q -> {small.classification}, 1.5Q -> {large.classification}"


def _check_sign_symmetry(cfg: RunConfig):
    params = cfg.params()
    grid = make_grid(15.0, 301)
    rng = np.random.default_rng(cfg.seed + 2)
    st = State(u=rng.standard_normal(grid.n), v=rng.standard_normal(grid.n))
    neg = State(u=-st.u, v=-st.v)
    same = energy_E_gamma(st, params, grid) == energy_E_gamma(neg, params, grid)
    same = same and functional_K_gamma(st.u, params, grid) == functional_K_gamma(
        neg.u, params, grid
    )
    return same, "E and K invariant under (u,v) -> (-u,-v)"


def _check_eigenmode_identity(cfg: RunConfig):
    params = cfg.params()
    grid = make_grid(20.0, 801)
    con = profiles.spectral_constants(params)
    rng = np.random.default_rng(cfg.seed + 3)
    z = 4.0
    u = profiles.soliton_Q(grid.x - z, params.p) + 0.01 * rng.standard_normal(grid.n)
    v = 0.01 * rng.standard_normal(grid.n)
    frame = modulation.decompose(State(u=u, v=v), z, 0, 1, params, grid)
    phi = profiles.neutral_even_mode_phi(grid.x - z, params.p)
    lhs = frame.a_plus - frame.a_minus
    rhs = (con.nu_plus - con.nu_minus) * trapezoid(frame.eps * phi, grid)
    err = abs(lhs - rhs) / max(abs(rhs), 1e-12)
    return err <= 1e-10, f"amplitude identity residual {err:.3e}"


_CHECKS = (
    ("profile_trace_jump", _check_profile_jump),
    ("operator_reflection", _check_operator_reflection),
    ("energy_identity", _check_energy_identity),
    ("nehari_idempotent", _check_nehari_idempotent),
    ("dichotomy_examples", _check_dichotomy),
    ("sign_symmetry", _check_sign_symmetry),
    ("eigenmode_identity", _check_eigenmode_identity),
)


def cmd_check(cfg: RunConfig, out: Path) -> bool:
    results = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn(cfg)
        except KgError as exc:
            passed, detail = False, f"error: {exc}"
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    all_passed = all(r["passed"] for r in results)
    _write_json(
        out / "check.json",
        {
            "config": _config_obj(cfg),
            "results": results,
            "all_passed": all_passed,
            "incomplete": False,
        },
    )
    for r in results:
        print(("PASS" if r["passed"] else "FAIL"), r["name"], "-", r["detail"])
    return all_passed


_RUNNERS = {
    "profile": cmd_profile,
    "simulate": cmd_simulate,
    "shoot": cmd_shoot,
    "track": cmd_track,
    "variational": cmd_variational,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kg",
        description="Soliton laboratory for the damped Klein-Gordon equation "
        "with a delta potential",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_RUNNERS, "check"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "check":
        return 0 if cmd_check(cfg, out) else 4
    try:
        _RUNNERS[args.command](cfg, out)
    except KgError as exc:
        _write_json(
            out / f"{args.command}.json",
            {
                "config": _config_obj(cfg),
                "incomplete": True,
                "error": str(exc),
            },
        )
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
