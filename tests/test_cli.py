"""Config parsing, artifact layout and determinism, and exit codes."""
import json
import re

import numpy as np
import pytest

from kgdelta import cli, evolution, experiments, field
from kgdelta.cli import _build_initial, echo_lines, main, parse_config
from kgdelta.errors import ConfigError
from kgdelta.field import make_grid


def run(tmp_path, command, text, sub="out"):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    out = tmp_path / sub
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, out


def read_csv(path):
    """A CSV artifact as (comment lines without "# ", column names, rows)."""
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    rows = np.loadtxt(lines[k + 1:], delimiter=",", comments=None, ndmin=2)
    return [ln[2:] for ln in lines[:k]], lines[k].split(","), rows


# ------------------------------------------------------------------- parsing

def test_defaults_and_comments():
    cfg = parse_config("# nothing but comments\n\n   # and blanks\n")
    assert cfg.p == 3.0 and cfg.alpha == 1.0 and cfg.gamma == -1.0
    assert cfg.L == 60.0 and cfg.n == 2401


def test_inline_values_and_mu_follows_alpha():
    cfg = parse_config("alpha = 2.0  # inline comment\ngamma = 0.5\n")
    assert cfg.alpha == 2.0 and cfg.gamma == 0.5
    # mu is no key: the twist of script_E is modulation.MU_FACTOR * alpha
    with pytest.raises(ConfigError):
        parse_config("alpha = 2.0\nmu = 0.7\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as ei:
        parse_config("p = 3.0\nwhat = 1\n")
    assert ei.value.line == 2
    with pytest.raises(ConfigError) as ei:
        parse_config("p = 3.0\n\np = 4.0\n")
    assert ei.value.line == 3  # duplicate key reported at the second sighting
    with pytest.raises(ConfigError) as ei:
        parse_config("n = twelve\n")
    assert ei.value.line == 1
    with pytest.raises(ConfigError):
        parse_config("p 3.0\n")  # missing separator


def test_constraint_validation():
    with pytest.raises(ConfigError):
        parse_config("n = 2400\n")  # even point count
    with pytest.raises(ConfigError):
        parse_config("gamma = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("p = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("L = 10\nn = 201\ndt = 0.051\n")  # CFL: dt > h/2 = 0.05
    parse_config("L = 10\nn = 201\ndt = 0.05\n")  # boundary is legal
    # the delta node's -gamma/h entry bounds dt once gamma < -239.95 at h = 0.05
    parse_config("L = 20\nn = 801\ndt = 0.025\ngamma = -239.9\n")
    with pytest.raises(ConfigError):
        parse_config("L = 20\nn = 801\ndt = 0.025\ngamma = -240\n")


# one invalid value per constrained key, on line 3 unless the case says
# otherwise: the exact message and the reported line are part of the schema
SCHEMA_CASES = [
    ("p = 2", 3, "p must exceed 2, got 2.0"),
    ("alpha = 0", 3, "alpha must be positive, got 0.0"),
    ("gamma = 2", 3, "gamma must be below 2, got 2.0"),
    ("L = -1", 3, "L must be positive, got -1.0"),
    ("n = 2400", 3, "n must be an odd count >= 3, got 2400"),
    ("dt = 0", 3, "dt must be positive, got 0.0"),
    ("L = 10\nn = 201\ndt = 0.051", 5, "dt = 0.051 violates the CFL bound 0.5*h = 0.05"),
    ("L = 20\nn = 801\ngamma = -280\ndt = 0.025", 6,
     "dt = 0.025 violates the stability bound 2/sqrt(4/h^2 + 1 - gamma/h) = "
     "0.02356858938878132 (h = 0.05, gamma = -280.0)"),
    ("T = -1", 3, "T must be nonnegative"),
    ("snapshot_stride = 0", 3, "snapshot_stride must be >= 1"),
    ("blowup_cap = 0", 3, "blowup_cap must be positive"),
    ("init = bessel", 3,
     "init must be one of ('qgamma', 'q', 'equilibrium', 'family', 'gaussian'), "
     "got 'bessel'"),
    ("lambda = 1.5", 3, "lambda must lie in [-1, 1], got 1.5"),
    ("varsigma = 2", 3, "varsigma must be 0 or 1, got 2"),
    ("z = 0", 3, "z must be positive, got 0.0"),
    ("symmetry = odd", 3, "symmetry must be one of ('none', 'even')"),
    ("lambda_lo = -2", 3, "lambda_lo must lie in [-1, 1], got -2.0"),
    ("lambda_hi = 2", 3, "lambda_hi must lie in [-1, 1], got 2.0"),
    ("lambda_lo = 0.5", 3, "lambda_lo must be below lambda_hi"),
    ("lambda_hi = -0.1\nlambda_lo = 0.2", 4, "lambda_lo must be below lambda_hi"),
    ("tol = 0", 3, "tol must be positive"),
    ("T_max = 0", 3, "T_max must be positive"),
    ("max_iters = 0", 3, "max_iters must be >= 1"),
    ("nonlinearity = 2", 3, "nonlinearity must be 0 or 1"),
    ("n = 3.5", 3, "n expects int, got '3.5'"),
    ("alpha = fast", 3, "alpha expects float, got 'fast'"),
    # a config holding two errors reports the one the key order reaches first
    ("tol = 0\np = 1", 4, "p must exceed 2, got 1.0"),
    ("lambda_lo = 0.5\ntol = 0", 3, "lambda_lo must be below lambda_hi"),
]


@pytest.mark.parametrize("body, line, message", SCHEMA_CASES,
                         ids=[case[0].split(" =")[0] for case in SCHEMA_CASES])
def test_schema_messages_and_lines(body, line, message):
    with pytest.raises(ConfigError) as ei:
        parse_config("# schema case\n\n" + body + "\n")
    assert ei.value.line == line
    assert str(ei.value) == f"line {line}: {message}"


# nan and +-inf are refused where a float is read, whatever the key's rules
NON_FINITE_CASES = [("T", "nan"), ("z", "nan"), ("tol", "nan"),
                    ("scale", "nan"), ("blowup_cap", "inf"), ("T", "inf"),
                    ("scale", "-inf")]


@pytest.mark.parametrize("key, value", NON_FINITE_CASES,
                         ids=[f"{k}={v}" for k, v in NON_FINITE_CASES])
def test_non_finite_floats_are_rejected(key, value):
    with pytest.raises(ConfigError) as ei:
        parse_config(f"# finite only\n\n{key} = {value}\n")
    assert str(ei.value) == f"line 3: {key} must be finite, got {value!r}"


def test_simulate_with_nan_T_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", "L = 20\nn = 401\nT = nan\n")
    assert code == 2
    assert "config error: line 3: T must be finite, got 'nan'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_with_a_node_count_beyond_the_float_range_exits_2(tmp_path, capsys):
    """Once an OverflowError traceback (exit 1) from the spacing in dt's rule."""
    code, out = run(tmp_path, "simulate", f"L = 20\nn = {10**400 + 1}\nT = 1\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: line 2: n must not exceed the largest float\n"
    assert not out.exists()


def test_symmetry_and_init_whitelists():
    with pytest.raises(ConfigError):
        parse_config("symmetry = odd\n")
    with pytest.raises(ConfigError):
        parse_config("init = bessel\n")


# ---------------------------------------------------------------- subcommands

TINY = "L = 15\nn = 301\ndt = 0.02\nT = 2\n"


def test_profile_artifacts_and_rerun_bytes(tmp_path):
    code, out = run(tmp_path, "profile", TINY)
    assert code == 0
    csv1 = (out / "profile.csv").read_bytes()
    json1 = (out / "profile.json").read_bytes()
    blob = json.loads(json1)
    assert blob["constants"]["c_Q"] == pytest.approx(2.0 * np.sqrt(2.0))
    assert "# gamma = -1" in csv1.decode()
    # re-running into a second directory reproduces both artifacts bytewise
    code, out2 = run(tmp_path, "profile", TINY, sub="out2")
    assert code == 0
    assert (out2 / "profile.csv").read_bytes() == csv1
    assert (out2 / "profile.json").read_bytes() == json1


def test_simulate_artifacts(tmp_path):
    code, out = run(tmp_path, "simulate", TINY + "init = qgamma\nscale = 0.9\n")
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",")[:3] == ["t", "E_gamma", "H1_norm"]
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    e = np.array([float(r.split(",")[1]) for r in rows])
    assert np.all(np.diff(e) <= 1e-12)  # damped energy is monotone
    blob = json.loads((out / "simulate.json").read_text())
    assert blob["incomplete"] is False
    assert "M_value" in blob and "W_value" in blob
    # the final state is x, u, v on the config's grid at t = T
    comments, columns, rows = read_csv(out / "final_state.csv")
    assert "t = 2" in comments
    assert columns == ["x", "u", "v"] and rows.shape == (301, 3)


def test_final_state_round_trips_through_the_cli(tmp_path):
    text = TINY + "init = qgamma\nscale = 0.9\n"
    code, out = run(tmp_path, "simulate", text)
    assert code == 0
    cfg = parse_config(text)
    params, grid = cfg.params(), make_grid(cfg.L, cfg.n)
    final = evolution.evolve(
        _build_initial(cfg, params, grid), cfg.T, cfg.dt, params, grid,
        snapshot_stride=cfg.snapshot_stride, blowup_cap=cfg.blowup_cap,
        with_nonlinearity=bool(cfg.nonlinearity)).final
    comments, _, rows = read_csv(out / "final_state.csv")
    # %.17g round-trips every double bit for bit
    assert rows[:, 0].tobytes() == grid.x.tobytes()
    assert rows[:, 1].tobytes() == final.u.tobytes()
    assert rows[:, 2].tobytes() == final.v.tobytes()
    t_lines = [c for c in comments if c.startswith("t = ")]
    t_final = json.loads((out / "simulate.json").read_text())["t_final"]
    assert len(t_lines) == 1 and float(t_lines[0][4:]) == t_final == final.t


LAYOUT_CASES = [
    ("profile", TINY, "profile.csv"),
    ("simulate", TINY, "trajectory.csv"),
    ("simulate", TINY, "final_state.csv"),
    ("shoot", "L = 20\nn = 401\ndt = 0.05\nz = 3\ntol = 0.5\nT_max = 100\n",
     "probe_000.csv"),
    ("track", "L = 20\nn = 401\ndt = 0.05\nT = 1\ninit = q\nz = 4\n", "frames.csv"),
    ("variational", "L = 15\nn = 301\ninit = q\nz = 3\nmax_iters = 20\n",
     "iterates.csv"),
]


@pytest.mark.parametrize("command, text, name", LAYOUT_CASES,
                         ids=[name for _, _, name in LAYOUT_CASES])
def test_every_csv_has_one_layout(tmp_path, command, text, name):
    """The config echo, then "# key = value" extras, one column line and
    rows of that line's field count."""
    code, out = run(tmp_path, command, text)
    assert code == 0
    lines = (out / name).read_text().splitlines()
    echo = ["# " + e for e in echo_lines(parse_config(text))]
    assert lines[:len(echo)] == echo
    comments, columns, rows = read_csv(out / name)
    assert all(re.fullmatch(r"\w+ = \S+", c) for c in comments[len(echo):])
    assert all(re.fullmatch(r"\w+", c) for c in columns)
    assert rows.shape[0] > 0 and rows.shape[1] == len(columns)


@pytest.mark.parametrize("command", ["simulate", "track"])
def test_t_final_is_the_time_reached(tmp_path, command):
    """T = 3.01 is not a multiple of dt = 0.025: round(T/dt) = 120 steps end
    the run at t = 3.0, and the summary says so."""
    text = "L = 20\nn = 401\ndt = 0.025\nT = 3.01\ninit = q\nz = 4\n"
    code, out = run(tmp_path, command, text)
    assert code == 0
    blob = json.loads((out / f"{command}.json").read_text())
    assert blob["exit"] == "Completed"
    assert blob["t_final"] == 120 * 0.025


def test_simulate_determinism(tmp_path):
    text = TINY + "init = gaussian\nscale = 0.5\n"
    _, out1 = run(tmp_path, "simulate", text, sub="a")
    _, out2 = run(tmp_path, "simulate", text, sub="b")
    for name in ("trajectory.csv", "final_state.csv", "simulate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_shoot_artifacts(tmp_path):
    text = (
        "L = 15\nn = 301\ndt = 0.025\ngamma = -1\nz = 3\n"
        "lambda_lo = -0.3\nlambda_hi = 0.3\ntol = 1e-6\nT_max = 100\n"
    )
    code, out = run(tmp_path, "shoot", text)
    assert code == 0
    blob = json.loads((out / "shoot.json").read_text())
    assert blob["converged"] is True
    assert blob["bracket_width"] <= 1e-6
    assert abs(blob["lambda_star"]) <= 0.1
    probes = blob["probes"]
    assert sorted(f.name for f in out.glob("probe_*.csv")) == [
        f"probe_{i:03d}.csv" for i in range(len(probes))]
    # each probe's verdict is the one its side of the final bracket certifies
    lo_kind, hi_kind = (("Decays", "BlowsUp") if blob["decays_end"] == "lo"
                        else ("BlowsUp", "Decays"))
    for row in probes:
        assert row["lambda"] <= blob["bracket_lo"] or row["lambda"] >= blob["bracket_hi"]
        side = lo_kind if row["lambda"] <= blob["bracket_lo"] else hi_kind
        assert row["classification"] == side
    # probe files echo their lambda and verdict
    head = (out / "probe_000.csv").read_text().splitlines()[:40]
    assert any("classification" in ln for ln in head if ln.startswith("#"))


def run_mirrored(tmp_path, command, text, key, negated=()):
    """Run `command` with key = 1 and key = -1; check that both exit 0 and
    write the same files, equal line for line but for the echoed key and the
    CSV columns named in `negated`, whose numbers are negated in every row
    (so those files must have rows that differ), and return the file names."""
    outs = [run(tmp_path, command, text + f"{key} = {s}\n", sub=f"{key}{s}")
            for s in (1, -1)]
    assert [code for code, _ in outs] == [0, 0]
    names = [sorted(f.name for f in out.iterdir()) for _, out in outs]
    assert names[0] == names[1]
    for name in names[0]:
        plus, minus = [(out / name).read_text().splitlines() for _, out in outs]
        assert len(plus) == len(minus)
        differ = [(a, b) for a, b in zip(plus, minus) if a != b]
        echo = differ[0][0]
        assert key in echo and differ[0][1] == echo.replace("1", "-1")
        flip = [c in negated for c in next(
            ln for ln in plus if not ln.startswith("#")).split(",")
        ] if name.endswith(".csv") else []
        assert (len(differ) > 1) == any(flip), name
        for a, b in differ[1:]:
            assert [float(y) for y in b.split(",")] == [
                -float(x) if f else float(x) for x, f in zip(a.split(","), flip)]
    return names[0]


def test_shoot_is_sign_blind(tmp_path):
    """The flow is exactly sign-equivariant and K_gamma even in u, so a shoot
    from -R(z) writes what a shoot from R(z) writes, but for the echoed scale."""
    text = ("L = 20\nn = 401\ndt = 0.05\ngamma = -1\nz = 3\n"
            "tol = 1e-6\nT_max = 100\n")
    assert len(run_mirrored(tmp_path, "shoot", text, "scale")) == 15


# a family start and a q start, each run at scale = 1 and at scale = -1
MIRRORED_STARTS = pytest.mark.parametrize(
    "start", ["init = family\ngamma = -1\n", "init = q\n"],
    ids=["family-scale", "q-scale"])


@MIRRORED_STARTS
def test_track_is_sign_blind(tmp_path, start):
    """track fits a start near -R(z) as its negation, which the odd flow makes
    exact: -R(z) writes what R(z) writes, but for the echoed scale."""
    text = "L = 25\nn = 501\ndt = 0.05\nT = 6\nz = 4\nsnapshot_stride = 5\n" + start
    assert run_mirrored(tmp_path, "track", text, "scale") == [
        "frames.csv", "track.json"]
    blob = json.loads((tmp_path / "scale1" / "track.json").read_text())
    assert blob["n_frames"] == 24


@MIRRORED_STARTS
def test_simulate_mirrors_every_start(tmp_path, start):
    """Every start is scale times its profile, so a family start and a q start
    at scale = -1 write the mirror of their +1 twin: u and v negated, all else
    equal but the echoed scale (a family start once ignored scale)."""
    text = "L = 25\nn = 501\ndt = 0.05\nT = 6\nz = 4\nsnapshot_stride = 5\n" + start
    assert run_mirrored(tmp_path, "simulate", text, "scale", ("u_at_0", "u", "v")) == [
        "final_state.csv", "simulate.json", "trajectory.csv"]


def test_equilibrium_start_needs_the_pinned_profile(tmp_path, monkeypatch):
    """The equilibrium start polishes the pinned profile Q_gamma, which exists
    only for |gamma| < 2: a stronger delta is refused before any Newton step
    (exit 3 with the profile's own error)."""
    def no_newton(*args):
        raise AssertionError("stationary-profile Newton ran")

    monkeypatch.setattr(cli, "discrete_stationary_profile", no_newton)
    for gamma in (-2, -2.5, -10):
        code, out = run(tmp_path, "simulate", "L = 20\nn = 401\nT = 1\n"
                        f"init = equilibrium\ngamma = {gamma}\n", sub=f"g{gamma}")
        assert code == 3
        blob = json.loads((out / "simulate.json").read_text())
        assert blob["incomplete"] is True
        assert blob["error"] == (
            f"pinned profile exists only for |gamma| < 2, got {float(gamma)}")


def test_track_artifacts(tmp_path):
    text = (
        "L = 20\nn = 401\ndt = 0.025\nT = 4\ngamma = -1\n"
        "init = family\nz = 4\nsnapshot_stride = 8\n"
    )
    code, out = run(tmp_path, "track", text)
    assert code == 0
    blob = json.loads((out / "track.json").read_text())
    assert blob["n_frames"] > 5
    lines = (out / "frames.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",")[0:2] == ["t", "z"]
    assert "relative_gap" in header


def test_track_with_nonlinearity_0_steps_the_linear_flow(tmp_path, monkeypatch):
    """nonlinearity = 0 switches the nonlinearity off in track as in simulate:
    the states it fits are those of the linear flow, in which the soliton
    disperses and only the first frame fits."""
    text = ("L = 25\nn = 501\ndt = 0.05\nT = 6\ninit = q\nz = 4\n"
            "snapshot_stride = 5\nnonlinearity = 0\n")
    fitted = []
    track_center = experiments.track_center

    def recording_track_center(states, *args):
        fitted.extend(states)
        return track_center(states, *args)

    monkeypatch.setattr(experiments, "track_center", recording_track_center)
    code, out = run(tmp_path, "track", text)
    assert code == 0
    cfg = parse_config(text)
    params, grid = cfg.params(), cfg.grid()
    linear = evolution.evolve(
        _build_initial(cfg, params, grid), cfg.T, cfg.dt, params, grid,
        snapshot_stride=cfg.snapshot_stride, with_nonlinearity=False).final
    assert fitted[-1].t == linear.t
    assert np.array_equal(fitted[-1].u, linear.u)
    assert json.loads((out / "track.json").read_text())["n_frames"] == 1


def test_variational_artifacts(tmp_path):
    text = "L = 15\nn = 301\ndt = 0.02\ngamma = -1\nsymmetry = none\ninit = q\nz = 3\n"
    code, out = run(tmp_path, "variational", text)
    assert code == 0
    blob = json.loads((out / "variational.json").read_text())
    assert blob["escaped"] is True and blob["stop"] == "escaped"
    assert abs(blob["level_estimate"] - 4.0 / 3.0) < 0.02
    lines = (out / "iterates.csv").read_text().splitlines()
    rows = sum(1 for ln in lines if not ln.startswith("#")) - 1  # the column line
    assert rows == blob["iterations"] + 1 >= 2


@pytest.mark.parametrize("command, init", [("variational", "qgamma"),
                                           ("simulate", "equilibrium")])
def test_three_node_grid_runs(tmp_path, command, init):
    """n = 3 leaves one interior unknown: the 1x1 tridiagonal solves (descent
    preconditioner, stationary-profile Newton step) end in a result or a
    KgError, never a raw traceback."""
    code, out = run(tmp_path, command, f"L = 1\nn = 3\ndt = 0.5\ninit = {init}\n")
    assert code in (0, 3)
    assert json.loads((out / f"{command}.json").read_text())["config"]["n"] == 3


def test_check_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["check"])
    assert ei.value.code == 2
    assert "invalid choice: 'check'" in capsys.readouterr().err


# ----------------------------------------------------------------- exit codes

def test_exit_2_on_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 2400\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_exit_2_on_a_config_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"T = 1.0 # \xff\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "0xff" in err
    assert "Traceback" not in err


def test_workers_is_an_unknown_key(tmp_path, capsys):
    # retired keys: workers (the thread path), seed (it had no reader), the
    # tuning values the modulation, certificate and descent now fix, and sign
    # (a negative scale is the same start)
    retired = (("workers", 2), ("seed", 1), ("mu", 0.1), ("L_weight", 100.0),
               ("tube_radius", 0.3), ("cert_margin", 2e-3), ("descent_tol", 1e-9),
               ("sign", -1))
    for key, value in retired:
        code, out = run(tmp_path, "shoot", f"# a retired key\n{key} = {value}\n", sub=key)
        assert code == 2
        assert f"line 2: unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("target", ["taken", "taken/sub"])
def test_exit_2_on_unusable_out(tmp_path, capsys, target):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    code = main(["profile", "--out", str(tmp_path / target)])
    assert code == 2
    assert "output error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert (tmp_path / "taken").read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("command, text, taken", [
    ("simulate", "L = 20\nn = 401\nT = 1\n", "simulate.json"),
    ("shoot", "L = 20\nn = 401\ndt = 0.05\nz = 3\ntol = 0.5\nT_max = 100\n",
     "probe_000.csv"),
], ids=["simulate.json", "probe_000.csv"])
def test_exit_2_on_unwritable_artifact(tmp_path, capsys, command, text, taken):
    (tmp_path / "out" / taken).mkdir(parents=True)
    code, out = run(tmp_path, command, text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and taken in err
    assert (out / taken).is_dir()


def test_exit_3_writes_incomplete_marker(tmp_path, capsys):
    cases = [
        # a bracket whose endpoints both decay cannot be bisected
        ("shoot", "L = 15\nn = 301\ndt = 0.025\ngamma = -1\nz = 3\n"
                  "lambda_lo = -0.3\nlambda_hi = -0.25\nT_max = 60\n",
         "need one of each"),
        # T / dt overflows: no finite step count
        ("simulate", "L = 20\nn = 401\ndt = 0.05\nT = 1e308\n", "no finite step count"),
        ("shoot", "L = 20\nn = 401\ndt = 0.05\nz = 3\nT_max = 1e308\n",
         "no finite step count"),
        # 1/h^2 overflows: the grid is refused before any operator is built
        ("simulate", "L = 1e-300\nn = 101\ndt = 1e-305\n", "1/h^2 overflows"),
        ("variational", "L = 1e-300\nn = 101\ndt = 1e-305\n", "1/h^2 overflows"),
        # 1/h^2 is finite but its square, a product of operator entries, is not
        ("simulate", "L = 6e-153\nn = 101\ndt = 1e-170\n", "(1/h^2)^2 overflows"),
        ("variational", "L = 6e-153\nn = 101\ndt = 1e-170\n", "(1/h^2)^2 overflows"),
        ("simulate", "L = 1e-140\nn = 101\ndt = 1e-170\n", "(1/h^2)^2 overflows"),
        # the node array outgrows the address space (numpy's MemoryError) or
        # its size in bytes overflows (numpy's ValueError)
        ("simulate", "L = 5e14\nn = 1000000000000001\ndt = 0.5\nT = 1\n",
         "cannot allocate 1000000000000001 grid nodes"),
        ("track", f"L = {2.0**60}\nn = {2**61 + 1}\ndt = 0.5\nT = 1\n",
         f"cannot allocate {2**61 + 1} grid nodes"),
        # int |u|^{p+1} overflows: no Nehari projection of the start
        ("variational", "L = 15\nn = 301\ninit = gaussian\nscale = 1e80\n",
         "cannot project u_init onto the Nehari set"),
        # the start's terms are finite, but its projection's overflow
        ("variational", "L = 10\nn = 101\ndt = 1e-110\ngamma = -1e200\ninit = q\n"
                        "z = 3\n", "cannot project u_init onto the Nehari set"),
        # E, K or ||(u, v)||_H of the start overflows: no sample 0
        ("simulate", "L = 15\nn = 301\nT = 1\ninit = gaussian\nscale = 1e80\n",
         "initial state is not of finite energy"),
        ("track", "L = 15\nn = 301\nT = 1\ninit = gaussian\nscale = 1e200\n",
         "initial state is not of finite energy"),
    ]
    for i, (command, text, error) in enumerate(cases):
        code, out = run(tmp_path, command, text, sub=f"out{i}")
        assert code == 3
        blob = json.loads((out / f"{command}.json").read_text())
        assert blob["incomplete"] is True
        gamma = float(re.search(r"gamma = (\S+)", text)[1]) if "gamma" in text else -1.0
        assert error in blob["error"] and blob["config"]["gamma"] == gamma
        assert "failed" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, extra", [("simulate", "T = 1e-51\n"),
                                            ("variational", "max_iters = 50\n")])
def test_tiny_accepted_grid_runs_without_float_warnings(tmp_path, command, extra):
    """L = 1e-50 is just inside the spacing bound: (1/h^2)^2 = 6e206, so the
    run ends without any floating-point warning (raised as errors here)."""
    code, out = run(tmp_path, command, "L = 1e-50\nn = 101\ndt = 1e-52\n" + extra)
    assert code == 0
    assert json.loads((out / f"{command}.json").read_text())["incomplete"] is False


def test_overflowing_nehari_projection_exits_3_without_float_warnings(tmp_path):
    """At gamma = -1e200 e^{lambda*} max|u| is finite but |P u|^{p+1} is
    not: nehari_project refuses the projection from the logs of its terms,
    before any array overflows (overflow raises here)."""
    with np.errstate(over="raise", invalid="raise"):
        code, out = run(tmp_path, "variational", "L = 10\nn = 101\ndt = 1e-110\n"
                        "gamma = -1e200\ninit = q\nz = 3\n")
    assert code == 3
    assert json.loads((out / "variational.json").read_text())["incomplete"] is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, expected", [
    # the golden simulate-nonfinite run: the state overflows, exit NonFinite
    ("simulate", "L = 20\nn = 401\nT = 40\ninit = q\nz = 0.5\nscale = 1.5\n"
                 "gamma = 0\nblowup_cap = 1e300\nsnapshot_stride = 7\n", 0),
    # starts whose own terms overflow: refused before sample 0 or projection
    ("simulate", "L = 15\nn = 301\nT = 1\ninit = gaussian\nscale = 1e80\n", 3),
    ("track", "L = 15\nn = 301\nT = 1\ninit = gaussian\nscale = 1e200\n", 3),
    ("variational", "L = 15\nn = 301\ninit = gaussian\nscale = 1e80\n", 3),
], ids=["simulate-nonfinite", "simulate-huge-scale", "track-huge-scale",
        "variational-huge-scale"])
def test_checked_overflows_print_no_float_warnings(tmp_path, command, text,
                                                   expected):
    """An overflow that a finite check or the NonFinite exit reports prints no
    floating-point warning (raised as errors here)."""
    code, out = run(tmp_path, command, text)
    assert code == expected
    blob = json.loads((out / f"{command}.json").read_text())
    assert blob["incomplete"] is (expected == 3)
    if expected == 0:
        assert blob["exit"] == "NonFinite"


_REAL_SOLVE = field.solve_tridiagonal


def _singular_solve(sub, main, sup, rhs):
    return _REAL_SOLVE(sub, np.zeros_like(main), sup, rhs)


@pytest.mark.parametrize("command, text", [
    ("variational", "L = 15\nn = 301\ninit = q\nz = 3\n"),
    ("simulate", "L = 20\nn = 401\nT = 1\ninit = equilibrium\n"),
])
def test_singular_solve_exits_3(tmp_path, capsys, monkeypatch, command, text):
    """A singular tridiagonal solve (descent preconditioner, stationary-profile
    Newton step) ends as a KgError: exit 3 and the incomplete stub."""
    monkeypatch.setattr("kgdelta.field.solve_tridiagonal", _singular_solve)
    code, out = run(tmp_path, command, text)
    assert code == 3
    blob = json.loads((out / f"{command}.json").read_text())
    assert blob["incomplete"] is True
    assert "singular" in blob["error"]
    assert "failed" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_endpoint_start_exits_3(tmp_path, capsys, monkeypatch):
    """A start with u[0] = 1e200 ends as exit 3 with the incomplete stub."""
    def gaussian_with_huge_endpoint(cfg, params, grid):
        u = np.exp(-grid.x * grid.x)
        u[0] = 1e200
        return u

    monkeypatch.setitem(cli._INITS, "gaussian", gaussian_with_huge_endpoint)
    code, out = run(tmp_path, "simulate", "L = 15\nn = 301\nT = 1\ninit = gaussian\n")
    assert code == 3
    blob = json.loads((out / "simulate.json").read_text())
    assert blob["incomplete"] is True
    assert "not of finite energy" in blob["error"]
    assert "simulate failed" in capsys.readouterr().err
