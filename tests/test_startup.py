"""Startup cost: SciPy's LAPACK extension is loaded only by the ops that solve
tridiagonal systems, and the scipy.linalg package never is.

The checks of what is loaded run in a fresh interpreter, because the test
process itself has imported SciPy long before.
"""
import importlib.machinery
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import kgdelta
from kgdelta import evolution

SRC = str(Path(kgdelta.__file__).resolve().parent.parent)

# small configs that run in well under a second each
CONFIGS = {
    "profile": "L = 10\nn = 201\n",
    "simulate": "L = 20\nn = 401\nT = 1\ninit = gaussian\n",
    "shoot": "L = 20\nn = 401\ndt = 0.05\nz = 3\ntol = 0.5\nT_max = 100\n",
    "track": "L = 25\nn = 501\ndt = 0.05\nT = 1\ninit = q\nz = 4\nsnapshot_stride = 5\n",
    "variational": "L = 15\nn = 301\ninit = q\nz = 3\nmax_iters = 50\n",
}

# argv: src, work dir, then the commands to run in order; prints, as JSON,
# the SciPy modules loaded by the import, each op's exit code and the SciPy
# modules loaded after it, and how often gtsv was looked up
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import kgdelta.cli
from kgdelta import evolution

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {"import": scipy_modules(), "ops": []}
work = Path(sys.argv[2])
for i, command in enumerate(sys.argv[3:]):
    argv = [command, "--config", str(work / f"{command}.cfg"),
            "--out", str(work / f"{i}-{command}")]
    report["ops"].append([kgdelta.cli.main(argv), scipy_modules()])
report["gtsv_lookups"] = evolution._gtsv.cache_info().misses
print(json.dumps(report))
"""

# argv: src, work dir; runs a descent, then imports scipy.linalg and compares
# solve_tridiagonal with solve_banded on random systems
SOLVE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import numpy as np
import kgdelta.cli
from kgdelta.errors import SingularSystemError
from kgdelta.evolution import solve_tridiagonal

work = Path(sys.argv[2])
report = {"exit": kgdelta.cli.main(["variational", "--config",
                                    str(work / "variational.cfg"),
                                    "--out", str(work / "descent")])}
report["linalg_before"] = "scipy.linalg" in sys.modules
from scipy.linalg import solve_banded

rng = np.random.default_rng(5)
m = 57
equal = []
for k in range(12):
    sub, sup = rng.standard_normal(m - 1), rng.standard_normal(m - 1)
    main = 4.0 + rng.random(m) if k % 2 else rng.standard_normal(m)
    if k == 0:
        main[0] = 0.0  # solvable only by swapping the first two rows
    b = rng.standard_normal(m) * 10.0 ** rng.uniform(-6, 6)
    ab = np.zeros((3, m))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, main, sub
    x = solve_tridiagonal(sub, main, sup, b)
    equal.append(bool(np.array_equal(x, solve_banded((1, 1), ab, b))
                      and np.all(np.isfinite(x))))
report["equal"] = equal
try:
    solve_tridiagonal(np.zeros(m - 1), np.zeros(m), np.zeros(m - 1), np.ones(m))
    report["singular"] = None
except SingularSystemError as exc:
    report["singular"] = str(exc)
print(json.dumps(report))
"""


def _fresh(script: str, work: Path, *commands: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", script, SRC, str(work), *commands],
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _artifacts(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_scipy_is_loaded_only_by_tridiagonal_solves(tmp_path):
    for command, text in CONFIGS.items():
        (tmp_path / f"{command}.cfg").write_text(text)
    shared = ("profile", "simulate", "shoot", "track", "variational", "variational")
    report = _fresh(SCRIPT, tmp_path, *shared)
    assert report["import"] == []
    assert report["ops"][:4] == [[0, []]] * 4
    # the descents load the one LAPACK extension, never a SciPy package; the
    # second reuses the routine the first looked up
    assert report["ops"][4:] == [[0, ["scipy.linalg._flapack"]]] * 2
    assert report["gtsv_lookups"] == 1

    alone = _fresh(SCRIPT, tmp_path, "variational")
    assert alone["ops"] == [[0, ["scipy.linalg._flapack"]]]
    fresh = _artifacts(tmp_path / "0-variational")
    assert fresh and _artifacts(tmp_path / "4-variational") == fresh
    assert _artifacts(tmp_path / "5-variational") == fresh


def test_tridiagonal_solve_is_solve_banded_after_a_descent(tmp_path):
    """The routine loaded without scipy.linalg is the one scipy.linalg uses:
    bitwise equal solves, a pivoting system included, after a descent."""
    (tmp_path / "variational.cfg").write_text(CONFIGS["variational"])
    report = _fresh(SOLVE_SCRIPT, tmp_path)
    assert report["exit"] == 0 and report["linalg_before"] is False
    assert report["equal"] == [True] * 12
    assert report["singular"] == "singular tridiagonal system: zero pivot in row 1"


def test_missing_lapack_extension_raises_import_error(monkeypatch, tmp_path):
    """No SciPy, or a SciPy without the LAPACK extension, is an ImportError."""
    empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations = [str(tmp_path)]
    evolution._gtsv.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(importlib.util, "find_spec", lambda name: empty)
            with pytest.raises(ImportError, match="_flapack"):
                evolution._gtsv()
            m.setattr(importlib.util, "find_spec", lambda name: None)
            with pytest.raises(ImportError, match="not installed"):
                evolution._gtsv()
    finally:
        evolution._gtsv.cache_clear()
