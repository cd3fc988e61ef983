"""Startup cost: SciPy is loaded only by the ops that solve tridiagonal systems.

Each check runs in a fresh interpreter, because the test process itself has
imported SciPy long before.
"""
import json
import subprocess
import sys
from pathlib import Path

import kgdelta

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
# each op's exit code and whether scipy was loaded after it
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import kgdelta.cli
report = {"import": "scipy" in sys.modules, "ops": []}
work = Path(sys.argv[2])
for i, command in enumerate(sys.argv[3:]):
    argv = [command, "--config", str(work / f"{command}.cfg"),
            "--out", str(work / f"{i}-{command}")]
    report["ops"].append([kgdelta.cli.main(argv), "scipy" in sys.modules])
report["linalg"] = "scipy.linalg" in sys.modules
print(json.dumps(report))
"""


def _fresh(work: Path, *commands: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", SCRIPT, SRC, str(work), *commands],
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _artifacts(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_scipy_is_loaded_only_by_tridiagonal_solves(tmp_path):
    for command, text in CONFIGS.items():
        (tmp_path / f"{command}.cfg").write_text(text)
    shared = ("profile", "simulate", "shoot", "track", "variational", "variational")
    report = _fresh(tmp_path, *shared)
    assert report["import"] is False
    assert report["ops"][:4] == [[0, False]] * 4
    # the first descent resolves gtsv, the second reuses the cached routine
    assert report["ops"][4:] == [[0, True]] * 2 and report["linalg"] is True

    alone = _fresh(tmp_path, "variational")
    assert alone["ops"] == [[0, True]]
    fresh = _artifacts(tmp_path / "0-variational")
    assert fresh and _artifacts(tmp_path / "4-variational") == fresh
    assert _artifacts(tmp_path / "5-variational") == fresh
