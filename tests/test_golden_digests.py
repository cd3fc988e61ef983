"""Every golden artifact is bitwise the one recorded in tests/golden.sha256.

The digest file is written by `python3 tools/golden.py --digests
tests/golden.sha256`.  A change that moves an artifact on purpose rewrites
it in the same commit, so the changed lines show which artifacts moved.  The
digests hold for the Python, NumPy, SciPy and BLAS its header names; in any
other environment the test fails and names what differs.
"""
import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("golden", _ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

DIGESTS = Path(__file__).resolve().parent / "golden.sha256"


def test_golden_artifacts_equal_their_recorded_digests(tmp_path):
    env_rec, files_rec = golden.read_digests(DIGESTS.read_text())
    golden.run_cases(tmp_path)
    env, files = golden.environment(), golden.digests(tmp_path)
    problems = [f"environment: {key} {env_rec.get(key)} recorded, {env[key]} here"
                for key in env if env_rec.get(key) != env[key]]
    problems += [f"{rel}: only in the digest file" for rel in sorted(files_rec.keys() - files)]
    problems += [f"{rel}: not in the digest file" for rel in sorted(files.keys() - files_rec)]
    problems += [f"{rel}: changed" for rel in sorted(files.keys() & files_rec)
                 if files[rel] != files_rec[rel]]
    assert not problems, "\n".join(problems)
