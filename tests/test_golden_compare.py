"""tools/golden.py --compare: text must match, numbers within a scaled rtol."""
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parent.parent / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

CSV = "# L = 20\n# lambda = {lam}\n# classification = Decays\nt,E\n0,{e0}\n0.5,{e1}\n"
JSON = '{{\n  "exit": "Completed",\n  "probes": [\n    {{\n      "K": {k}\n    }}\n  ]\n}}\n'


def _tree(root: Path, lam="0.25", e0="2", e1="1000", k="-3", code="0"):
    case = root / "case"
    case.mkdir(parents=True)
    (case / "probe.csv").write_text(CSV.format(lam=lam, e0=e0, e1=e1))
    (case / "shoot.json").write_text(JSON.format(k=k))
    (case / "exit_code.txt").write_text(code + "\n")
    return root


def test_identical_trees_pass_at_rtol_0(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert golden.main(["--compare", str(a), str(b)]) == 0
    assert "3 byte-identical, 0 failed" in capsys.readouterr().out


def test_numbers_are_scaled_by_their_column(tmp_path, capsys):
    # 1e-9 on an entry of a column whose maximum is 1000 scales to 1e-12
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", e0="2.000000001")
    assert golden.main(["--compare", str(a), str(b), "--rtol", "1e-11"]) == 0
    assert golden.main(["--compare", str(a), str(b), "--rtol", "1e-13"]) == 1
    assert golden.main(["--compare", str(a), str(b)]) == 1  # rtol 0: byte-identical
    out = capsys.readouterr().out
    assert "largest scaled difference 1e-12 in column E" in out
    # comment values and JSON numbers are columns too
    c, d = _tree(tmp_path / "c", lam="0.25"), _tree(tmp_path / "d", lam="0.2500001",
                                                    k="-3.0000001")
    assert golden.main(["--compare", str(c), str(d), "--rtol", "1e-6"]) == 0
    assert golden.main(["--compare", str(c), str(d), "--rtol", "1e-8"]) == 1


@pytest.mark.parametrize("change", [
    dict(code="3"), dict(e1="nan"), dict(lam="x"),
], ids=["exit-code", "non-finite", "text"])
def test_text_differences_fail_at_any_rtol(tmp_path, change):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", **change)
    assert golden.main(["--compare", str(a), str(b), "--rtol", "1"]) == 1


def test_row_counts_and_file_sets_must_match(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    csv = b / "case" / "probe.csv"
    csv.write_text(csv.read_text() + "1,3\n")
    assert golden.main(["--compare", str(a), str(b), "--rtol", "1"]) == 1
    c, d = _tree(tmp_path / "c"), _tree(tmp_path / "d")
    (d / "case" / "extra.txt").write_text("\n")
    assert golden.main(["--compare", str(c), str(d), "--rtol", "1"]) == 1
