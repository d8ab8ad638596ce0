"""The quick demos run as scripts, exit 0 and print their verdict.

02 runs with a temporary output directory as its argument, so that it
writes nothing into demos/output/.  04 is left out: it repeats the studies
of acceptance criterion 04.
"""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script,line", [
    ("01_algebraic_identities.py",
     "PASS  S B positive definite on all 10000 samples"),
    ("03_picard_contraction.py", "t_end = 0.05: converged=True"),
    ("05_full_pipeline.py", "re-run bit-identical             True (exit code 0)"),
], ids=["01", "03", "05"])
def test_demo_runs_as_a_script(script, line, capsys):
    try:
        runpy.run_path(str(DEMOS / script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0
    assert line in capsys.readouterr().out


def test_transform_roundtrip_demo_writes_where_told(tmp_path, capsys,
                                                   monkeypatch):
    script = DEMOS / "02_transform_roundtrip.py"
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert ("PASS  constant profiles round-trip exactly; curved profiles "
            "decay at second order") in out
    plot = tmp_path / "out" / "transform_roundtrip.png"
    assert ("wrote" in out) == plot.exists()   # only with matplotlib
