"""The quick demos run as scripts, exit 0 and print their verdict.

02 and 04 are left out: 02 writes into demos/output/, and 04 repeats the
studies of acceptance criterion 04.
"""

import runpy
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
