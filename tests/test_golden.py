"""The files of the demo, travelling and wide simulate runs of
tools/reference_outputs.py, bit for bit against tests/golden/digests.json.

The digests are pinned per host fingerprint (see reference_outputs.
fingerprint); on a host with none pinned the comparison skips, naming both
fingerprints.  `python tools/reference_outputs.py --pin` pins the running
one; a change that alters outputs on purpose repins and says which files
changed.  The runs are made in a fresh interpreter with the numerical
backend on one thread, as the command line and the tool run them, so that
wide/ takes both two-process splits (the march's and the output stage's)
where the host has two CPUs.  The entry's mms_advection lines are checked
by criterion 04 of test_acceptance.py, which runs that study.
"""

import json

import pytest

from conftest import reference_outputs, run_capped


def pinned_digests():
    """The digests pinned for the running fingerprint; skips, naming it and
    the pinned ones, when there are none."""
    pinned = json.loads(reference_outputs.DIGESTS.read_text())
    here = reference_outputs.fingerprint()
    if here not in pinned:
        pytest.skip(f"no digests pinned for this host ({here}); pinned: "
                    f"{'; '.join(sorted(pinned))}")
    return pinned[here]


def test_reference_runs_match_the_pinned_digests(tmp_path):
    want = {path: digest for path, digest in pinned_digests().items()
            if path != "mms_advection"}
    done = run_capped(
        "import json, warnings\n"
        "from conftest import reference_outputs\n"
        "warnings.simplefilter('error')  # as in the test session\n"
        "with open('digests.json', 'w') as fh:\n"
        "    json.dump(reference_outputs.run_digests(), fh)", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "digests.json").read_text()) == want


def test_another_fingerprint_skips_naming_both(monkeypatch):
    pinned = sorted(json.loads(reference_outputs.DIGESTS.read_text()))
    assert pinned
    other = "numpy 0.0, scipy 0.0, vax, none"
    monkeypatch.setattr(reference_outputs, "fingerprint", lambda: other)
    with pytest.raises(pytest.skip.Exception) as info:
        pinned_digests()
    assert str(info.value) == (f"no digests pinned for this host ({other}); "
                               f"pinned: {'; '.join(pinned)}")
