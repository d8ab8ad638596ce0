"""The files of the demo, travelling and wide simulate runs of
tools/reference_outputs.py, bit for bit against tests/golden/digests.json.

The digests are pinned per host fingerprint (see reference_outputs.
fingerprint); on a host with none pinned the comparison skips, naming both
fingerprints.  `python tools/reference_outputs.py --pin` pins the running
one; a change that alters outputs on purpose repins and says which files
changed.  The entry's mms_advection lines are checked by criterion 04 of
test_acceptance.py, which runs that study.
"""

import json

import pytest

from conftest import reference_outputs


def pinned_digests():
    """The digests pinned for the running fingerprint; skips, naming it and
    the pinned ones, when there are none."""
    pinned = json.loads(reference_outputs.DIGESTS.read_text())
    here = reference_outputs.fingerprint()
    if here not in pinned:
        pytest.skip(f"no digests pinned for this host ({here}); pinned: "
                    f"{'; '.join(sorted(pinned))}")
    return pinned[here]


def test_reference_runs_match_the_pinned_digests(tmp_path, monkeypatch):
    want = {path: digest for path, digest in pinned_digests().items()
            if path != "mms_advection"}
    monkeypatch.chdir(tmp_path)
    assert reference_outputs.run_digests() == want


def test_another_fingerprint_skips_naming_both(monkeypatch):
    pinned = sorted(json.loads(reference_outputs.DIGESTS.read_text()))
    assert pinned
    other = "numpy 0.0, scipy 0.0, vax, none"
    monkeypatch.setattr(reference_outputs, "fingerprint", lambda: other)
    with pytest.raises(pytest.skip.Exception) as info:
        pinned_digests()
    assert str(info.value) == (f"no digests pinned for this host ({other}); "
                               f"pinned: {'; '.join(pinned)}")
