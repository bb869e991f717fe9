"""Frozen digests of user-visible output.

The three SHA-256 values were taken from the code before the involution
rows stopped building each split twice; any change to case order, witness
text, atlas rows or the printed row order of `liecheck involutions` shows
up here.  Refreeze only when an answer is meant to change.
"""

import hashlib
import json

from liecheck import cli
from liecheck import verify as vf

SWEEP_16_CASES = 4531
SWEEP_16_SHA256 = "d0ef4b265de253193a1dd35cb5e6e5985a0c2c053fc00793cfd38e67304587b8"
EXPORT_16_SHA256 = "597fceb910e0d4827b74da09b6b4554288d082904392e2a8c4e3f554cb5289d2"
INVOLUTIONS_SHA256 = "3ed076c8116c6ff249de79fc24315969e63e3611369e17fb7d96dfdd60a426be"


def test_sweep_16_case_lines():
    rep = vf.sweep("all", 16)
    digest = hashlib.sha256()
    for c in rep.cases:
        a = c.algebra
        line = "%s%s\t%s\t%d\t%s\t%s\n" % (
            a.family.value, a.params, c.route, c.margin, c.passed, c.witness
        )
        digest.update(line.encode())
    assert len(rep.cases) == SWEEP_16_CASES
    assert digest.hexdigest() == SWEEP_16_SHA256


def test_export_16_payload():
    text = json.dumps(cli.export_payload(16), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_16_SHA256


def test_involutions_row_order(capsys):
    for name in ("so(4,4)", "su(3,3)", "sp(2,3)"):
        assert cli.main(["involutions", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INVOLUTIONS_SHA256
