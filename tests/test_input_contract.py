"""The input contract of the centralizer entry points: every input gets an
answer or an `InputError`, never another exception.

One table of hostile inputs runs through `bound`, `enumerate_signatures`,
`oracle_max`, `signature_dim`, `signature_compact_dim` and
`from_signature`.  The sizes straddle `algebras.SIZE_CAP_DIGITS`: a
2,200-digit size is past the cap, and a 5,001-digit one is past the 4,300
digits Python converts from int to str, so a refusal that formats it
would itself crash.
"""

import pytest

from liecheck.algebras import InputError
from liecheck.centralizers import (
    SigFamily,
    Signature,
    bound,
    enumerate_signatures,
    oracle_max,
    signature_compact_dim,
    signature_dim,
)
from liecheck.matrixoracle import from_signature

WIDE = 10**2200
HUGE = 10**5000
SO, SU_PQ = SigFamily.SO_N, SigFamily.SU_PQ

# (label, family, params, blocks): the first three entry points take
# (family, params), the others the `Signature` of all three, built in the call
TABLE = [
    ("2200-digit size", SO, (WIDE + 1,), ((1, WIDE, 0), (-1, 1, 0))),
    ("5001-digit size", SO, (HUGE + 1,), ((1, HUGE, 0), (-1, 1, 0))),
    ("5001-digit q", SU_PQ, (1, HUGE), ((1, 1, HUGE - 1), (-1, 0, 1))),
    ("negative 5001-digit p", SU_PQ, (-HUGE, 2), ((1, -HUGE, 1), (-1, 0, 1))),
    ("5001-digit tag", SU_PQ, (1, 2), ((HUGE, 1, 1), (-1, 0, 1))),
    ("5001-digit size beside a float", SU_PQ, (HUGE, 2.0), ((1, HUGE, 1), (-1, 0, 1.0))),
    ("bool size", SO, (True,), ((1, True, 0), (-1, 0, 0))),
    ("bool multiplicity", SU_PQ, (1, 2), ((1, 1, True), (-1, 0, 1))),
    ("float size", SO, (3.0,), ((1, 2, 0), (-1, 1, 0))),
    ("float multiplicity", SO, (3,), ((1, 2.0, 0), (-1, 1, 0))),
    ("None params", SO, None, ((1, 2, 0), (-1, 1, 0))),
    ("int params", SO, 3, ((1, 2, 0), (-1, 1, 0))),
    ("str params", SO, "3", ((1, 2, 0), (-1, 1, 0))),
    ("no params", SO, (), ((1, 2, 0), (-1, 1, 0))),
    ("three params", SU_PQ, (1, 2, 3), ((1, 1, 1), (-1, 0, 1))),
    ("None blocks", SO, (3,), None),
    ("int blocks", SO, (3,), HUGE),
    ("flat block", SO, (3,), (1, 2, 0)),
    ("short block", SO, (3,), ((1, 2), (-1, 1, 0))),
    ("str family", "so_n", (3,), ((1, 2, 0), (-1, 1, 0))),
    ("None family", None, (3,), ((1, 2, 0), (-1, 1, 0))),
    ("negative size", SO, (-3,), ((1, -2, 0), (-1, -1, 0))),
    ("negative p", SU_PQ, (-1, 2), ((1, -1, 1), (-1, 0, 1))),
    ("negative multiplicity", SO, (3,), ((1, -1, 0), (-1, 4, 0))),
    ("list blocks", SO, [3], [[1, 2, 0], [-1, 1, 0]]),
    ("list blocks (p, q)", SU_PQ, [1, 2], [[1, 1, 1], [-1, 0, 1]]),
]

ENTRY_POINTS = {
    "bound": lambda f, ps, _: bound(f, ps),
    "enumerate_signatures": lambda f, ps, _: list(enumerate_signatures(f, ps)),
    "oracle_max": lambda f, ps, _: oracle_max(f, ps),
    "signature_dim": lambda *row: signature_dim(Signature(*row)),
    "signature_compact_dim": lambda *row: signature_compact_dim(Signature(*row)),
    "from_signature": lambda *row: from_signature(Signature(*row)),
}


@pytest.mark.parametrize(
    "family, params, blocks", [row[1:] for row in TABLE], ids=[row[0] for row in TABLE]
)
def test_every_input_is_answered_or_refused(family, params, blocks):
    broken = []
    for name, call in ENTRY_POINTS.items():
        try:
            call(family, params, blocks)
        except InputError as exc:
            str(exc)  # the refusal's message was formatted
        except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
            broken.append(f"{name}: {type(exc).__name__}")
    assert not broken
