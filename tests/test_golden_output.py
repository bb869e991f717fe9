"""Frozen digests of user-visible output.

The first three SHA-256 values were taken from the code before the
involution rows stopped building each split twice; any change to case
order, witness text, atlas rows or the printed row order of `liecheck
involutions` shows up here.  The two centralizer digests were taken from
the code before `oracle_max` stopped building a `Signature` per candidate;
they pin the order of `enumerate_signatures` and every criterion-2 maximum
and witness.  The basis digest was taken from the code before the matrix
models' hand-written basis loops gave way to one division-ring builder; it
pins every k and p basis matrix, signs included, up to order within k and
within p.  The catalog digest was taken from the code before
`iter_noncompact_simple` dropped its hand-written low-rank exclusions for
the `algebras.is_canonical` filter; it pins the catalog and its order at
`SIZE_LIMIT`.  The catalog-values digest was taken from the code before
simple algebras became interned values carrying their own dimensions,
name and sort key; it pins `render`, `dims`, `out_group`, `max_compact`
and `complexify` of every catalog algebra at `SIZE_LIMIT` and of every
su(n), so(n) and sp(n) up to it.  The `verify --json` digests were taken
from the code before that command stopped handing its whole payload to
`json.dump` and began streaming pre-encoded case blocks; they pin the
bytes of the document, indentation and key order included, for each
scope (the semisimple one has an empty `cases` array).  The text
`verify` digests were taken from the code before `verify` stopped holding
every case of the sweep and began folding its counts one algebra at a
time; they pin the printed report for the same scopes and sizes.  The
involution rows digest was taken from the code before `isotropy_entries`
stopped caching its rows and the split rows stopped going through
`direct_sum`; it pins every row's fields and every instance, in the
first-occurrence order that `max_fixed_dim` breaks ties by.  The
canonical-forms digest was taken from the code before the catalog stated
its exceptional forms, low-rank coincidences and names in one table each;
it pins `render(algebra(...))` for every family and in-domain parameter
tuple up to `SIZE_LIMIT`, both signature orders and (0, n) included.
The presentations digest was taken from the code before the classical
catalog rows stated their maximal compact and complexification as
columns; it pins the dims, name, max compact (or its refusal),
complexification and out group of every `SimpleAlgebra` each family
accepts at parameters (), (0..69) and (0..39)^2, so the noncanonical
(0, n) and (q, p) forms are included.
The largest-size oracle answers were taken from the code before
`oracle_max` stopped building angle tables and scanning every candidate
(about 3 s of work there); they pin the value and witness at five sizes
on the edge of `ENUMERATION_BUDGET`, one per bounded family.  The sixth,
su(9,12), was taken from the code before `oracle_max` read its maximum off
a value table instead of a capped walk memoised on the cap.
Refreeze only when an answer is meant to change.
"""

import hashlib
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from _basismap import operator_rows
from liecheck import centralizers, cli
from liecheck import involutions as inv
from liecheck import verify as vf
from liecheck import matrixoracle as mo
from liecheck.algebras import (
    SIZE_LIMIT,
    Family,
    OutOfDomain,
    SimpleAlgebra,
    algebra,
    complexify,
    dims,
    iter_noncompact_simple,
    max_compact,
    out_group,
    parse_algebra,
    reductive_dims,
    render,
)
from liecheck.centralizers import SigFamily, enumerate_signatures, oracle_max

SWEEP_16_CASES = 4531
SWEEP_16_SHA256 = "d0ef4b265de253193a1dd35cb5e6e5985a0c2c053fc00793cfd38e67304587b8"
EXPORT_16_SHA256 = "597fceb910e0d4827b74da09b6b4554288d082904392e2a8c4e3f554cb5289d2"
INVOLUTIONS_SHA256 = "3ed076c8116c6ff249de79fc24315969e63e3611369e17fb7d96dfdd60a426be"
INVOLUTION_ROWS_24_COUNTS = (593, 2091, 17956)  # algebras, rows, instances
INVOLUTION_ROWS_24_SHA256 = "c2a122970cca1b4975a1cb9e5782119e2013bf46e18c95441d5c6686e40249da"
SIGNATURES_8_COUNT = 25907
SIGNATURES_8_SHA256 = "03cea3a26f802710006fef960807cc51255ad82dee66d428aa58aa9b6cf85dde"
ORACLE_MAX_C2_SHA256 = "cbbd901ab4b0aece42980fc5a77365d9c262693b9d25ac8f04b9645854fe229c"
ORACLE_MAX_LARGEST = {
    (SigFamily.SO_N, (52,)): (1275, ((1, 51, 0), (-1, 1, 0))),
    (SigFamily.SU_N, (45,)): (1936, ((1, 44, 0), (-1, 1, 0))),
    (SigFamily.SOSTAR_2N, (13,)): (132, ((1, 12, 0), (2, 1, 0))),
    (SigFamily.SU_PQ, (9, 12)): (198, ((1, 9, 11), (-1, 0, 1))),
    (SigFamily.SU_PQ, (10, 11)): (200, ((1, 10, 10), (-1, 0, 1))),
    (SigFamily.SP_PQ, (5, 10)): (180, ((1, 5, 9), (2, 0, 1))),
}
MATRIX_MODELS_7_COUNT = 109
MATRIX_BASES_7_SHA256 = "fd75237ff396c7068816b4049f73104574b47932ed2e842ce28677a7626423b7"
CATALOG_64_COUNT = 3513
CATALOG_64_SHA256 = "ae3f74f43dd9f91879c730f44b47a3da54db509538a81b70c11bbe36601a3f30"
CATALOG_VALUES_64_COUNT = 3513 + 3 * 64
CATALOG_VALUES_64_SHA256 = "785a445b7adb9044171a18fb56baa705cda21db19bfa0c9bf74a94826ce742fc"
CANONICAL_FORMS_64_COUNT = 3 * (64 * 65 // 2 + 64) + 10 * 64 + 22
CANONICAL_FORMS_64_SHA256 = "f9f142dd92609fd230110866a08b11ad905c75479f872f095c24c2401c53d8ff"
PRESENTATIONS_COUNT = 22 + 10 * 69 + 3 * (40 * 40 - 1)
PRESENTATIONS_SHA256 = "ed60b68d726ce2922f4e47594560da083d864d4b793b32bb9e4fe33565375890"
VERIFY_JSON_SHA256 = {
    ("all", "12"): "bcb14958858ea4d71c7b0c80dc7f6e56550ec18b57041266c7b3f0050849827d",
    ("complex", "8"): "091582fcba778e5875fc89924bdacb657f01b6e882e14eba4edb5e362f115eb5",
    ("real", "6"): "23e775ef7189711f0dd310d7ada317e6d75c6ff5bbe166f589c72ff0be21aa9b",
    ("semisimple", "5"): "2a7e357801250f6e06ddf22c51886b8da2119e1117dc7feb1d02e676fe3ebf0d",
}

VERIFY_TEXT_SHA256 = {
    ("all", "12"): "4dc261d1b9ff5b88646c24dcfc811ac6471a03679680ed07e4e2e7beba327835",
    ("complex", "8"): "8239e801f14902b9903b09671efe9fecb3b1bf3ac0b4c5ee0e6fe230ae833964",
    ("real", "6"): "a8ceab7679712fbc15d14472b4735f1a5fdec80762db6a2f156d8e87b59cfb2e",
    ("semisimple", "5"): "0868f4781ea55e3cf5c8b3b5a816bc1ffca63cf8b61f1c417af9526b336d543e",
}


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


def test_involution_rows_up_to_24():
    # each instance is its label parsed, as `IsotropyEntry.instances` reads
    # it; the 9,926 distinct labels among the 17,956 are each parsed once
    parse = lru_cache(maxsize=None)(parse_algebra)
    digest = hashlib.sha256()
    algebras = rows = instances = 0
    for a in iter_noncompact_simple(24):
        algebras += 1
        for e in inv.isotropy_entries(a):
            rows += 1
            line = "%s\t%s\t%s\t%s\t%r\t%r\n" % (
                render(a), e.template, e.kind, e.source, e.constraints, e.notes
            )
            digest.update(line.encode())
            for h in map(parse, e.labels):
                instances += 1
                digest.update(("\t%s\t%r\n" % (render(h), tuple(reductive_dims(h)))).encode())
    assert (algebras, rows, instances) == INVOLUTION_ROWS_24_COUNTS
    assert digest.hexdigest() == INVOLUTION_ROWS_24_SHA256


def test_catalog_order_at_the_size_limit():
    assert SIZE_LIMIT == 64
    names = [render(a) for a in iter_noncompact_simple(SIZE_LIMIT)]
    assert len(names) == CATALOG_64_COUNT
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == CATALOG_64_SHA256


def _catalog_value_line(a):
    d = dims(a)
    out = out_group(a)
    try:
        cpt = render(max_compact(a))
    except OutOfDomain:
        cpt = "-"  # already compact
    return "%s\t%d %d %d %d %d\t%s %d %s\t%s\t%s\n" % (
        render(a),
        d.dim_g,
        d.dim_k,
        d.dim_s,
        d.rk_r,
        d.rk_cpt,
        out.iso_type.value,
        out.exponent,
        out.exponent <= 2,
        cpt,
        render(complexify(a)),
    )


def _catalog_values():
    """The catalog at `SIZE_LIMIT`, then every su(n), so(n) and sp(n) up to it."""
    compact = [
        SimpleAlgebra(family, (n,))
        for family in (Family.SU_CPT, Family.SO_CPT, Family.SP_CPT)
        for n in range(1, SIZE_LIMIT + 1)
    ]
    return [*iter_noncompact_simple(SIZE_LIMIT), *compact]


def test_catalog_values_at_the_size_limit():
    values = _catalog_values()
    assert len(values) == CATALOG_VALUES_64_COUNT
    digest = hashlib.sha256()
    for a in values:
        digest.update(_catalog_value_line(a).encode())
    assert digest.hexdigest() == CATALOG_VALUES_64_SHA256


def _in_domain_params(family):
    """Every parameter tuple `algebra` accepts for `family`, sizes up to `SIZE_LIMIT`."""
    if family in (Family.SU, Family.SO, Family.SP):
        return [(p, s - p) for s in range(1, SIZE_LIMIT + 1) for p in range(s + 1)]
    try:
        algebra(family)
    except OutOfDomain:
        return [(n,) for n in range(1, SIZE_LIMIT + 1)]
    return [()]


def test_canonical_forms_at_the_size_limit():
    digest = hashlib.sha256()
    count = 0
    for family in Family:
        for params in _in_domain_params(family):
            x = algebra(family, *params)
            text = render(x)
            digest.update(("%s%r\t%s\n" % (family.value, params, text)).encode())
            count += 1
            assert parse_algebra(text) == x, (family, params)
    assert count == CANONICAL_FORMS_64_COUNT
    assert digest.hexdigest() == CANONICAL_FORMS_64_SHA256
    # every catalog value, and every exceptional and compact name, parses
    # back to the canonical form of what it names; so(4) alone names a sum,
    # which a single token refuses
    named = [SimpleAlgebra(family) for family in Family if _in_domain_params(family) == [()]]
    for a in [*_catalog_values(), *named]:
        want = algebra(a.family, *a.params)
        if len(want.simples) > 1:
            assert render(a) == "so(4)"
            with pytest.raises(OutOfDomain, match="not a simple algebra"):
                parse_algebra(render(a))
        else:
            assert parse_algebra(render(a)) == want, render(a)


def _presentations():
    """Every `SimpleAlgebra` at parameters (), (0..69) and (0..39)^2 that its
    family accepts, canonical or not."""
    params = [(), *((n,) for n in range(70)), *((p, q) for p in range(40) for q in range(40))]
    for family in Family:
        for x in params:
            try:
                yield SimpleAlgebra(family, x)
            except OutOfDomain:
                pass


def _presentation_line(a):
    try:
        cpt = render(max_compact(a))
    except OutOfDomain as exc:
        cpt = "OutOfDomain: %s" % exc
    out = out_group(a)
    return "%s%r\t%s\t%r\t%s\t%s\t%s %d %s\n" % (
        a.family.value, a.params, render(a), tuple(dims(a)), cpt, render(complexify(a)),
        out.iso_type.value, out.exponent, out.exponent <= 2,
    )


def test_every_presentation_keeps_its_catalog_values():
    digest = hashlib.sha256()
    count = 0
    for a in _presentations():
        digest.update(_presentation_line(a).encode())
        count += 1
    assert count == PRESENTATIONS_COUNT
    assert digest.hexdigest() == PRESENTATIONS_SHA256


def test_export_16_payload():
    text = json.dumps(cli.export_payload(16), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_16_SHA256


def test_involutions_row_order(capsys):
    for name in ("so(4,4)", "su(3,3)", "sp(2,3)"):
        assert cli.main(["involutions", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INVOLUTIONS_SHA256


@pytest.mark.parametrize("scope,max_param", sorted(VERIFY_JSON_SHA256))
def test_verify_json_stdout(capsys, scope, max_param):
    assert cli.main(["verify", "--json", "--scope", scope, "--max-param", max_param]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[scope, max_param]


@pytest.mark.parametrize("scope,max_param", sorted(VERIFY_TEXT_SHA256))
def test_verify_text_stdout(capsys, scope, max_param):
    assert cli.main(["verify", "--scope", scope, "--max-param", max_param]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_TEXT_SHA256[scope, max_param]


def _sizes_up_to(family, total):
    if family in (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ):
        return [(p, q) for p in range(total + 1) for q in range(total + 1 - p)]
    return [(n,) for n in range(total + 1)]


def _criterion_2_cases():
    cases = [(SigFamily.SO_N, (n,)) for n in range(3, 13)]
    cases += [(SigFamily.SU_N, (n,)) for n in range(2, 13)]
    for p in range(1, 10):
        for q in range(p, 11 - p):
            if p + q >= 3:
                cases.append((SigFamily.SU_PQ, (p, q)))
                cases.append((SigFamily.SP_PQ, (p, q)))
    cases += [(SigFamily.SOSTAR_2N, (n,)) for n in range(2, 11)]
    return cases


def test_enumerated_signatures_up_to_8():
    digest = hashlib.sha256()
    count = 0
    for family in SigFamily:
        for params in _sizes_up_to(family, 8):
            for order_le_4 in (False, True):
                for s in enumerate_signatures(family, params, order_le_4):
                    line = "%s\t%r\t%r\t%s\n" % (s.family.value, s.params, s.blocks, order_le_4)
                    digest.update(line.encode())
                    count += 1
    assert count == SIGNATURES_8_COUNT
    assert digest.hexdigest() == SIGNATURES_8_SHA256


def test_oracle_max_on_criterion_2_cases():
    cases = _criterion_2_cases()
    assert len(cases) == 78
    digest = hashlib.sha256()
    for family, params in cases:
        value, witness = oracle_max(family, params)
        digest.update(("%s%r\t%d\t%r\n" % (family.value, params, value, witness.blocks)).encode())
    assert digest.hexdigest() == ORACLE_MAX_C2_SHA256


# `_steps` call events, generator resumes included, over one pass of
# `oracle_max` on the criterion-2 cases: a ceiling, as in the work ledger.
# The capped walk memoised on the cap that the value table replaced made
# 20,155, in 19,813 frames of its own
ORACLE_MAX_C2_STEPS = 10_159


def test_oracle_max_steps_stay_within_their_ceiling():
    steps = centralizers._steps.__code__
    passes = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is steps:
            passes[-1] += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _ in range(2):
            passes.append(0)
            for family, params in _criterion_2_cases():
                oracle_max(family, params)
    finally:
        sys.setprofile(saved)
    assert passes[0] <= ORACLE_MAX_C2_STEPS, passes
    # no call leaves state for the next
    assert passes[1] == passes[0]


def test_oracle_max_at_the_largest_in_budget_sizes():
    for (family, params), (value, blocks) in ORACLE_MAX_LARGEST.items():
        got, witness = oracle_max(family, params)
        assert (got, witness.blocks) == (value, blocks), (family, params)


def _matrix_models_up_to_7():
    """Every wired matrix model with p + q <= 7 or n <= 7 that `model` accepts."""
    for family in mo._SHAPES:
        two = family in (Family.SO, Family.SU, Family.SP)
        for params in _sizes_up_to(SigFamily.SO_PQ if two else SigFamily.SO_N, 7):
            try:
                yield mo.model(family, *params)
            except OutOfDomain:
                continue


def test_matrix_bases_up_to_7():
    digest = hashlib.sha256()
    count = 0
    for m in _matrix_models_up_to_7():
        k, p = mo._bases(m)[:2]
        digest.update(repr((m.family.value, m.params, sorted(k), sorted(p))).encode())
        count += 1
    assert count == MATRIX_MODELS_7_COUNT
    assert digest.hexdigest() == MATRIX_BASES_7_SHA256


def test_matrix_basis_sizes_match_the_catalog():
    # model su(2,2) against catalog so(2,4), sl(1,H) against su(2), ...
    for m in _matrix_models_up_to_7():
        k, p = mo._bases(m)[:2]
        d = reductive_dims(algebra(m.family, *m.params))
        assert (len(k), len(p)) == (d.dim_k, d.dim_s), m


def _is_sparse_row(row, cells):
    cols, vals = row
    return (
        len(cols) == len(vals)
        and all(a < b for a, b in zip(cols, cols[1:]))
        and all(0 <= c < cells for c in cols)
        and all(vals)
    )


def _diagonal(field, diag):
    """The diagonal F-matrix with entries re + im i, as real rows."""
    n = len(diag)
    m = mo._zeros(len(mo._UNITS[field]["1"]) * n)
    terms = [t for d, (re, im) in enumerate(diag) for t in ((d, d, "1", re), (d, d, "i", im))]
    for i, j, x in mo._expand(field, n, terms):
        m[i][j] = x
    return m


def _mul(a, b):
    n = len(b[0])
    return [[sum(x * y[j] for x, y in zip(row, b)) for j in range(n)] for row in a]


def test_operator_rows_are_sparse_up_to_7():
    # every operator row, stored on the span path or expanded from the
    # basis map on the map path: strictly increasing columns, no zero
    # value, every value an int and the values of each row coprime.  The elements flip
    # the first F-coordinate, turn it a quarter over C and H, and over R
    # conjugate the flip by a Pythagorean rotation, so that some cells
    # cancel to zero and some entries are fractions.
    rational_rows = nonempty = mapped = 0
    for m in _matrix_models_up_to_7():
        field = mo._SHAPES[m.family][0]
        size = mo._size(m)
        n = size // len(mo._UNITS[field]["1"])
        flip = [(1, 0)] * n
        flip[0] = (-1, 0)
        if m.family is Family.SP_R:
            flip[n // 2] = (-1, 0)  # the symplectic partner of coordinate 0
        elements = [mo.identity_element(m), mo.element(m, _diagonal(field, flip))]
        if field != "R":
            elements.append(mo.element(m, _diagonal(field, [(0, 1)] + [(1, 0)] * (n - 1))))
        elif m.family is not Family.SP_R and (m.family is not Family.SO or m.params[0] >= 2):
            # a rotation of the first two coordinates, both of one sign
            rot = mo._eye(size)
            rot[0][0] = rot[1][1] = Fraction(3, 5)
            rot[0][1], rot[1][0] = Fraction(-4, 5), Fraction(4, 5)
            rot_inv = [list(r) for r in zip(*rot)]
            flipped = _diagonal(field, flip)
            elements.append(mo.element(m, _mul(_mul(rot, flipped), rot_inv)))
        k, p = mo._bases(m)[:2]
        assert all(_is_sparse_row(row, size * size) for row in mo._sparse_rows(k + p, size)), m
        for e in elements:
            # a signed permutation stores its basis map, expanded here
            mapped += e.basis_map is not None
            rows = operator_rows(e)
            assert len(rows) == len(k + p)
            if e.basis_map is not None:
                assert e.operator_rows == () and len(e.basis_map) == len(k + p)
            rational = any(type(x) is Fraction for r in e.entries for x in r)
            for row in rows:
                assert _is_sparse_row(row, size * size), (m, e.entries, row)
                assert all(type(x) is int for x in row[1]), (m, e.entries, row)
                if row[0]:
                    assert math.gcd(*row[1]) == 1, (m, e.entries, row)
                nonempty += bool(row[0])
                rational_rows += rational and bool(row[0])
    assert nonempty > 2000 and rational_rows > 200, (nonempty, rational_rows)
    assert mapped > 200, mapped
