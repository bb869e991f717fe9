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
Refreeze only when an answer is meant to change.
"""

import hashlib
import json

import pytest

from liecheck import cli
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
MATRIX_MODELS_7_COUNT = 109
MATRIX_BASES_7_SHA256 = "fd75237ff396c7068816b4049f73104574b47932ed2e842ce28677a7626423b7"
CATALOG_64_COUNT = 3513
CATALOG_64_SHA256 = "ae3f74f43dd9f91879c730f44b47a3da54db509538a81b70c11bbe36601a3f30"
CATALOG_VALUES_64_COUNT = 3513 + 3 * 64
CATALOG_VALUES_64_SHA256 = "785a445b7adb9044171a18fb56baa705cda21db19bfa0c9bf74a94826ce742fc"
CANONICAL_FORMS_64_COUNT = 3 * (64 * 65 // 2 + 64) + 10 * 64 + 22
CANONICAL_FORMS_64_SHA256 = "f9f142dd92609fd230110866a08b11ad905c75479f872f095c24c2401c53d8ff"
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
            for h in e.instances:
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
        out.all_order_le_2,
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
        k, p = mo._bases(m)
        digest.update(repr((m.family.value, m.params, sorted(k), sorted(p))).encode())
        count += 1
    assert count == MATRIX_MODELS_7_COUNT
    assert digest.hexdigest() == MATRIX_BASES_7_SHA256


def test_matrix_basis_sizes_match_the_catalog():
    # model su(2,2) against catalog so(2,4), sl(1,H) against su(2), ...
    for m in _matrix_models_up_to_7():
        k, p = mo._bases(m)
        d = reductive_dims(algebra(m.family, *m.params))
        assert (len(k), len(p)) == (d.dim_k, d.dim_s), m
