import json
from collections import Counter

import pytest

from plethy import lie_family, registry, series
from plethy.registry import (
    IdentityReport,
    registry_ids,
    verify_all,
    verify_identity,
)
from plethy.series import SeriesContext
from plethy.symfunc import p

THEOREM_IDS = registry_ids("theorem")
CONJECTURE_IDS = registry_ids("conjecture")


def test_registry_inventory():
    # ids named by the acceptance gate must all exist
    required = [
        "THRALL",
        "CADOGAN",
        "SOLOMON",
        "EXT-REG",
        "PLINV-E",
        "SYM-LIE2",
        "ALT-E-LIE2",
        "ALT-H-LIE",
        "ALT-H-LIE-PROD",
        "EXT-LIE",
        "EXT-CONJ",
        "ALT-CONJ",
        "ACYC-LIE",
        "ACYC-LIE2",
        "TOTALCOH-LIE",
        "TOTALCOH-LIE2",
        "HE-UNIT",
        "HODGE-FILT",
        "LEHRER",
        "EVENODD",
        "HL-REG",
        "IND-CONF",
        "LEHRER-LIE2",
        "EVENODD-LIE2",
        "HL-LIE2",
        "IND-LIE2",
        "CONJ-FROM-LIE",
        "CONJ-FROM-LIE2",
        "LIE2-FROM-LIE",
        "SIGMA-REC",
        "TAU-REC",
        "RESTRICT-REC-LIE",
        "RESTRICT-REC-LIE2",
        "U-CLOSED",
        "BETA-POS",
        "META-PRODUCTS-MOBIUS",
        "META-PRODUCTS-TOTIENT",
        "META-PRODUCTS-TWOADIC",
        "METAGE2-LIE",
        "METAGE2-LIE2",
    ]
    for id in required:
        assert id in THEOREM_IDS, id
    # the first chain carries eight published equations, the second seven
    assert sum(1 for id in THEOREM_IDS if id.startswith("EQUIV-PBW-")) == 8
    assert sum(1 for id in THEOREM_IDS if id.startswith("EQUIV-LIE2-")) == 7
    assert set(CONJECTURE_IDS) == {"U-POS", "WHITEHOUSE"}


@pytest.fixture(scope="module")
def ctx6():
    return SeriesContext(6)


@pytest.mark.parametrize("identity", THEOREM_IDS)
def test_theorem_identities_cap6(identity, ctx6):
    report = verify_identity(identity, 6, ctx6)
    assert report.passed, (report.id, report.first_fail_degree, report.detail)


def test_conjecture_entries_pass_at_desk_scale():
    rep = verify_identity("U-POS", 8)
    assert rep.passed and rep.tier == "conjecture"
    rep = verify_identity("WHITEHOUSE", 10)
    assert rep.passed
    notes = "\n".join(rep.detail)
    assert "n=4: not positive" in notes
    assert "n=8: not positive" in notes
    assert "n=6: positive" in notes


def test_whitehouse_extended_scan():
    # past the acceptance bound the sparse conversion carries the scan
    rep = verify_identity("WHITEHOUSE", 20)
    assert rep.passed
    notes = "\n".join(rep.detail)
    assert "n=16: not positive" in notes
    assert "n=20: positive" in notes


def test_unknown_identity():
    with pytest.raises(KeyError):
        verify_identity("NOPE", 6)
    with pytest.raises(KeyError):
        verify_all(6, ids=["NOPE"])


def test_min_cap_enforced():
    # an entry below its min_cap is not run: verify_identity reports the skip
    # that verify_all lists
    rep = verify_identity("THRALL", 1)
    assert rep == verify_all(1, ids=["THRALL"])[0]
    assert rep.to_dict() == {
        "id": "THRALL",
        "tier": "theorem",
        "cap": 1,
        "status": "skip",
        "detail": ["needs cap >= 2"],
    }


@pytest.mark.parametrize("cap, ctx_cap", [(8, 6), (6, 8)])
def test_a_context_of_another_cap_is_refused(cap, ctx_cap):
    # a smaller context would fail THRALL on a degree it does not hold, and a
    # larger one would pass it on series built past cap
    want = f"context of cap {ctx_cap} cannot run THRALL at cap {cap}"
    with pytest.raises(ValueError, match=want):
        verify_identity("THRALL", cap, SeriesContext(ctx_cap))


@pytest.mark.parametrize(
    "family, identity",
    [("lie", "THRALL"), ("lie", "EQUIV-PBW-SYM"), ("conj", "SOLOMON"), ("lie2", "EXT-REG")],
)
def test_a_fault_at_the_cap_degree_is_reported(monkeypatch, family, identity):
    # every degree up to the cap is compared, the cap itself included
    real = getattr(lie_family, family)
    monkeypatch.setattr(lie_family, family, lambda n: real(n) + p((1,) * n) if n == 6 else real(n))
    report = verify_identity(identity, 6)
    assert (report.status, report.first_fail_degree) == ("fail", 6)


def test_verify_all_skips_entries_below_min_cap():
    ids = ["THRALL", "IND-CONF", "U-CLOSED"]
    reports = verify_all(3, ids=ids)
    assert [r.status for r in reports] == ["pass", "pass", "skip"]
    assert reports[2].to_dict() == {
        "id": "U-CLOSED",
        "tier": "theorem",
        "cap": 3,
        "status": "skip",
        "detail": ["needs cap >= 4"],
    }
    assert [r.status for r in verify_all(2, ids=ids)] == ["pass", "skip", "skip"]
    with pytest.raises(ValueError):
        verify_all(0, ids=ids)


def test_verify_all_order_and_json():
    ids = ["THRALL", "CADOGAN", "EXT-REG"]
    reports = verify_all(4, ids=ids)
    assert [r.id for r in reports] == ids
    payload = reports[0].to_dict()
    assert payload["id"] == "THRALL"
    assert payload["status"] == "pass"
    assert payload["cap"] == 4
    json.dumps(payload)  # serializable


def test_failure_report_shape():
    # a deliberately unsatisfiable scan: WHITEHOUSE pattern breaks if we
    # claim positivity should fail at n = 6; simulate by checking a fake
    # report object instead of weakening the registry
    rep = IdentityReport(id="X", tier="theorem", cap=4, status="fail", first_fail_degree=3)
    payload = rep.to_dict()
    assert payload["status"] == "fail"
    assert payload["first_fail_degree"] == 3
    assert not rep.passed and rep.failed


def test_skips_are_not_failures():
    reports = verify_all(3)
    skips = [r for r in reports if r.status == "skip"]
    assert skips and not any(r.passed or r.failed for r in skips)
    assert sum(r.failed for r in reports) == 0


def _count_builds(monkeypatch) -> tuple[Counter, list]:
    """(builds, contexts): how often each SeriesContext memo key is built,
    and every context that reads one."""
    builds, contexts = Counter(), []
    real = SeriesContext._get

    def get(self, key, build):
        if not any(c is self for c in contexts):
            contexts.append(self)

        def counted():
            builds[key] += 1
            return build()

        return real(self, key, counted)

    monkeypatch.setattr(SeriesContext, "_get", get)
    return builds, contexts


def _assert_built_once_and_released(builds: Counter, contexts: list) -> None:
    rebuilt = sorted((repr(key), n) for key, n in builds.items() if n > 1)
    assert not rebuilt, f"built more than once: {rebuilt}"
    held = [list(ctx._memo) for ctx in contexts if ctx._memo]
    assert not held, f"held after the run: {held}"


def test_each_entry_reads_exactly_its_declared_keys(monkeypatch):
    # run alone on a fresh context, an entry reads every key of its reads and
    # no other one, the keys its reads are built from included: an undeclared
    # read raises, which fails the entry
    real = SeriesContext._get
    read = set()

    def checked(self, key, build):
        if key not in entry.reads:
            raise AssertionError(f"undeclared read of {key!r}")
        read.add(key)
        return real(self, key, build)

    monkeypatch.setattr(SeriesContext, "_get", checked)
    for id in registry_ids():
        entry = registry._entry(id)
        read.clear()
        for cap in sorted({entry.min_cap, 8, 12}):
            report = verify_identity(id, cap, SeriesContext(cap))
            assert report.passed, (id, cap, report.detail)
        assert read == entry.reads, (id, "declared, never read:", entry.reads - read)


def test_sources_name_exactly_the_keys_each_build_reads(monkeypatch):
    # each entry alone on a fresh context: every key read while another is
    # being built is an edge from that key, and the edges out of each key
    # are its sources.  This catches an edge the declaration test cannot:
    # one whose two ends every reader of the parent also reads directly
    real = SeriesContext._get
    building, children = [], {}

    def traced(self, key, build):
        if building:
            children[building[-1]].add(key)
        children.setdefault(key, set())

        def nested():
            building.append(key)
            try:
                return build()
            finally:
                building.pop()

        return real(self, key, nested)

    monkeypatch.setattr(SeriesContext, "_get", traced)
    declared = set()
    for id in registry_ids():
        declared |= registry._entry(id).reads
        for cap in (8, 12):
            report = verify_identity(id, cap, SeriesContext(cap))
            assert report.passed, (id, cap, report.detail)
    wrong = {key: kids for key, kids in children.items() if kids != set(SeriesContext.sources(key))}
    assert not wrong, f"built from other keys than their sources: {wrong}"
    assert declared <= set(children), declared - set(children)


@pytest.mark.parametrize(
    "key",
    [
        "lei",
        "kapa",
        "lei_alt",
        ("H", "lei"),
        ("Hpm", "lie_alt_alt"),
        ("Hp", "lie"),
        ("p_k", "lie3"),
        ("brackets", "Hpm", "lie", False),
        ("brackets", "H", "lei", True),
        ("brackets", "H", "lie"),
        ("product", "mobius", "sim"),
        ("walk", "mobius", 2),
        ("conj_from", "conj"),
        ("walk", "nosuch", 1),
        ("product", "nosuch", "sym"),
        "lie_alt_alt",
        ("p_k", "lie_alt_alt"),
    ],
)
def test_sources_refuse_a_key_outside_the_formats(key):
    with pytest.raises(KeyError):
        SeriesContext.sources(key)


def test_a_misspelt_read_fails_at_registration():
    with pytest.raises(KeyError):
        registry._register("TYPO", "a misspelt family name", reads=[("H", "lei")])
    with pytest.raises(KeyError):
        registry._register("TYPO", "a misspelt weight name", reads=[("walk", "two_adc", -1)])


def test_outer_powers_built_once_per_series(monkeypatch):
    # Hpm and Epm come from the cached H and E, not from a second
    # _outer_powers build: 16 distinct (kind, series) pairs, 26 calls before
    calls = []
    real = series._outer_powers

    def counting(kind, pk, cap):
        calls.append(kind)
        return real(kind, pk, cap)

    monkeypatch.setattr(series, "_outer_powers", counting)
    for cap in (8, 12):
        calls.clear()
        assert not any(r.failed for r in verify_all(cap))
        assert len(calls) == 16


def test_products_expanded_once_per_sign(monkeypatch):
    # of the six product variants per weight, "sym" and "epm" are expanded
    # and the other four derived: 6 product_form calls, 18 before.
    # Each expands the walk of its (weight, sign), which the u and beta rows
    # read from the same cache: 6 partition walks, 8 before
    walks, expanded = [], []  # ((weight, sign), walk); (weight, sign)
    real_walk, real_form = series._product_walk, series.product_form

    def counting_walk(psi, sign, cap):
        walks.append(((psi.name, sign), real_walk(psi, sign, cap)))
        return walks[-1][1]

    def counting_form(walk, cap):
        expanded.extend(key for key, w in walks if w is walk)
        return real_form(walk, cap)

    monkeypatch.setattr(series, "_product_walk", counting_walk)
    monkeypatch.setattr(series, "product_form", counting_form)
    six = sorted((name, sign) for name in ("mobius", "totient", "two_adic") for sign in (1, -1))
    for cap in (8, 12):
        walks.clear()
        expanded.clear()
        assert not any(r.failed for r in verify_all(cap))
        assert sorted(key for key, _ in walks) == six
        assert sorted(expanded) == six


def test_verify_all_builds_each_key_once_and_releases_it(monkeypatch):
    # every declared key is built once and released after its last reader,
    # so the context ends empty
    builds, contexts = _count_builds(monkeypatch)
    declared = set().union(*(registry._entry(id).reads for id in registry_ids()))
    for cap in (8, 12):
        builds.clear()
        contexts.clear()
        assert not any(r.failed for r in verify_all(cap))
        _assert_built_once_and_released(builds, contexts)
        assert set(builds) == declared


def test_verify_all_releases_after_the_last_reader_in_its_ids(monkeypatch):
    # out of registry order and with one id twice, each report is what the
    # entry gives alone on a fresh context, and no key is built twice or
    # kept: a key is released after its last reader among the ids, wherever
    # that reader stands in the registry
    ids = [
        "HE-UNIT",
        "U-CLOSED",
        "THRALL",
        "METAGE2-LIE",
        "CADOGAN",
        "HE-UNIT",
        "META-PRODUCTS-MOBIUS",
        "ALT-H-LIE-PROD",
    ]
    alone = [verify_identity(id, 10) for id in ids]
    builds, contexts = _count_builds(monkeypatch)
    assert verify_all(10, ids=ids) == alone
    _assert_built_once_and_released(builds, contexts)


def test_u_closed_reads_one_u_row_per_degree(monkeypatch):
    # k = 0..3 are read off one row per degree: 7 rows for n = 2..8, 24 before
    calls = []
    real = series._alternating_row

    def counting(walk, n, by_length):
        calls.append(n)
        return real(walk, n, by_length)

    monkeypatch.setattr(series, "_alternating_row", counting)
    assert verify_identity("U-CLOSED", 8, SeriesContext(8)).passed
    assert calls == list(range(2, 9))


def test_conj_from_entries_sum_the_cached_pieces(monkeypatch):
    # the entries read p_k[lie], p_k[lie2] and p_k[conj] through
    # ctx.power_sums, which computes them by series.plethysm once per context
    from plethy import series

    calls = []
    real = series.plethysm

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "plethysm", counting)
    # positive control: a cold context computes the pieces
    assert verify_identity("CONJ-FROM-LIE", 8, SeriesContext(8)).passed
    assert len(calls) > 0
    ctx = SeriesContext(8)
    for name in ("lie", "lie2", "conj"):
        ctx.power_sums(name)
    calls.clear()
    for id in ("CONJ-FROM-LIE", "CONJ-FROM-LIE2"):
        assert verify_identity(id, 8, ctx).passed
    assert len(calls) == 0


def test_positivity_scans_skip_the_newton_route():
    # the u and beta rows are read off the product numerators, so neither
    # scan builds H[lie2] or E[lie] through _outer_powers
    ctx = SeriesContext(16)
    for id in ("U-POS", "BETA-POS"):
        assert verify_identity(id, 16, ctx).passed
    assert ("H", "lie2") not in ctx._memo
    assert ("E", "lie") not in ctx._memo


def test_u_closed_builds_no_large_character_column(monkeypatch):
    # s_(n-1,1) and s_(n-2,2) come from h products, so only the Schur
    # constants of degree <= 6 read character columns
    from plethy import _mn_pure

    monkeypatch.setattr(_mn_pure, "_memo", {})
    (report,) = verify_all(12, ids=["U-CLOSED"])
    assert report.passed
    assert max(map(sum, _mn_pure._memo)) <= 6
