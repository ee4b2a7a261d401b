"""Injected engine defects must show up as failed registry entries.

Each defect replaces a function or table of the package from the outside,
so the test does not depend on how the kernels are written.  verify_all(10)
has to report at least one failure, and no exception may escape it (an
entry that raises is itself a failure report).  A ring or series defect
must fail at least one entry by a comparison, not only by raising, so
that a stand-in that no longer fits the code it replaces cannot pass.  A
defect in the positivity reader must instead fail the test in test_schur
that pins the behaviour it breaks: the witness tie-break or the
integrality check; so must one in the whitehouse deficit scan.  One in
schur._verdict, the rule both scans share, must fail the tests of both,
and a strip-sign defect must fire the deficit scan's hook ledger;
dropping the conjugate band from the scan's half strip step must fire its
dimension ledger.  A defect in the u rows' running sum
must fail both an entry and the oracle test in test_series, and reach the
packed rows the U-POS scan reads; a packed-row width one bit short must
fail the packed-row test in test_schur.  A key left
out of an entry's reads changes no output, so it must fail the
declaration and build-once tests in test_registry, and an edge left out
of SeriesContext.sources, from which _register closes each entry's reads,
must fail the edge test there.  A memo key served as a sign rule of the
key it is compared with must fail the independence audit there, and a
twist given omega's exponents the sign-rule tests in test_series.  A
packed width too short for the fields of the outer powers, or of the
product-formula walk, must fail the product entries of every family, with
no traceback.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from functools import partial

import pytest

import plethy.cli as cli
import plethy.lie_family as lie_family
import plethy.registry as registry
import plethy.schur as schur
import plethy.series as series
import plethy.theorems as theorems
import test_cli
import test_registry
import test_schur
import test_series
from conftest import inject_strip_sign_defect, patch_everywhere, unpack_batch, unpack_fields
from plethy import _mn_pure
from plethy.registry import verify_all
from plethy.series import Series, bracket_sum
from plethy.symfunc import Keyed, SymFunc, _Powers, mul_sum, p


def _compared_failures(reports) -> list[str]:
    """The ids of the failed entries whose detail has no "raised ..." line."""
    return [r.id for r in reports if r.failed and not any(d.startswith("raised ") for d in r.detail)]


def _drop_top(out: Keyed, cap: int) -> Keyed:
    return Keyed(out.keys, [(d, terms) for d, terms in out.groups if d < cap], out.den)


def _mul_sum_drops_top(pairs, cap):
    return _drop_top(mul_sum(pairs, cap), cap)


def _one_pair_mul_sum_drops_top(pairs, cap):
    """The mul_trunc defect: a product of one pair (what mul_trunc
    computes) loses degree = cap; sums of several pairs are right."""
    pairs = list(pairs)
    out = mul_sum(pairs, cap)
    return _drop_top(out, cap) if len(pairs) == 1 else out


# every plethysm is the apply of a _Powers memo: the one-off plethysm, and
# the memos shared by bracket_sum, plethystic_inverse and the power sums
_apply = _Powers.apply


def _apply_drops_top(self, f):
    return _drop_top(_apply(self, f), self.cap)


def _apply_budget_off_by_one(self, f):
    """Terms p_lambda of f with two or more parts are cut one degree short."""
    long = SymFunc({lam: c for lam, c in f.items() if len(lam) >= 2})
    short = _apply(_Powers(self.g, self.cap - 1), long).symfunc()
    return Keyed.encode(_apply(self, f - long).symfunc() + short, self.cap)


def _p3_of_g_even_sign_flipped(self, f):
    """p_3 o g with the sign of its even-length terms flipped."""
    out = _apply(self, f)
    if f != p(3):
        return out
    flipped = SymFunc({mu: -c if len(mu) % 2 == 0 else c for mu, c in out.symfunc().items()})
    return Keyed.encode(flipped, self.cap)


@pytest.mark.parametrize(
    "name, defect",
    [
        # mul_trunc is the one-pair mul_sum, and SymFunc products call it
        ("mul_sum", _one_pair_mul_sum_drops_top),
        ("mul_sum", _mul_sum_drops_top),
        ("_Powers.apply", _apply_drops_top),
        ("_Powers.apply", _apply_budget_off_by_one),
        ("_Powers.apply", _p3_of_g_even_sign_flipped),
    ],
    ids=[
        "mul_trunc-drops-degree-cap",
        "mul_sum-drops-degree-cap",
        "plethysm-drops-degree-cap",
        "plethysm-budget-off-by-one",
        "p3-of-g-even-length-sign",
    ],
)
def test_ring_defect_fails_an_entry(monkeypatch, name, defect):
    if name == "_Powers.apply":
        monkeypatch.setattr(_Powers, "apply", defect)
    else:
        patch_everywhere(monkeypatch, name, defect)
    failed = _compared_failures(verify_all(10))
    assert failed, f"{defect.__name__} failed no entry by a comparison at cap 10"


def test_character_sign_defect_fails_an_entry(monkeypatch):
    inject_strip_sign_defect(monkeypatch)
    reports = verify_all(10)
    failed = [r.id for r in reports if r.failed]
    assert failed, "the _add_strips sign defect went unnoticed at cap 10"


_outer_powers = series._outer_powers
_field_bounds = series._field_bounds
_alternating_row = series._alternating_row


def _newton_p2_sign_flipped(kind, pk, cap):
    """_outer_powers with the sign of p_2[F] flipped, for h and e alike: the
    v^2 term of the exponent, and the p_2[F] term of Newton's identity
    r*x_r = sum of (+-) p_k[F] x_(r-k), have the wrong sign."""
    return _outer_powers(kind, [-f if k == 2 else f for k, f in enumerate(pk, 1)], cap)


def _field_bounds_8_bits_short(B, L):
    """The field bounds of _outer_powers cut by 8 bits, so that the packed
    width is 8 bits short."""
    return [m >> 8 for m in _field_bounds(B, L)]


def test_a_packed_width_8_bits_short_fails_the_product_entries(monkeypatch, capsys):
    # at cap 12 the widest fields of the lie, lie2 and conj powers take 28,
    # 28 and 29 bits plus a sign, under widths of 35, 36 and 37 bits, so a
    # width 8 bits short wraps fields of all three, and each family's
    # product formula disagrees with its outer powers
    monkeypatch.setattr(series, "_field_bounds", _field_bounds_8_bits_short)
    assert cli.main(["verify", "--all", "--cap", "12"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    for id in ("META-PRODUCTS-MOBIUS", "META-PRODUCTS-TOTIENT", "META-PRODUCTS-TWOADIC"):
        assert f"FAIL  {id}  " in out, id


def test_a_walk_width_8_bits_short_fails_the_product_entries(monkeypatch, capsys):
    # at cap 12 the walk packs at 30 bits and its widest fields take 28 bits
    # plus a sign, so a width 8 bits short wraps them, and each family's
    # product formula disagrees with its outer powers
    real = series._walk_width
    monkeypatch.setattr(series, "_walk_width", lambda cap: real(cap) - 8)
    assert cli.main(["verify", "--all", "--cap", "12"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    for id in ("META-PRODUCTS-MOBIUS", "META-PRODUCTS-TOTIENT", "META-PRODUCTS-TWOADIC"):
        assert f"FAIL  {id}  " in out, id


def _newton_sign_error(monkeypatch):
    monkeypatch.setattr(series, "_outer_powers", _newton_p2_sign_flipped)


def _product_variant_sign_flip(monkeypatch):
    # the sign +1 walk expands (1 - p_m)^(f_m(v)), which "epm", "ext" and
    # "alt_ext" are read from; the flip makes it (1 + p_m)^(f_m(v)), its
    # twist, which multiplies N_lam by (-1)^l(lam)
    real = series._product_walk

    def flip(N, length):
        return -N if length % 2 else N

    def base_sign_flipped(psi, sign, cap):
        w, ones, by_size = real(psi, sign, cap)
        if sign != 1:
            return w, ones, by_size
        return (
            w,
            [flip(N, j) for j, N in enumerate(ones)],
            [[(mu, flip(N, len(mu)), z) for mu, N, z in row] for row in by_size],
        )

    monkeypatch.setattr(series, "_product_walk", base_sign_flipped)


def _product_ext_unflipped(monkeypatch):
    # "ext" is "epm" with v -> -v; the defect serves the "epm" recipe,
    # unflipped, under the "ext" key
    real = series._recipe

    def recipe(key):
        if key[:1] == ("product",) and key[2:] == ("ext",):
            return real(key[:2] + ("epm",))
        return real(key)

    monkeypatch.setattr(series, "_recipe", recipe)


@pytest.mark.parametrize(
    "inject",
    [_newton_sign_error, _product_variant_sign_flip, _product_ext_unflipped],
    ids=["newton-p2-sign", "product-variant-ext-sign", "product-ext-unflipped"],
)
def test_series_defect_fails_an_entry(monkeypatch, inject):
    inject(monkeypatch)
    failed = _compared_failures(verify_all(10))
    assert failed, f"{inject.__name__} failed no entry by a comparison at cap 10"


def _u_row_stand_in(step, sign=1):
    """The rows with the u rows' running sum U_k = sign * [v^(n-k)] N_lam +
    step * U_(k-1): step -1 and sign 1 is the package's rule.  The beta rows
    are left as they are.  The SymFunc rows and the packed rows are both
    read off it."""

    def row(walk, n, by_length):
        if not by_length:
            return _alternating_row(walk, n, by_length)
        den, terms, coeffs = series._degree_terms(walk, n)
        rows = [[0] * len(terms) for _ in range(n)]
        for i, (lam, q) in enumerate(terms):
            s = -q if len(lam) % 2 else q
            t = 0
            for k in range(n):
                t = sign * s * coeffs[n - k][i] + step * t
                rows[k][i] = t
        return den, terms, rows

    return row


def test_the_u_row_stand_in_passes_when_sound(monkeypatch):
    monkeypatch.setattr(series, "_alternating_row", _u_row_stand_in(-1))
    test_series.test_alternating_sums_match_oracle()


def test_a_flipped_u_running_sum_fails_an_entry_and_the_oracle(monkeypatch):
    monkeypatch.setattr(series, "_alternating_row", _u_row_stand_in(1))
    failed = [r.id for r in verify_all(10) if r.failed]
    assert "U-CLOSED" in failed, failed
    with pytest.raises(AssertionError):
        test_series.test_alternating_sums_match_oracle()
    # the flipped sums are partial sums of the characters vh(n, j) =
    # h_(n-j)[lie2], so U-POS passes on them; it reads the flipped rule all
    # the same, as its packed rows are the stand-in's SymFunc rows
    ctx = series.SeriesContext(10)
    for n in range(2, 11):
        flipped = ctx.u_row(n, packed=True)
        assert unpack_batch(*flipped) == ctx.u_row(n), n
    monkeypatch.setattr(series, "_alternating_row", _alternating_row)
    assert ctx.u_row(10, packed=True) != flipped


def test_a_negated_u_running_sum_fails_both_u_entries(monkeypatch):
    # one rule feeds the SymFunc rows of U-CLOSED and the packed rows of U-POS
    monkeypatch.setattr(series, "_alternating_row", _u_row_stand_in(-1, sign=-1))
    failed = [r.id for r in verify_all(10) if r.failed]
    assert "U-CLOSED" in failed and "U-POS" in failed, failed


def _pack_rows_one_bit_short(mus, rows, dens):
    """schur._pack_rows with every C_mu packed one bit narrower."""
    pairs, w, dens = schur._pack_rows(mus, rows, dens)
    count = sum(map(bool, dens))
    repacked = []
    for mu, c in pairs:
        fields = unpack_fields(c, w, count)
        repacked.append((mu, sum(f << ((w - 1) * j) for j, f in enumerate(fields))))
    return repacked, w - 1, dens


def test_a_packed_row_width_one_bit_short_fails_the_batch_test(monkeypatch):
    monkeypatch.setattr(series, "_pack_rows", _pack_rows_one_bit_short)
    with pytest.raises(AssertionError):
        test_schur.test_packed_rows_are_the_batches_of_their_symfuncs("u_row")
    with pytest.raises(AssertionError):
        test_schur.test_packed_rows_are_the_batches_of_their_symfuncs("beta_row")


def _bracket_sum_slot_2_negated(kind, Q):
    """bracket_sum with slot (n, 2) negated for n >= 4."""
    out = bracket_sum(kind, Q)
    graded = {}
    for n, r in out.graded_keys():
        graded[n, r] = -out.graded(n, r) if r == 2 and n >= 4 else out.graded(n, r)
    return Series(out.cap, graded=graded)


def test_bracket_defect_reaches_the_signed_sums(monkeypatch):
    # the signed bracket sums are slot flips of the unsigned walk, so a
    # defect in the walk must fail the entries that read only the signed form
    # (degree 4 is the first slot the defect touches; an entry that raised
    # would have no first failing degree)
    monkeypatch.setattr(series, "bracket_sum", _bracket_sum_slot_2_negated)
    failed = {r.id: r.first_fail_degree for r in verify_all(10) if r.failed}
    for id in ("ACYC-LIE", "ACYC-LIE2", "ALT-H-LIE-PROD"):
        assert failed.get(id) == 4, (id, failed)


@pytest.mark.parametrize("degree", [3, 6, 9])
@pytest.mark.parametrize("family", ["lie", "lie2"])
def test_family_defect_fails_an_entry(monkeypatch, family, degree):
    """The family with one extra term, p_1^degree, at one degree."""
    real = getattr(lie_family, family)

    def with_extra_term(n):
        return real(n) + p((1,) * n) if n == degree else real(n)

    monkeypatch.setattr(lie_family, family, with_extra_term)
    failed = [r.id for r in verify_all(10) if r.failed]
    assert failed, f"an extra term in {family}({degree}) went unnoticed at cap 10"


def test_a_key_left_out_of_reads_costs_a_rebuild_not_a_result(monkeypatch, capsys):
    # without the walk in U-POS's reads, verify_all releases it after
    # U-CLOSED, its last declared reader, and U-POS builds it again and
    # keeps it.  The output is the same, as a cache is never wrong, so the
    # declaration and build-once tests are what must catch it
    entry = registry._entry("U-POS")
    reads = entry.reads - {series.SeriesContext.READER_KEYS["u_row"]}
    monkeypatch.setitem(registry._ENTRIES, "U-POS", entry._replace(reads=reads))
    test_cli.test_verify_json_golden(capsys)
    with monkeypatch.context() as m, pytest.raises(AssertionError, match="undeclared read"):
        test_registry.test_each_entry_reads_exactly_its_declared_keys(m)
    with monkeypatch.context() as m, pytest.raises(AssertionError, match="more than once"):
        test_registry.test_verify_all_builds_each_key_once_and_releases_it(m)


def test_an_edge_left_out_of_sources_fails_the_edge_test(monkeypatch):
    # Hpm and Epm said to be built from nothing, with the theorem tier
    # registered again under that graph: every entry that reads one also
    # reads the H or E below it, so no entry's reads change and the
    # declaration test passes; only the edge test can catch it
    real = series.SeriesContext.sources

    def sources(key):
        return () if key[0] in ("Hpm", "Epm") else real(key)

    monkeypatch.setattr(series.SeriesContext, "sources", staticmethod(sources))
    monkeypatch.setattr(registry, "_ENTRIES", dict(registry._ENTRIES))
    importlib.reload(theorems)
    with monkeypatch.context() as m:
        test_registry.test_each_entry_reads_exactly_its_declared_keys(m)
    with monkeypatch.context() as m, pytest.raises(AssertionError, match="than their sources"):
        test_registry.test_sources_name_exactly_the_keys_each_build_reads(m)


def test_a_product_served_as_a_sign_rule_of_its_outer_power_fails_the_audit(monkeypatch):
    # the product "sym" served as ("H", F) under the rule that changes no
    # sign: every value stays right, as the two are equal, but the entries
    # that compare them then read one computation twice
    real = series._recipe
    families = {psi.name: fam for fam, psi in theorems._PSI.items()}

    def recipe(key):
        if key[:1] == ("product",) and key[2:] == ("sym",):
            return (("H", families[key[1]]),), partial(series._sign_rule, (0, 0, 0, 0))
        return real(key)

    monkeypatch.setattr(series, "_recipe", recipe)
    with pytest.raises(AssertionError, match="both reach"):
        test_registry.test_each_key_comparison_reaches_two_expanded_sources()


def test_a_twist_given_omegas_exponents_fails_the_sign_rule_tests(monkeypatch):
    # omega and the twist agree in even degrees, so only a check at an odd
    # degree tells them apart
    real = Series.signed

    def signed(self, signs):
        return real(self, series.OMEGA if signs == series.TWIST else signs)

    monkeypatch.setattr(Series, "signed", signed)
    with pytest.raises(AssertionError):
        test_series.test_signed_multiplies_each_term_by_its_sign()
    with pytest.raises(AssertionError):
        test_series.test_derived_keys_match_their_definitions(3)


def _verdict_rule(tie, integral=True):
    """A stand-in for schur._verdict that picks the witness among the tied
    shapes with tie and, unless integral is false, refuses a function that
    is not a virtual character."""

    def verdict(pairs, den):
        field = {_mn_pure.decode(m): v for m, v in pairs}
        bad = [(lam, v) for lam, v in field.items() if v % den]
        if integral and bad:
            lam, v = max(bad)
            raise schur.NotVirtualCharacter(lam, Fraction(v, den))
        low = min(field.values(), default=0)
        if low >= 0:
            return schur.Positivity(True)
        return schur.Positivity(False, tie(lam for lam, v in field.items() if v == low), low // den)

    return verdict


def _positivity_reader(tie, integral=True):
    """A stand-in for schur.is_schur_positive_many that expands one function
    at a time and reads the packed sums of schur._expand with _verdict_rule."""
    verdict = _verdict_rule(tie, integral)

    def read(fs):
        for f in fs:
            if not f:
                yield schur.Positivity(True)
                continue
            masks, columns = schur._expand(*schur._pack([f]))
            den, column = next(columns)
            yield verdict(zip(masks, column), den)

    return read


def _deficit_reader(tie, integral=True):
    """deficit_positivity rebuilt on _positivity_reader: each degree's
    deficit is built in the p basis and read with tie and integral."""
    read = _positivity_reader(tie, integral)

    def scan(psi, max_n):
        for n in range(2, max_n + 1):
            yield next(read([p(1) * lie_family.f_from_psi(psi, n - 1) - lie_family.f_from_psi(psi, n)]))

    return scan


def test_the_positivity_reader_stand_in_passes_when_sound(monkeypatch):
    monkeypatch.setattr(schur, "is_schur_positive_many", _positivity_reader(max))
    test_schur.test_positivity_witness()
    test_schur.test_positivity_batch_reports_a_failure_before_a_later_raise()


def test_a_tie_break_toward_the_smaller_shape_fails_the_witness(monkeypatch):
    # at n = 8 the lie2 deficit is -1 at (8,), (4,4) and (2,2,2,2)
    monkeypatch.setattr(schur, "is_schur_positive_many", _positivity_reader(min))
    with pytest.raises(AssertionError):
        test_schur.test_positivity_witness()


def test_a_skipped_integrality_check_fails_the_batch_raise(monkeypatch):
    monkeypatch.setattr(schur, "is_schur_positive_many", _positivity_reader(max, integral=False))
    with pytest.raises(pytest.fail.Exception):
        test_schur.test_positivity_batch_reports_a_failure_before_a_later_raise()


def test_the_deficit_reader_stand_in_passes_when_sound(monkeypatch):
    monkeypatch.setattr(schur, "deficit_positivity", _deficit_reader(max))
    test_schur.test_deficit_positivity_witness()
    test_schur.test_deficit_positivity_refuses_a_non_integral_coefficient()


def test_a_deficit_tie_break_toward_the_smaller_shape_fails_the_witness(monkeypatch):
    monkeypatch.setattr(schur, "deficit_positivity", _deficit_reader(min))
    with pytest.raises(AssertionError):
        test_schur.test_deficit_positivity_witness()


def test_a_skipped_deficit_integrality_check_fails_its_raise(monkeypatch):
    monkeypatch.setattr(schur, "deficit_positivity", _deficit_reader(max, integral=False))
    with pytest.raises(pytest.fail.Exception):
        test_schur.test_deficit_positivity_refuses_a_non_integral_coefficient()


# both scans read their verdict from schur._verdict, so one defect there
# must fail the tests of both


def test_the_verdict_stand_in_passes_when_sound(monkeypatch):
    monkeypatch.setattr(schur, "_verdict", _verdict_rule(max))
    test_schur.test_positivity_witness()
    test_schur.test_deficit_positivity_witness()
    test_schur.test_positivity_batch_reports_a_failure_before_a_later_raise()
    test_schur.test_deficit_positivity_refuses_a_non_integral_coefficient()


def test_a_verdict_tie_break_toward_the_smaller_shape_fails_both_witnesses(monkeypatch):
    monkeypatch.setattr(schur, "_verdict", _verdict_rule(min))
    with pytest.raises(AssertionError):
        test_schur.test_positivity_witness()
    with pytest.raises(AssertionError):
        test_schur.test_deficit_positivity_witness()


def test_a_verdict_without_the_integrality_raise_fails_both_raises(monkeypatch):
    monkeypatch.setattr(schur, "_verdict", _verdict_rule(max, integral=False))
    with pytest.raises(pytest.fail.Exception):
        test_schur.test_positivity_batch_reports_a_failure_before_a_later_raise()
    with pytest.raises(pytest.fail.Exception):
        test_schur.test_deficit_positivity_refuses_a_non_integral_coefficient()


def test_a_strip_sign_defect_fails_the_deficit_ledger(monkeypatch, capsys):
    # the sign of the 4-strips onto two-row shapes breaks chi(4), so the
    # hook ledger, the sum of (-1)^b N_4(4-b, 1^b), is no longer -12 psi(4)
    inject_strip_sign_defect(monkeypatch)
    with pytest.raises(ValueError, match="hook ledger fails at n=4:") as exc:
        list(schur.deficit_positivity(lie_family.Psi.two_adic(), 8))
    assert not isinstance(exc.value, schur.NotVirtualCharacter)
    assert cli.main(["conjecture", "whitehouse", "--max-n", "8"]) == 1
    out = capsys.readouterr().out
    assert "raised ValueError: hook ledger fails at n=4:" in out
    assert out.endswith("FAIL  WHITEHOUSE scanned to n = 8\n")


# the whitehouse scan holds one shape of each conjugate pair, and a k-strip
# onto a rep also starts at the conjugates of the band reps


def _half_strips_rule(band=True):
    """A stand-in for _mn_pure._half_strips, with or without the band."""

    def half_strips(half, k, flip):
        out = {}
        _mn_pure._add_strips(half, k, out)
        if band:
            near = {m: v for m, v in half.items() if 0 < m.bit_length() - 2 * m.bit_count() <= k}
            _mn_pure._add_strips({_mn_pure.conjugate(m): flip(v) for m, v in near.items()}, k, out)
        return {m: v for m, v in out.items() if v and m.bit_length() >= 2 * m.bit_count()}

    return half_strips


@pytest.mark.parametrize("psi, family", [(lie_family.Psi.two_adic(), "lie2"), (lie_family.Psi.mobius(), "lie")])
def test_the_half_strip_stand_in_passes_when_sound(monkeypatch, psi, family):
    monkeypatch.setattr(_mn_pure, "_half_strips", _half_strips_rule())
    test_schur.test_deficit_positivity_matches_the_expansion(psi, family)


@pytest.mark.parametrize("psi, family", [(lie_family.Psi.two_adic(), "lie2"), (lie_family.Psi.mobius(), "lie")])
def test_half_strips_without_the_band_fail_the_deficit_scan(monkeypatch, psi, family):
    monkeypatch.setattr(_mn_pure, "_half_strips", _half_strips_rule(band=False))
    with pytest.raises(ValueError, match="dimension ledger fails at n=3:"):
        test_schur.test_deficit_positivity_matches_the_expansion(psi, family)
