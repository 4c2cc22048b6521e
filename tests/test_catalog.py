import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends import catalog as catalog_module
from mlca_trends.catalog import (
    CARD_COLUMNS,
    CardIndex,
    CardReference,
    CardSpec,
    characteristic_series,
    contains_tokens,
    load_overrides,
    load_plausibility,
    merge_catalogs,
    normalize_name,
    parse_card_table,
    resolve_card_reference,
    serialize_card_table,
)
from mlca_trends.errors import CatalogError, UnresolvedCardError
from mlca_trends.pipeline import default_data_path
from tests.conftest import make_card

HEADER = ",".join(CARD_COLUMNS)


def write_table(tmp_path, rows, name="cards.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


GOOD_ROWS = [
    "Tesla V100 PCIe 16 GB,NVIDIA,2017-06-21,815,12,16,HBM2,250,7.066e12,1.4131e13,2.8262e13,1.12e14",
    "Quadro K2000,NVIDIA,2013-03-01,118,28,2,GDDR5,51,,7.33e11,,",
    "Tesla T4,NVIDIA,2018-09-13,545,12,16,GDDR6,70,,8.141e12,1.6282e13,6.513e13",
]


class TestParse:
    def test_three_well_formed_rows(self, tmp_path):
        cards, errors = parse_card_table(write_table(tmp_path, GOOD_ROWS), "techpowerup")
        assert len(cards) == 3 and errors == []
        assert cards[0].peak_tensor == 1.12e14
        assert cards[1].peak_fp16 is None
        assert all(c.source == "techpowerup" for c in cards)

    def test_negative_die_area_is_row_error(self, tmp_path):
        rows = GOOD_ROWS + ["Bad Card,NVIDIA,2020-01-01,-5,7,16,HBM2,250,,1e13,,"]
        cards, errors = parse_card_table(write_table(tmp_path, rows), "techpowerup")
        assert len(cards) == 3
        assert len(errors) == 1
        assert "die_area" in errors[0].message and errors[0].line == 5

    def test_malformed_date_and_number_report_line(self, tmp_path):
        rows = [
            "A,NVIDIA,not-a-date,815,12,16,HBM2,250,,1e13,,",
            "B,NVIDIA,2020-01-01,815,12,sixteen,HBM2,250,,1e13,,",
        ]
        cards, errors = parse_card_table(write_table(tmp_path, rows), "wiki")
        assert cards == []
        assert [e.line for e in errors] == [2, 3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="not found"):
            parse_card_table(tmp_path / "nope.csv", "techpowerup")

    def test_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,tdp\nX,250\n", encoding="utf-8")
        with pytest.raises(CatalogError, match="schema"):
            parse_card_table(path, "techpowerup")

    def test_unknown_source(self, tmp_path):
        with pytest.raises(CatalogError, match="source"):
            parse_card_table(write_table(tmp_path, GOOD_ROWS), "rumor-mill")

    def test_release_date_window(self):
        with pytest.raises(ValueError):
            make_card(release_date=dt.date(1980, 1, 1))
        with pytest.raises(ValueError):
            make_card(release_date=dt.date(dt.date.today().year + 2, 1, 1))

    def test_roundtrip_identity(self, tmp_path):
        cards, _ = parse_card_table(write_table(tmp_path, GOOD_ROWS), "techpowerup")
        out = tmp_path / "roundtrip.csv"
        serialize_card_table(cards, out)
        again, errors = parse_card_table(out, "techpowerup")
        assert errors == [] and again == cards


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("NVIDIA Tesla V100-PCIE-16GB", "tesla v100 pcie 16gb"),
            ("  Quadro   RTX 6000 ", "quadro rtx 6000"),
            ("AMD Instinct MI250X", "instinct mi250x"),
            ("A100 (PCIe, 40 GB)", "a100 pcie 40 gb"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_name(raw) == expected


class TestMerge:
    def test_identical_lists_all_validated(self):
        a = [make_card("X"), make_card("Y", tdp_w=150.0)]
        merged, report = merge_catalogs(a, list(a))
        assert report.total_cards == 2
        assert report.validated == 2
        assert report.divergent == ()
        assert merged == a

    def test_override_resolves_divergence(self):
        a = [make_card("X", tdp_w=250.0)]
        b = [make_card("X", tdp_w=300.0)]
        merged, report = merge_catalogs(a, b, {("x", "tdp_w"): 300.0})
        assert merged[0].tdp_w == 300.0
        assert len(report.divergent) == 1
        assert report.divergent[0].resolution == "datasheet-override"
        assert report.validated == 0

    def test_unresolved_divergence_keeps_first_value(self):
        a = [make_card("X", memory_gb=16.0)]
        b = [make_card("X", memory_gb=32.0)]
        merged, report = merge_catalogs(a, b)
        assert merged[0].memory_gb == 16.0
        assert report.divergent[0].resolution == "unresolved"

    def test_release_dates_within_30_days_are_equal(self):
        a = [make_card("X", release_date=dt.date(2020, 1, 1))]
        b = [make_card("X", release_date=dt.date(2020, 1, 29))]
        _, report = merge_catalogs(a, b)
        assert report.validated == 1

    def test_release_dates_beyond_30_days_diverge(self):
        a = [make_card("X", release_date=dt.date(2020, 1, 1))]
        b = [make_card("X", release_date=dt.date(2020, 3, 1))]
        _, report = merge_catalogs(a, b)
        assert report.validated == 0
        assert report.divergent[0].field == "release_date"

    def test_single_source_cards_pass_through(self):
        a = [make_card("OnlyA", source="techpowerup")]
        b = [make_card("OnlyB", source="wiki")]
        merged, report = merge_catalogs(a, b)
        assert {c.name for c in merged} == {"OnlyA", "OnlyB"}
        assert {c.source for c in merged} == {"techpowerup", "wiki"}
        assert report.validated == 0

    def test_absent_fields_filled_from_second_source(self):
        a = [make_card("X", memory_gb=None, peak_tensor=None)]
        b = [make_card("X", memory_gb=24.0, peak_tensor=2e14)]
        merged, report = merge_catalogs(a, b)
        assert merged[0].memory_gb == 24.0
        assert merged[0].peak_tensor == 2e14
        assert report.validated == 1  # complementary info is not divergence

    def test_validated_count_symmetric(self):
        a = [make_card("X", tdp_w=250.0), make_card("Y"), make_card("Z", memory_gb=8.0)]
        b = [make_card("X", tdp_w=300.0), make_card("Y"), make_card("W")]
        _, r_ab = merge_catalogs(a, b)
        _, r_ba = merge_catalogs(b, a)
        assert r_ab.validated == r_ba.validated
        assert r_ab.total_cards == r_ba.total_cards

    def test_partition_accounting(self):
        a = [make_card("X", tdp_w=250.0), make_card("Y"), make_card("Z")]
        b = [make_card("X", tdp_w=300.0), make_card("Y"), make_card("W")]
        merged, report = merge_catalogs(a, b)
        single_source = len(merged) - sum(
            1 for c in merged if c.normalized_name in {x.normalized_name for x in a}
            and c.normalized_name in {x.normalized_name for x in b}
        )
        assert report.validated + len({d.name for d in report.divergent}) + single_source == len(merged)

    def test_override_with_unknown_name_rejected(self):
        with pytest.raises(CatalogError, match="unknown card"):
            merge_catalogs([make_card("X")], [make_card("X")], {("ghost", "tdp_w"): 1.0})

    @pytest.mark.parametrize(
        "field, value", [("release_date", dt.date(2099, 12, 31)), ("tdp_w", -1.0)]
    )
    def test_override_the_card_rejects_is_a_catalog_error(self, field, value):
        a, b = [make_card("X", tdp_w=250.0)], [make_card("X", tdp_w=300.0)]
        with pytest.raises(CatalogError, match=f"override for 'x' {field}"):
            merge_catalogs(a, b, {("x", field): value})

    def test_duplicate_names_within_one_input_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            merge_catalogs([make_card("X"), make_card("NVIDIA X")], [])


class TestOverridesLoader:
    def test_load_and_aliases(self, tmp_path):
        path = tmp_path / "overrides.csv"
        path.write_text(
            "name,field,value\nTesla K40,tdp,235\nTesla K40,release_date,2013-10-08\n",
            encoding="utf-8",
        )
        overrides = load_overrides(path)
        assert overrides[("tesla k40", "tdp_w")] == 235.0
        assert overrides[("tesla k40", "release_date")] == dt.date(2013, 10, 8)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "overrides.csv"
        path.write_text("name,field,value\nX,price,9\n", encoding="utf-8")
        with pytest.raises(CatalogError, match="unknown field"):
            load_overrides(path)


@pytest.fixture
def a100_catalog():
    return [
        make_card(
            "A100 PCIe 40 GB", release_date=dt.date(2020, 6, 22),
            tdp_w=250.0, peak_tensor=3.1184e14,
        ),
        make_card(
            "A100 SXM4 40 GB", release_date=dt.date(2020, 5, 14),
            tdp_w=400.0, peak_tensor=3.1184e14,
        ),
        make_card(
            "A100 SXM4 80 GB", release_date=dt.date(2020, 11, 16),
            tdp_w=400.0, memory_gb=80.0, peak_tensor=3.1184e14,
        ),
        make_card("Tesla T4", release_date=dt.date(2018, 9, 13), tdp_w=70.0),
    ]


class TestResolve:
    def test_exact_match_single_candidate(self, a100_catalog):
        ref = resolve_card_reference("NVIDIA A100 SXM4 80 GB", a100_catalog)
        assert len(ref.candidates) == 1
        assert ref.reference.name == "A100 SXM4 80 GB"

    def test_family_match_lists_all_variants(self, a100_catalog):
        ref = resolve_card_reference("A100", a100_catalog)
        assert {c.name for c in ref.candidates} == {
            "A100 PCIe 40 GB", "A100 SXM4 40 GB", "A100 SXM4 80 GB",
        }
        # fallback reference: earliest release
        assert ref.reference.name == "A100 SXM4 40 GB"

    def test_plausibility_config_drives_reference(self, a100_catalog):
        plausibility = {"a100": ["a100 sxm4 80 gb", "a100 pcie 40 gb"]}
        ref = resolve_card_reference("A100", a100_catalog, plausibility)
        assert ref.reference.name == "A100 SXM4 80 GB"

    def test_determinism(self, a100_catalog):
        plausibility = {"a100": ["a100 pcie 40 gb"]}
        first = resolve_card_reference("A100", a100_catalog, plausibility)
        for _ in range(5):
            again = resolve_card_reference("A100", a100_catalog, plausibility)
            assert again == first

    def test_unknown_name_raises_with_query(self, a100_catalog):
        with pytest.raises(UnresolvedCardError) as exc_info:
            resolve_card_reference("NotACard", a100_catalog)
        assert exc_info.value.query == "NotACard"

    def test_empty_catalog_rejected(self):
        with pytest.raises(CatalogError):
            resolve_card_reference("A100", [])

    def test_token_containment_not_prefix_only(self, a100_catalog):
        ref = resolve_card_reference("T4", a100_catalog)
        assert ref.reference.name == "Tesla T4"

    def test_each_card_name_normalized_once(self, a100_catalog, monkeypatch):
        import mlca_trends.catalog as catalog

        calls = []
        original = catalog.normalize_name

        def counted(name):
            calls.append(name)
            return original(name)

        monkeypatch.setattr(catalog, "normalize_name", counted)
        for query in ("A100", "T4", "NVIDIA A100 SXM4 80 GB", "A100", "SXM4"):
            resolve_card_reference(query, a100_catalog)
        assert all(calls.count(card.name) == 1 for card in a100_catalog)


def scan_resolve(query, cards, plausibility=None):
    """The reference resolver: one linear scan of the catalog per query.
    Exact normalized matches in catalog order, else every card whose name
    holds the query tokens contiguously, in catalog order."""
    cards = list(cards)
    if not cards:
        raise CatalogError("cannot resolve against an empty catalog")
    nq = normalize_name(query)
    if not nq:
        raise UnresolvedCardError(query)
    candidates = [c for c in cards if c.normalized_name == nq]
    if not candidates:
        q_tokens = nq.split()
        candidates = [c for c in cards if contains_tokens(c.normalized_name.split(), q_tokens)]
    if not candidates:
        raise UnresolvedCardError(query)
    by_name = {c.normalized_name: c for c in candidates}
    reference = next((by_name[p] for p in (plausibility or {}).get(nq, []) if p in by_name), None)
    if reference is None:
        reference = min(candidates, key=lambda c: (c.release_date, c.normalized_name))
    return CardReference(query_name=query, candidates=tuple(candidates), reference=reference)


def outcome(resolve, *args):
    """(candidate ids, reference id) of a resolution, or (error type, message)."""
    try:
        ref = resolve(*args)
    except (CatalogError, UnresolvedCardError) as exc:
        return type(exc), str(exc)
    return tuple(map(id, ref.candidates)), id(ref.reference)


# A small vocabulary, so that names share tokens, repeat them and collide
# once normalized; "zz9" is on no card.
TOKENS = ["a100", "sxm4", "80", "gb", "pcie", "T4", "tesla", "x", "A100-SXM4"]
SEPARATORS = [" ", "  ", "-", "_", " / ", ", "]
card_names = st.builds(
    lambda vendor, tokens, seps: vendor + "".join(
        token + seps[i % len(seps)] for i, token in enumerate(tokens)
    ).rstrip(" /,-_"),
    st.sampled_from(["", "NVIDIA ", "amd ", "Google-"]),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4),
    st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=3),
)
card_specs = st.builds(
    lambda name, day: make_card(name, release_date=dt.date(2020, 1, 1) + dt.timedelta(days=day)),
    card_names, st.integers(0, 2),
)
query_strings = st.one_of(
    card_names,
    st.lists(st.sampled_from(TOKENS + ["zz9"]), min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["zz9", "NVIDIA", "--", "", "Tesla T4!", "a100 zz9"]),
)


class TestIndexedResolveEqualsTheScan:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(card_specs, max_size=12), st.lists(query_strings, min_size=1, max_size=4),
        st.data(),
    )
    def test_generated_catalogs(self, catalog, queries, data):
        plausibility = {}
        if catalog:
            for query in queries[:2]:
                picks = data.draw(st.lists(st.sampled_from(catalog), max_size=3))
                plausibility[normalize_name(query)] = [c.normalized_name for c in picks]
        index = CardIndex(catalog)
        for query in queries:
            expected = outcome(scan_resolve, query, catalog, plausibility)
            assert outcome(resolve_card_reference, query, catalog, plausibility) == expected
            assert outcome(resolve_card_reference, query, index, plausibility) == expected

    def test_every_bundled_name_and_name_token(self):
        catalog = []
        for name in ("cards_nvidia_workstation.csv", "cards_other.csv"):
            catalog += parse_card_table(default_data_path(name), "other")[0]
        plausibility = load_plausibility(default_data_path("plausibility.json"))
        index = CardIndex(catalog)
        queries = {card.name for card in catalog}
        queries |= {token for card in catalog for token in card.normalized_name.split()}
        assert len(queries) > len(catalog)
        for query in sorted(queries):
            assert outcome(resolve_card_reference, query, index, plausibility) == outcome(
                scan_resolve, query, catalog, plausibility
            )

    def test_family_query_walks_only_the_rarest_token_postings(self, a100_catalog, monkeypatch):
        calls = []
        original = catalog_module.contains_tokens

        def counted(name_tokens, query_tokens):
            calls.append(name_tokens)
            return original(name_tokens, query_tokens)

        monkeypatch.setattr(catalog_module, "contains_tokens", counted)
        index = CardIndex(a100_catalog)
        for query, rarest in (("A100", "a100"), ("SXM4 80", "80"), ("PCIe", "pcie")):
            calls.clear()
            postings = [c for c in a100_catalog if rarest in c.normalized_name.split()]
            ref = resolve_card_reference(query, index)
            assert len(calls) == len(postings) < len(a100_catalog)
            assert ref.candidates == tuple(postings)


class TestCharacteristicSeries:
    def test_projection_in_date_order(self):
        cards = [
            make_card("C", release_date=dt.date(2022, 1, 1), memory_gb=32.0),
            make_card("A", release_date=dt.date(2020, 1, 1), memory_gb=8.0),
            make_card("B", release_date=dt.date(2021, 1, 1), memory_gb=16.0),
        ]
        series = characteristic_series(cards, "memory_size")
        assert series == [
            (dt.date(2020, 1, 1), 8.0),
            (dt.date(2021, 1, 1), 16.0),
            (dt.date(2022, 1, 1), 32.0),
        ]

    def test_cards_missing_field_skipped(self):
        cards = [make_card("A"), make_card("B", die_area_mm2=None)]
        assert len(characteristic_series(cards, "die_area")) == 1

    def test_attribute_alias_accepted(self):
        cards = [make_card("A", tdp_w=123.0)]
        assert characteristic_series(cards, "tdp_w") == characteristic_series(cards, "tdp")

    def test_unknown_field_rejected(self):
        with pytest.raises(CatalogError, match="unknown characteristic"):
            characteristic_series([make_card("A")], "price")


def test_bundled_catalog_roundtrip(tmp_path):
    from mlca_trends.pipeline import default_data_path

    cards, errors = parse_card_table(
        default_data_path("cards_nvidia_workstation.csv"), "techpowerup"
    )
    assert errors == []
    out = tmp_path / "bundled_roundtrip.csv"
    serialize_card_table(cards, out)
    again, errors = parse_card_table(out, "techpowerup")
    assert errors == [] and again == cards


def test_plausibility_loader(tmp_path):
    path = tmp_path / "plausibility.json"
    path.write_text('{"A100": ["NVIDIA A100 SXM4 40 GB"]}', encoding="utf-8")
    mapping = load_plausibility(path)
    assert mapping == {"a100": ["a100 sxm4 40 gb"]}
    bad = tmp_path / "bad.json"
    bad.write_text('{"A100": "not-a-list"}', encoding="utf-8")
    with pytest.raises(CatalogError):
        load_plausibility(bad)
