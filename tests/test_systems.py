import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlca_trends.errors import SystemsError
from mlca_trends.inputs import write_csv
from mlca_trends.systems import (
    CONFIDENCE_LEVELS,
    COVERAGE_METRICS,
    SYSTEM_COLUMNS,
    CoverageCounts,
    SystemRecord,
    coverage_summary,
    eligible_systems,
    load_column_map,
    parse_systems_table,
    system_rows,
)

HEADER = (
    "name,publication_date,training_flop,hardware_names,hardware_quantity,"
    "training_hours,countries,confidence,finetuned"
)


def write_systems(tmp_path, rows, header=HEADER, name="systems.csv"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def record(name="Sys", **kwargs):
    defaults = dict(publication_date=dt.date(2021, 6, 1))
    defaults.update(kwargs)
    return SystemRecord(name=name, **defaults)


class TestParse:
    def test_two_rows(self, tmp_path):
        rows = [
            "GPT-3,2020-05-28,3.14e23,V100,10000,,USA,confident,false",
            "BLOOM,2022-07-06,3.9e23,A100 SXM4 80 GB,384,2820,,confident,false",
        ]
        records, errors = parse_systems_table(write_systems(tmp_path, rows))
        assert errors == []
        assert [r.name for r in records] == ["GPT-3", "BLOOM"]
        assert records[0].training_hours is None
        assert records[1].countries is None  # empty cell stays absent

    def test_multi_valued_hardware_split(self, tmp_path):
        rows = ['X,2021-01-01,1e21,"V100; TPUv3",,,USA,unknown,false']
        records, _ = parse_systems_table(write_systems(tmp_path, rows))
        assert records[0].hardware_names == ("V100", "TPUv3")

    def test_countries_kept_in_source_order(self, tmp_path):
        rows = ['X,2021-01-01,,,,,"GBR; USA; FRA",unknown,false']
        records, _ = parse_systems_table(write_systems(tmp_path, rows))
        assert records[0].countries == ("GBR", "USA", "FRA")

    def test_malformed_numeric_is_row_error(self, tmp_path):
        rows = [
            "Good,2021-01-01,1e21,V100,8,24,USA,confident,false",
            "Bad,2021-01-01,lots,V100,8,24,USA,confident,false",
            "AlsoBad,2021-01-01,1e21,V100,8.5,24,USA,confident,false",
        ]
        records, errors = parse_systems_table(write_systems(tmp_path, rows))
        assert len(records) == 1
        assert [e.line for e in errors] == [3, 4]

    def test_order_preserved(self, tmp_path):
        rows = [f"S{i},2021-01-01,,,,,,unknown,false" for i in range(20)]
        records, _ = parse_systems_table(write_systems(tmp_path, rows))
        assert [r.name for r in records] == [f"S{i}" for i in range(20)]

    def test_repeated_hardware_and_country_cells_share_one_tuple(self, tmp_path):
        rows = ["A,2021-01-01,,V100,,,USA,,", "B,2021-01-02,,V100,,,USA,,"]
        (a, b), errors = parse_systems_table(write_systems(tmp_path, rows))
        assert (a.hardware_names is b.hardware_names, a.countries is b.countries) == (True, True)
        assert errors == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemsError, match="not found"):
            parse_systems_table(tmp_path / "absent.csv")

    def test_column_map_adapts_upstream_headers(self, tmp_path):
        header = "Model,Publication date,Training compute (FLOP),Training hardware"
        rows = ["GPT-3,2020-05-28,3.14e23,V100"]
        path = write_systems(tmp_path, rows, header=header)
        map_path = tmp_path / "map.json"
        map_path.write_text(
            json.dumps(
                {
                    "Model": "name",
                    "Publication date": "publication_date",
                    "Training compute (FLOP)": "training_flop",
                    "Training hardware": "hardware_names",
                }
            ),
            encoding="utf-8",
        )
        records, errors = parse_systems_table(path, load_column_map(map_path))
        assert errors == []
        assert records[0].training_flop == 3.14e23
        assert records[0].hardware_names == ("V100",)

    def test_unmappable_required_column(self, tmp_path):
        path = write_systems(tmp_path, ["X,1"], header="Model,whatever")
        with pytest.raises(SystemsError, match="lacks a column mapping"):
            parse_systems_table(path)

    def test_confidence_defaults_to_unknown(self, tmp_path):
        rows = ["X,2021-01-01,,,,,,,false"]
        records, _ = parse_systems_table(write_systems(tmp_path, rows))
        assert records[0].confidence == "unknown"


def test_serialize_parse_roundtrip(tmp_path):
    rows = [
        "GPT-3,2020-05-28,3.14e23,V100,10000,,USA,confident,false",
        'Multi,2021-01-01,1e21,"V100; TPU v3",,,"GBR;USA",unknown,true',
        "Sparse,2019-02-14,,,,,,,false",
    ]
    records, errors = parse_systems_table(write_systems(tmp_path, rows))
    assert errors == []
    out = tmp_path / "normalized.csv"
    write_csv(out, SYSTEM_COLUMNS, system_rows(records))
    again, errors = parse_systems_table(out)
    assert errors == [] and again == records


class TestRecordInvariants:
    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            record(training_flop=0.0)
        with pytest.raises(ValueError):
            record(hardware_quantity=0)
        with pytest.raises(ValueError):
            record(training_hours=-1.0)

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            record(confidence="sure")


def presence_pattern(rng):
    return record(
        name="R",
        training_flop=1e20 if rng.random() < 0.5 else None,
        hardware_names=("V100",) if rng.random() < 0.5 else None,
        hardware_quantity=8 if rng.random() < 0.5 else None,
        training_hours=24.0 if rng.random() < 0.5 else None,
        confidence=["confident", "likely", "speculative", "unknown"][rng.integers(4)],
    )


class TestCoverage:
    def test_empty_is_all_zero(self):
        summary = coverage_summary([])
        assert summary.counts == (0,) * 8
        assert summary.percentages == (0.0,) * 8

    def test_hand_counted_four_records(self):
        systems = [
            record("A", training_flop=1e20, hardware_names=("V100",),
                   hardware_quantity=8, training_hours=24.0, confidence="confident"),
            record("B", training_flop=1e21, confidence="likely"),
            record("C", hardware_names=("TPU v3",), training_hours=100.0,
                   confidence="confident"),
            record("D", confidence="unknown"),
        ]
        summary = coverage_summary(systems)
        # by hand: flop on A,B; hardware on A,C; both on A; duration on A,C;
        # quantity on A; duration&quantity on A; +hardware on A
        assert summary.counts == CoverageCounts(
            systems=4, flop=2, hardware=2, flop_and_hardware=1,
            duration=2, quantity=1, duration_and_quantity=1,
            duration_quantity_hardware=1,
        )
        assert summary.by_confidence["confident"].systems == 2
        assert summary.by_confidence["confident"].duration == 2
        assert summary.by_confidence["likely"].flop == 1
        assert summary.by_confidence["unknown"].hardware == 0
        assert summary.percentages[0] == 100.0
        assert summary.percentages[1] == 50.0

    def test_conjunction_monotonicity_random_patterns(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            systems = [presence_pattern(rng) for _ in range(rng.integers(0, 25))]
            c = coverage_summary(systems).counts
            assert c.flop_and_hardware <= min(c.flop, c.hardware)
            assert c.duration_and_quantity <= min(c.duration, c.quantity)
            assert c.duration_quantity_hardware <= min(c.duration_and_quantity, c.hardware)
            assert max(c) <= c.systems

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(CONFIDENCE_LEVELS), st.booleans(), st.booleans(),
                              st.booleans(), st.booleans()), max_size=40))
    def test_one_pass_counts_equal_four_passes_per_slice(self, patterns):
        systems = [
            record(training_flop=1e20 if flop else None,
                   hardware_names=("V100",) if hardware else None,
                   training_hours=24.0 if duration else None,
                   hardware_quantity=8 if quantity else None, confidence=level)
            for level, flop, hardware, duration, quantity in patterns
        ]

        def counts_for(systems):  # a list comprehension per presence column
            flop = [s.training_flop is not None for s in systems]
            hardware = [bool(s.hardware_names) for s in systems]
            duration = [s.training_hours is not None for s in systems]
            quantity = [s.hardware_quantity is not None for s in systems]
            return CoverageCounts(
                systems=len(systems),
                flop=sum(flop),
                hardware=sum(hardware),
                flop_and_hardware=sum(f and h for f, h in zip(flop, hardware)),
                duration=sum(duration),
                quantity=sum(quantity),
                duration_and_quantity=sum(d and q for d, q in zip(duration, quantity)),
                duration_quantity_hardware=sum(
                    d and q and h for d, q, h in zip(duration, quantity, hardware)
                ),
            )

        summary = coverage_summary(iter(systems))
        assert summary.counts == counts_for(systems)
        assert summary.by_confidence == {
            level: counts_for([s for s in systems if s.confidence == level])
            for level in CONFIDENCE_LEVELS
        }

    def test_csv_rows_layout(self):
        rows = coverage_summary([record("A", training_flop=1e20)]).csv_rows()
        assert {len(r) for r in rows} == {1 + len(COVERAGE_METRICS)}
        assert rows[0][:3] == ["number", 1, 1]
        assert rows[1][0] == "coverage_pct"
        assert [r[0] for r in rows[2:]] == ["confident", "likely", "speculative", "unknown"]


class TestEligibility:
    def test_flop_and_hardware_only_is_eligible(self):
        eligible, excluded = eligible_systems(
            [record(training_flop=1e20, hardware_names=("V100",))]
        )
        assert len(eligible) == 1 and excluded == []

    def test_duration_and_quantity_only_is_eligible(self):
        eligible, excluded = eligible_systems(
            [record(training_hours=24.0, hardware_quantity=8)]
        )
        assert len(eligible) == 1 and excluded == []

    def test_multi_hardware_excluded(self):
        eligible, excluded = eligible_systems(
            [record(training_flop=1e20, hardware_names=("V100", "TPUv3"))]
        )
        assert eligible == []
        assert excluded[0][1] == "multi-hardware"

    def test_repeated_identical_name_not_multi_hardware(self):
        eligible, _ = eligible_systems(
            [record(training_flop=1e20, hardware_names=("V100", "V100"))]
        )
        assert len(eligible) == 1

    def test_ambiguous_single_name_stays_eligible(self):
        eligible, _ = eligible_systems(
            [record(training_flop=1e20, hardware_names=("A100",))]
        )
        assert len(eligible) == 1

    def test_insufficient_data_excluded(self):
        eligible, excluded = eligible_systems(
            [record(training_flop=1e20), record(hardware_names=("V100",)), record()]
        )
        assert eligible == []
        assert all(reason == "insufficient-data" for _, reason in excluded)

    def test_partition_property_random_patterns(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            systems = [presence_pattern(rng) for _ in range(rng.integers(0, 12))]
            eligible, excluded = eligible_systems(systems)
            rebuilt = list(eligible) + [s for s, _ in excluded]
            assert sorted(id(s) for s in rebuilt) == sorted(id(s) for s in systems)
