from __future__ import annotations

import csv
import math
import multiprocessing
import multiprocessing.connection
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fetalguard.errors import (
    EmptyInputError,
    FetalGuardError,
    LabelingError,
    ParseError,
    StructureError,
)
from fetalguard import ingest
from fetalguard.cli import main
from fetalguard.ingest import (
    ClassLabel,
    ClinicalMetadata,
    SignalRecord,
    assign_label,
    load_collection,
    parse_record_csv,
    read_metadata_csv,
)
from oracles import reference_load_collection, reference_parse_record_csv


def test_parse_record_transcribes_rows_in_order():
    text = "time_s,fhr_bpm\n0.00,140\n0.25,141\n0.50,139\n"
    record = parse_record_csv(text, "r1")
    assert record.record_id == "r1"
    assert record.fhr.tolist() == [140.0, 141.0, 139.0]


def test_parse_record_infers_4hz_from_quarter_second_deltas():
    text = "time_s,fhr_bpm\n" + "\n".join(f"{i * 0.25},140" for i in range(8))
    record = parse_record_csv(text, "r1")
    assert record.sample_rate_hz == pytest.approx(4.0)


def test_parse_record_keeps_zero_dropout_samples_verbatim():
    record = parse_record_csv("time_s,fhr_bpm\n0.0,0\n0.25,140\n", "r1")
    assert record.fhr.tolist() == [0.0, 140.0]


def test_parse_record_malformed_cell_names_line_three():
    text = "time_s,fhr_bpm\n0.00,140\n0.25,abc\n"
    with pytest.raises(ParseError) as exc:
        parse_record_csv(text, "r1")
    assert exc.value.line == 3


def test_parse_record_wrong_column_count_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_record_csv("time_s,fhr_bpm\n0.0,140,9\n", "r1")
    assert exc.value.line == 2


def test_parse_record_non_monotone_time_is_structural():
    text = "time_s,fhr_bpm\n0.00,140\n0.50,141\n0.25,139\n"
    with pytest.raises(StructureError):
        parse_record_csv(text, "r1")


def test_parse_record_empty_body_is_empty_input():
    with pytest.raises(EmptyInputError):
        parse_record_csv("time_s,fhr_bpm\n", "r1")


def test_parse_record_bad_header_is_parse_error_at_line_one():
    with pytest.raises(ParseError) as exc:
        parse_record_csv("t,v\n0.0,140\n", "r1")
    assert exc.value.line == 1


def test_signal_record_rejects_empty_and_nonpositive_rate():
    with pytest.raises(ValueError):
        SignalRecord("r", np.array([]), 4.0)
    with pytest.raises(ValueError):
        SignalRecord("r", np.array([140.0]), 0.0)


def test_label_low_ph_and_low_apgar_is_abnormal():
    assert assign_label(ClinicalMetadata(ph=7.10, apgar1=5)) is ClassLabel.ABNORMAL


def test_label_boundary_ph_is_normal():
    # strict inequality on pH
    assert assign_label(ClinicalMetadata(ph=7.20, apgar1=5)) is ClassLabel.NORMAL


def test_label_boundary_apgar_is_normal():
    assert assign_label(ClinicalMetadata(ph=7.10, apgar1=7)) is ClassLabel.NORMAL


def test_label_requires_both_conditions():
    assert assign_label(ClinicalMetadata(ph=7.10, apgar1=8)) is ClassLabel.NORMAL
    assert assign_label(ClinicalMetadata(ph=7.30, apgar1=3)) is ClassLabel.NORMAL


def test_label_missing_values_raise():
    with pytest.raises(LabelingError):
        assign_label(ClinicalMetadata(ph=7.10, apgar1=None))
    with pytest.raises(LabelingError):
        assign_label(ClinicalMetadata(ph=None, apgar1=4))


def test_label_fuzz_any_clearing_value_is_normal():
    rng = np.random.default_rng(7)
    for _ in range(500):
        ph = float(rng.uniform(6.5, 7.8))
        apgar = int(rng.integers(0, 11))
        label = assign_label(ClinicalMetadata(ph=ph, apgar1=apgar))
        if ph >= 7.20 or apgar >= 7:
            assert label is ClassLabel.NORMAL
        else:
            assert label is ClassLabel.ABNORMAL


def test_metadata_validates_ranges():
    with pytest.raises(ValueError):
        ClinicalMetadata(ph=5.0, apgar1=5)
    with pytest.raises(ValueError):
        ClinicalMetadata(ph=7.1, apgar1=11)


def _write_signal(path, n=10, value=140.0):
    rows = ["time_s,fhr_bpm"] + [f"{i * 0.25},{value}" for i in range(n)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_load_collection_reports_orphan_signal(tmp_path):
    signals = tmp_path / "signals"
    signals.mkdir()
    _write_signal(signals / "a.csv")
    _write_signal(signals / "orphan.csv")
    (tmp_path / "meta.csv").write_text(
        "record_id,ph,apgar1\na,7.10,5\n", encoding="utf-8"
    )
    result = load_collection(signals, tmp_path / "meta.csv")
    assert [r.record.record_id for r in result.records] == ["a"]
    assert result.records[0].label is ClassLabel.ABNORMAL
    assert [s.record_id for s in result.skipped] == ["orphan"]


def test_load_collection_skips_unlabelable_records(tmp_path):
    signals = tmp_path / "signals"
    signals.mkdir()
    _write_signal(signals / "a.csv")
    _write_signal(signals / "b.csv")
    (tmp_path / "meta.csv").write_text(
        "record_id,ph,apgar1\na,7.10,\nb,7.30,9\n", encoding="utf-8"
    )
    result = load_collection(signals, tmp_path / "meta.csv")
    assert [r.record.record_id for r in result.records] == ["b"]
    assert result.skipped[0].record_id == "a"
    assert "apgar1" in result.skipped[0].reason


def test_load_collection_skips_a_signal_that_is_not_utf8_as_score_refuses_it(tmp_path):
    signals = tmp_path / "signals"
    signals.mkdir()
    for name in ("a", "b", "c"):
        _write_signal(signals / f"{name}.csv")
    bad = signals / "b.csv"
    bad.write_bytes(bad.read_bytes() + b"1e9,\xff\n")
    (tmp_path / "meta.csv").write_text(
        "record_id,ph,apgar1\na,7.30,9\nb,7.30,9\nc,7.10,5\n", encoding="utf-8"
    )
    result = load_collection(signals, tmp_path / "meta.csv")
    assert [r.record.record_id for r in result.records] == ["a", "c"]
    assert [s.record_id for s in result.skipped] == ["b"]
    assert result.skipped[0].reason.startswith(f"{bad}: not UTF-8 text")


def test_load_collection_empty_directory_fails(tmp_path):
    signals = tmp_path / "signals"
    signals.mkdir()
    (tmp_path / "meta.csv").write_text("record_id,ph,apgar1\n", encoding="utf-8")
    with pytest.raises(EmptyInputError):
        load_collection(signals, tmp_path / "meta.csv")


def test_load_collection_is_order_insensitive(tmp_path):
    meta_lines = ["record_id,ph,apgar1"]
    for name, ph, apgar in (("r1", 7.1, 4), ("r2", 7.3, 9), ("r3", 7.05, 2)):
        meta_lines.append(f"{name},{ph},{apgar}")
    for creation_order in (("r1", "r2", "r3"), ("r3", "r1", "r2")):
        base = tmp_path / "-".join(creation_order)
        signals = base / "signals"
        signals.mkdir(parents=True)
        for name in creation_order:
            _write_signal(signals / f"{name}.csv")
        (base / "meta.csv").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
        result = load_collection(signals, base / "meta.csv")
        loaded = sorted((r.record.record_id, r.label) for r in result.records)
        assert loaded == [
            ("r1", ClassLabel.ABNORMAL),
            ("r2", ClassLabel.NORMAL),
            ("r3", ClassLabel.ABNORMAL),
        ]


def test_metadata_reader_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("record_id,ph,apgar1\na,7.1,5\na,7.2,8\n", encoding="utf-8")
    with pytest.raises(StructureError):
        read_metadata_csv(path)


def test_metadata_reader_accepts_full_layout(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text(
        "record_id,ph,apgar1,pco2,po2,bdecf\na,7.1,5,6.2,,3.1\n", encoding="utf-8"
    )
    meta = read_metadata_csv(path)["a"]
    assert meta.pco2 == pytest.approx(6.2)
    assert meta.po2 is None
    assert meta.bdecf == pytest.approx(3.1)


FORK = hasattr(os, "fork")
# 1 reads the files in this process; more forks min(cores, files) workers
CORE_COUNTS = (1, 2, 3, 5) if FORK else (1,)
needs_fork = pytest.mark.skipif(not FORK, reason="signal files are read in forked workers only where fork exists")


def test_load_collection_returns_float64_signals_that_own_their_data(tmp_path, set_cores):
    signals = tmp_path / "signals"
    signals.mkdir()
    _write_signal(signals / "a.csv", n=40)
    (signals / "b.csv").write_text('time_s,fhr_bpm\n0.0,"140"\n0.25,141\n', encoding="utf-8")
    _write_signal(signals / "c.csv", n=4800)  # 20 minutes at 4 Hz
    (tmp_path / "meta.csv").write_text(
        "record_id,ph,apgar1\na,7.10,5\nb,7.30,9\nc,7.30,9\n", encoding="utf-8"
    )
    for cores in CORE_COUNTS:
        set_cores(cores)
        result = load_collection(signals, tmp_path / "meta.csv")
        assert [item.record.fhr.size for item in result.records] == [40, 2, 4800]
        for item in result.records:
            fhr = item.record.fhr
            assert fhr.dtype == np.float64 and fhr.ndim == 1
            assert fhr.base is None  # no view that keeps the time column, or a message, alive
            assert fhr.flags.writeable


def _mixed_collection(tmp_path):
    """(signals dir, metadata file) of good files among one of each kind that load_collection skips."""
    signals = tmp_path / "signals"
    signals.mkdir()
    meta = ["record_id,ph,apgar1"]
    for i in range(11):
        _write_signal(signals / f"good{i:02d}.csv", n=30 + i, value=120.0 + i)
        meta.append(f"good{i:02d},{7.05 if i % 3 == 0 else 7.30},{4 if i % 3 == 0 else 9}")
    _write_signal(signals / "long.csv", n=4800)
    _write_signal(signals / "orphan.csv")
    (signals / "latin1.csv").write_bytes(b"time_s,fhr_bpm\n0.0,140\n0.25,1\xe94\n")
    (signals / "quoted.csv").write_text('time_s,fhr_bpm\n0.0,"140"\n"0.25",141\n', encoding="utf-8")
    (signals / "backwards.csv").write_text("time_s,fhr_bpm\n0.0,140\n0.5,141\n0.25,139\n", encoding="utf-8")
    _write_signal(signals / "unlabelable.csv")
    meta += ["long,7.30,9", "latin1,7.30,9", "quoted,7.10,3", "backwards,7.30,9", "unlabelable,,9"]
    (tmp_path / "meta.csv").write_text("\n".join(meta) + "\n", encoding="utf-8")
    return signals, tmp_path / "meta.csv"


def _contents(result):
    records = [
        (r.record.record_id, r.label, r.record.fhr.tobytes(), r.record.sample_rate_hz, r.record.metadata)
        for r in result.records
    ]
    return records, result.skipped


def test_load_collection_matches_the_serial_loop_on_every_core_count(tmp_path, set_cores):
    signals, meta = _mixed_collection(tmp_path)
    expected = _contents(reference_load_collection(signals, meta))
    assert len(expected[0]) == 13 and len(expected[1]) == 4  # quoted and long load; 4 kinds are skipped
    for cores in CORE_COUNTS:
        set_cores(cores)
        assert _contents(load_collection(signals, meta)) == expected


def test_load_collection_raises_the_first_error_in_file_order(tmp_path, set_cores):
    signals, meta = _mixed_collection(tmp_path)
    (signals / "good03.csv").unlink()
    (signals / "good03.csv").mkdir()
    (signals / "good08.csv").unlink()
    (signals / "good08.csv").mkdir()
    for cores in CORE_COUNTS:
        set_cores(cores)
        with pytest.raises(IsADirectoryError) as exc:
            load_collection(signals, meta)
        assert exc.value.filename == str(signals / "good03.csv")
        assert not multiprocessing.active_children()


@needs_fork
def test_a_worker_that_dies_mid_way_ends_ingest_with_one_line(tmp_path, monkeypatch, capsys, set_cores):
    signals, meta = _mixed_collection(tmp_path)
    read_signal = ingest._read_signal

    def dies_at_good05(path):
        if path.stem == "good05":
            os._exit(3)
        return read_signal(path)

    monkeypatch.setattr(ingest, "_read_signal", dies_at_good05)
    set_cores(3)
    assert main(["ingest", "--signals", str(signals), "--metadata", str(meta)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a signal-reading worker exited with code 3 before sending ") and err.count("\n") == 1, err
    assert not multiprocessing.active_children()


@needs_fork
def test_an_interrupt_while_waiting_for_workers_ends_them(tmp_path, monkeypatch, set_cores):
    signals, meta = _mixed_collection(tmp_path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", interrupted)
    set_cores(3)
    with pytest.raises(KeyboardInterrupt):
        load_collection(signals, meta)
    assert not multiprocessing.active_children()


def test_parse_record_bare_carriage_return_in_a_row_is_parse_error():
    # csv refuses it; files reach the parser through read_text, which turns it into a line end
    with pytest.raises(ParseError, match="malformed CSV") as exc:
        parse_record_csv("time_s,fhr_bpm\n0.0,140\r0.25,141\n", "r1")
    assert exc.value.line == 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "times",
    [["0", "nan", "1"], ["0", "inf"], ["-inf", "0"], ["-1e308", "1e308"], ["0", "1e-320"]],
)
def test_parse_record_rejects_a_sample_rate_that_is_not_finite(times):
    text = "time_s,fhr_bpm\n" + "".join(f"{t},140\n" for t in times)
    with pytest.raises(StructureError, match="sample rate"):
        parse_record_csv(text, "r1")


def test_parse_record_header_only_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyInputError):
            parse_record_csv("time_s,fhr_bpm\n\n", "r1")


def _assert_parse_matches_reference(text: str) -> None:
    """Same record bits as the csv row loop, or the same typed error at the same line."""
    try:
        expected = reference_parse_record_csv(text, "r")
    except FetalGuardError as exc:
        with pytest.raises(FetalGuardError) as got:
            parse_record_csv(text, "r")
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "line", None) == getattr(exc, "line", None)
        return
    except (csv.Error, ValueError):
        # the row loop's own defects (a csv error, a zero or NaN sample rate): a typed error
        with pytest.raises((ParseError, StructureError)):
            parse_record_csv(text, "r")
        return
    if not math.isfinite(expected.sample_rate_hz):
        with pytest.raises(StructureError):
            parse_record_csv(text, "r")
        return
    record = parse_record_csv(text, "r")
    assert record.fhr.dtype == expected.fhr.dtype
    assert record.fhr.tobytes() == expected.fhr.tobytes()
    assert record.sample_rate_hz == expected.sample_rate_hz


HEADER = "time_s,fhr_bpm\n"
# cells that float() reads one way and a C number parser might read another
TRICKY_CELLS = [
    "1_0", " 7 ", "+3", ".5", "5.", "1E2", "nan", "-nan", "inf", "-Infinity", "1e400",
    "1e-320", "0x10", "1d5", "", " ", '"140"', '"1\n2"', "\x0c1", "1\x1c", "\xa01", "\u0661",
]
cells = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(TRICKY_CELLS),
    st.text(alphabet=st.sampled_from(list('0123456789.,eE+-_ \t"\r\n\x0c\x1c\x1fnaif')), max_size=6),
)


@st.composite
def signal_texts(draw):
    """A header, then rows: mostly increasing times and numeric cells, some of them broken."""
    n = draw(st.integers(0, 8))
    times = sorted(draw(st.lists(st.floats(0, 1e4), min_size=n, max_size=n, unique=True)))
    rows = [f"{t!r},{draw(st.integers(0, 240))}" for t in times]
    for _ in range(draw(st.integers(0, 2))):
        row = ",".join(draw(st.lists(cells, min_size=0, max_size=3)))
        rows.insert(draw(st.integers(0, len(rows))), row)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))
    header = draw(st.sampled_from([HEADER, "time_s,fhr_bpm\r\n", "TIME_S, fhr_bpm\n"]))
    return header + newline.join(rows) + end


@settings(max_examples=400, deadline=None, derandomize=True)
@given(signal_texts())
@example(HEADER + "0.0,1\x0c0.25,2\n")  # \x0c inside a row: one row of three cells
@example(HEADER + "0.0,1_0\n0.25,1_1\n")  # underscores, which float() accepts
@example(HEADER + "0.0,140\n   \n0.25,141\n")  # a whitespace-only line is skipped
@example(HEADER + '"0.0","140"\n0.25,"141"\n')  # quoted cells
@example('time_s,fhr_bpm\r\n0.0,140\r\n0.25,141\r\n')  # \r\n line ends
@example(HEADER)  # header only
@example(HEADER + '"0\n1",140\n2,141\n')  # a quoted cell spanning two lines is not 01
@example(HEADER + "0.0,140\r0.25,141\n")  # a bare carriage return inside a row
@example(HEADER + "0.0,\x1c140\n0.25,141\n")  # a separator character numpy takes as space
@example(HEADER + "0.0,140\n0.0,141\n")  # time not increasing
def test_parse_record_matches_the_reference_row_loop(text):
    _assert_parse_matches_reference(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(max_size=60))
def test_parse_record_matches_the_reference_on_any_text(text):
    _assert_parse_matches_reference(HEADER + text)
    _assert_parse_matches_reference(text)


@pytest.fixture(scope="module")
def metadata_file(tmp_path_factory):
    return tmp_path_factory.mktemp("metadata-fuzz") / "metadata.csv"


METADATA_HEADERS = [
    "record_id,ph,apgar1", "record_id,ph,apgar1,pco2,po2,bdecf", "RECORD_ID, ph ,apgar1", "record_id,ph", "",
]
METADATA_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "7.1", "7.25", "6.5", "7.8", "6", "6.0", "10", "11", "-1", "nan", "inf", "1e400",
         "1_0", '"7.1"', '"7\n1"', "x", "\r", "\x00", "\ud800"]
    ),
    st.floats().map(repr),
    st.integers(-20, 20).map(str),
    st.text(max_size=4),
)


@st.composite
def metadata_texts(draw):
    """A header, then rows of mostly the header's width: ids, some repeated, and numeric or broken cells."""
    header = draw(st.sampled_from(METADATA_HEADERS))
    width = len(header.split(","))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        record_id = draw(st.sampled_from(["r1", "r2", " r3 ", "", "r1"]))
        n_cells = draw(st.sampled_from([width - 1, width - 1, width - 1, max(width - 2, 0), width]))
        cells = draw(st.lists(METADATA_CELLS, min_size=n_cells, max_size=n_cells))
        rows.append(",".join([record_id] + cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header] + rows) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(metadata_texts(), st.binary(max_size=3))
@example("record_id,ph,apgar1\nr1,7.1,5\nr2,7.30,8\n", b"")
@example("record_id,ph,apgar1\nr1,7.1\r5\n", b"")  # a bare carriage return inside a row
@example("record_id,ph,apgar1\nr1,7.1,5\n", b"\xff")  # not UTF-8
@example("record_id,ph,apgar1\nr1," + "7" * 200_000 + ",5\n", b"")  # a cell beyond csv's size limit
def test_read_metadata_is_a_typed_error_or_valid_metadata(metadata_file, text, tail):
    metadata_file.unlink(missing_ok=True)  # a new file: truncating one can cost tens of ms per example
    metadata_file.write_bytes(text.encode("utf-8", "surrogatepass") + tail)
    try:
        metadata = read_metadata_csv(metadata_file)
    except FetalGuardError:
        return
    for record_id, meta in metadata.items():
        assert record_id and record_id == record_id.strip()
        assert meta.ph is None or 6.5 <= meta.ph <= 7.8
        assert meta.apgar1 is None or (type(meta.apgar1) is int and 0 <= meta.apgar1 <= 10)
        assert all(v is None or type(v) is float for v in (meta.pco2, meta.po2, meta.bdecf))
