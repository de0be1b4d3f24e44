"""Tests for the bulk CSV paths: writer bytes and the chunked reader.

The writers format rows by hand; each must write exactly the bytes that
``csv.writer`` writes for the same rows, which the reference functions below
produce the plain way. The reader parses ``streams.CHUNK_ROWS`` rows per bulk
call; the chunk tests shrink that constant to a few rows so that every case
sits on a chunk boundary.
"""

import csv
import re

import numpy as np
import pytest

from contina import harness, metrics, streams
from contina.errors import DataFormatError
from contina.harness import LEDGER_COLUMNS, read_ledger_csv
from contina.predictors import write_forecast_csv
from contina.streams import FLOWS, DemandStream, read_csv_table, read_demand_csv

# Labels that need quoting, or that only look like they might, and floats
# whose spelling is easy to get wrong.
LABELS = (1, True, "a,b", 'q"x', "a\nb", "c\rd", "#h", "007", "é", -5)
FLOATS = (-0.0, 5e-324, 1e16, 0.1 + 0.2, 2.5, 0.0)


def csv_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def demand_stream():
    n = len(LABELS)
    history = np.array([FLOATS[(k + i) % len(FLOATS)] for i in range(n) for k in range(14)])
    return DemandStream(region_ids=LABELS, history=history.reshape(n, 2, 7),
                        start=2, stop=6, times=np.arange(10, 17))


class TestWritersMatchCsvWriter:
    def test_demand(self, tmp_path):
        stream = demand_stream()
        rows = [[int(t), region, repr(float(stream.history[i, 0, p])),
                 repr(float(stream.history[i, 1, p]))]
                for p, t in zip(range(stream.start, stream.stop), stream.window_times())
                for i, region in enumerate(stream.region_ids)]
        csv_rows(tmp_path / "want.csv", ["t", "region", "inflow", "outflow"], rows)
        streams.write_demand_csv(stream, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_forecast(self, tmp_path):
        # numpy scalars as a model's output would hand them over
        rows = [(np.int64(t), region, flow, np.float64(FLOATS[t % 6]), FLOATS[(t + k) % 6])
                for t in range(4) for k, region in enumerate(LABELS) for flow in FLOWS]
        csv_rows(tmp_path / "want.csv", ["t", "region", "flow", "q_lo", "q_hi"],
                 [[int(t), r, f, repr(float(lo)), repr(float(hi))] for t, r, f, lo, hi in rows])
        write_forecast_csv(tmp_path / "got.csv", iter(rows))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_ledger(self, tmp_path):
        regions = LABELS + (" s ", "")  # the ledger keeps labels verbatim
        recs = [(t, r, f, (t + k) % 2 == 0, FLOATS[(t + k) % 6], t % 3 == k % 3)
                for k, r in enumerate(regions) for t in range(5) for f in FLOWS]
        ledger = metrics.RunLedger.from_records(recs)
        csv_rows(tmp_path / "want.csv", LEDGER_COLUMNS,
                 [[t, r, f, int(c), length, int(e)] for t, r, f, c, length, e in ledger.records])
        harness._write_ledger(ledger, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert read_ledger_csv(tmp_path / "got.csv").records == ledger.records

    @pytest.mark.parametrize("value", ["", " s ", "a,b", 'q"', "a\nb", "c\rd", 7, True, None])
    def test_csv_field_spells_a_field_as_csv_writer_does(self, tmp_path, value):
        csv_rows(tmp_path / "want.csv", ["x", "y", "z"], [["a", value, "b"]])
        got = f"x,y,z\r\na,{streams.csv_field(value)},b\r\n".encode()
        assert got == (tmp_path / "want.csv").read_bytes()


TABLE = (("t", "region", "v"), (int, str, float))


def read(path):
    return read_csv_table(path, *TABLE)


class TestChunkedReader:
    @pytest.fixture(autouse=True)
    def three_row_chunks(self, monkeypatch):
        monkeypatch.setattr(streams, "CHUNK_ROWS", 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 9])
    def test_row_counts_around_the_chunk_size(self, tmp_path, n):
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, f"r{t}", t / 4] for t in range(n)])
        table = read(path)
        assert table["t"].tolist() == list(range(n))
        assert table["region"].tolist() == [f"r{t}" for t in range(n)]
        assert table["v"].tolist() == [t / 4 for t in range(n)]

    def test_widest_label_only_in_the_last_chunk(self, tmp_path):
        path = tmp_path / "d.csv"
        labels = ["a", "b", "c", "d", "e", "f", "a much wider label, quoted"]
        csv_rows(path, TABLE[0], [[t, label, 1.0] for t, label in enumerate(labels)])
        assert read(path)["region"].tolist() == labels

    def test_quoted_line_break_across_a_chunk_boundary(self, tmp_path):
        path = tmp_path / "d.csv"
        labels = ["a", "b", "two\nlines", "c\r\nd", "e"]
        csv_rows(path, TABLE[0], [[t, label, 1.0] for t, label in enumerate(labels)])
        assert read(path)["region"].tolist() == labels

    def test_blank_lines_and_crlf_at_a_chunk_boundary(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"t,region,v\r\n0,a,1\r\n1,a,2\r\n2,a,3\r\n\r\n\r\n3,a,4\r\n4,a,5\r\n")
        table = read(path)
        assert table["t"].tolist() == [0, 1, 2, 3, 4]
        assert table["v"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("text, line", [
        # a bad number in the third chunk, after a blank line and CRLF endings
        (b"t,region,v\r\n0,a,1\r\n1,a,2\r\n2,a,3\r\n\r\n3,a,4\r\n4,a,5\r\n5,a,6\r\n6,a,x\r\n", 9),
        # a short row opening the second chunk
        (b"t,region,v\n0,a,1\n1,a,2\n2,a,3\n3,a\n", 5),
        # a row after a quoted line break in the first chunk
        (b't,region,v\n0,"a\nb",1\n1,a,2\n2,a,3\n3,a,4\n4,a,oops\n', 7),
    ])
    def test_bad_row_in_a_later_chunk_names_its_physical_line(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(DataFormatError, match=re.escape(f"d.csv:{line}: ")):
            read(path)

    @pytest.mark.parametrize("text", [b"t,region,v\n", b"t,region,v\r\n\r\n\n"])
    def test_header_only_file_has_no_records(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(DataFormatError, match="no records"):
            read(path)

    def test_demand_file_round_trips(self, tmp_path):
        stream = demand_stream()
        streams.write_demand_csv(stream, tmp_path / "d.csv")
        back = read_demand_csv(tmp_path / "d.csv")
        assert back.window_times().tolist() == stream.window_times().tolist()
        for i, region in enumerate(back.region_ids):
            k = [str(r) for r in LABELS].index(str(region))
            assert back.history[i].tolist() == stream.history[k, :, 2:6].tolist()
