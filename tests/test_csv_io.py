"""Tests for the bulk CSV paths: writer bytes and the chunked reader.

The writers format rows by hand; each must write exactly the bytes that
``csv.writer`` writes for the same rows, which the reference functions below
produce the plain way. The reader parses ``streams.CHUNK_ROWS`` rows per bulk
call; the chunk tests shrink that constant to a few rows so that every case
sits on a chunk boundary. A large file is cut into byte shares; the share
tests drop the per-share floor to 1 byte and fake 1, 2 or 3 CPUs. A large
ledger is written in region shares; those tests write ledgers of three
per-share floors and fake 1, 2 or 3 CPUs too.
"""

import csv
import hashlib
import os
import random
import re
import threading

import numpy as np
import pytest

from contina import harness, metrics, shares, streams
from contina.errors import DataFormatError
from contina.harness import LEDGER_COLUMNS, read_ledger_csv
from contina.predictors import FileBackedForecasts, write_forecast_csv
from contina.streams import (
    FLOWS, DemandStream, parse_region, read_csv_table, read_demand_csv, region_codes,
    region_sort_key,
)
from fake_cpus import forks, refuse_fork, use_cpus  # noqa: F401 (forks is a fixture)
from ledger_rows import records

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
                 [[t, r, f, int(c), length, int(e)] for t, r, f, c, length, e in records(ledger)])
        harness._write_ledger(ledger, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert records(read_ledger_csv(tmp_path / "got.csv")) == records(ledger)

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
        # a t just past the int64 range, each way, after one at its bound
        (b"t,region,v\n0,a,1\n1,a,2\n9223372036854775807,a,3\n9223372036854775808,a,4\n", 5),
        (b"t,region,v\n0,a,1\n1,a,2\n-9223372036854775808,a,3\n-9223372036854775809,a,4\n", 5),
    ], ids=["bad-number", "short-row", "after-quoted-break", "int64-overflow",
            "int64-underflow"])
    def test_bad_row_in_a_later_chunk_names_its_physical_line(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(DataFormatError, match=re.escape(f"d.csv:{line}: ")):
            read(path)

    @pytest.mark.parametrize("rows, message", [
        (12_000, "field larger than field limit (131072)"),
        (20, "expected 3 fields, got 2"),
    ], ids=["past-the-field-limit", "to-the-end"])
    def test_unclosed_quote_names_the_line_it_opens_on(self, tmp_path, rows, message):
        # The quoted field runs on to the end of the file: past csv's field
        # size limit, or within it as one record ending on the last line.
        path = tmp_path / "d.csv"
        body = b"".join(b"%d,a,%d\r\n" % (t, t) for t in range(2, rows))
        path.write_bytes(b't,region,v\r\n0,a,1\r\n1,"b,2\r\n' + body)
        assert (path.stat().st_size > 1 << 17) == (rows > 20)
        with pytest.raises(DataFormatError) as error:
            read(path)
        assert str(error.value) == f"{path}:3: {message}"

    def test_unclosed_quote_in_the_header_names_line_1(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b't,"region,v\r\n' + b"".join(b"%d,a,%d\r\n" % (t, t)
                                                       for t in range(12_000)))
        with pytest.raises(DataFormatError) as error:
            read(path)
        assert str(error.value) == f"{path}:1: field larger than field limit (131072)"

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

    def loadtxt_widths(self, monkeypatch):
        """The label column widths of each ``np.loadtxt`` call, which still parses."""
        loadtxt, widths = np.loadtxt, []

        def counted(*args, dtype, **kwargs):
            dtype = np.dtype(dtype)
            widths.append({name: dtype[name].itemsize // 4 for name in dtype.names
                           if dtype[name].kind == "U"})
            return loadtxt(*args, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        return widths

    def test_labels_shorter_than_the_width_are_parsed_once(self, tmp_path, monkeypatch):
        w = streams.LABEL_WIDTH
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, "x" * (w - 1 - t % 3), t] for t in range(8)])
        widths = self.loadtxt_widths(monkeypatch)
        assert read(path)["region"].dtype == np.dtype(f"<U{w - 1}")
        assert widths == [{"region": w}] * 3

    def test_a_label_that_fills_the_width_doubles_it_from_the_first_row(self, tmp_path,
                                                                         monkeypatch):
        w = streams.LABEL_WIDTH
        labels = ["a"] * 7 + ["y" * (2 * w)]  # only the third chunk holds the long label
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, label, t] for t, label in enumerate(labels)])
        widths = self.loadtxt_widths(monkeypatch)
        table = read(path)
        assert table["region"].tolist() == labels
        assert table["region"].dtype == np.dtype(f"<U{2 * w}")
        # Three chunks at w, three at 2 * w, whose longest label fills it too, then three.
        assert widths == [{"region": k * w} for k in (1, 1, 1, 2, 2, 2, 4, 4, 4)]

    def test_each_label_column_has_its_own_width(self, tmp_path, monkeypatch):
        w = streams.LABEL_WIDTH
        path = tmp_path / "f.csv"
        csv_rows(path, ("t", "region", "flow", "q_lo", "q_hi"),
                 [[t, "r" * (w + t), FLOWS[t % 2], 1, 2] for t in range(5)])
        widths = self.loadtxt_widths(monkeypatch)
        table = read_csv_table(path, ("t", "region", "flow", "q_lo", "q_hi"),
                               (int, str, str, float, float))
        assert table["region"].tolist() == ["r" * (w + t) for t in range(5)]
        assert table["flow"].dtype == np.dtype("<U3")
        assert widths == [{"region": k * w, "flow": w} for k in (1, 2, 2)]

    @pytest.mark.parametrize("text, line", [
        (b"t,region,v\n0,a,1\n1,a\x00b,2\n", 3),
        (b"t,region,v\n0,a,1\n\n1,b,2\x00\n", 4),
        (b"t,reg\x00ion,v\n0,a,1\n", 1),
    ], ids=["in-a-label", "in-a-number", "in-the-header"])
    def test_nul_byte_is_refused_at_its_line(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(DataFormatError, match=re.escape(f"d.csv:{line}: NUL byte")):
            read(path)


# Labels that need no quoting: multi-byte UTF-8, and a wide one, last, that
# only the last share of a ledger holds.
SHARE_LABELS = (7, "é", "日本語", "ß" * 3, "-5", "a much wider label than the others")
FORMATS = {
    "demand": (("t", "region", "inflow", "outflow"), (int, str, float, float), True),
    "forecast": (("t", "region", "flow", "q_lo", "q_hi"), (int, str, str, float, float), True),
    "ledger": (tuple(LEDGER_COLUMNS), (int, str, str, int, float, int), False),
}


class TestCsvShares:
    """Files cut into byte shares parse to the one-pass table, bit for bit."""

    @pytest.fixture(autouse=True)
    def one_byte_floor(self, monkeypatch):
        monkeypatch.setattr(streams, "SHARE_MIN_BYTES", 1)

    def by_shares(self, monkeypatch, path, columns=TABLE[0], types=TABLE[1], strip=True):
        """The table read with 1, 2 and 3 usable CPUs."""
        tables = []
        for k in (1, 2, 3):
            use_cpus(monkeypatch, k)
            tables.append(read_csv_table(path, columns, types, strip))
        return tables

    def assert_same(self, tables):
        for table in tables[1:]:
            assert list(table) == list(tables[0])
            for name, column in table.items():
                assert column.dtype == tables[0][name].dtype
                assert column.tobytes() == tables[0][name].tobytes()

    def write_format(self, path, name):
        stream = DemandStream(region_ids=SHARE_LABELS,
                              history=np.resize(FLOATS, (len(SHARE_LABELS), 2, 40)))
        if name == "demand":
            streams.write_demand_csv(stream, path)
        elif name == "forecast":
            write_forecast_csv(path, [(t, region, flow, FLOATS[t % 6], FLOATS[(t + 1) % 6])
                                      for t in range(40) for region in stream.region_ids
                                      for flow in FLOWS])
        else:
            recs = [(t, r, f, (t + k) % 2 == 0, FLOATS[(t + k) % 6], t % 3 == k % 3)
                    for k, r in enumerate(stream.region_ids) for t in range(40) for f in FLOWS]
            harness._write_ledger(metrics.RunLedger.from_records(recs), path)

    @pytest.mark.parametrize("chunk_rows", [3, streams.CHUNK_ROWS])
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_formats_read_the_same_in_every_share_count(self, tmp_path, monkeypatch, forks,
                                                        name, chunk_rows):
        monkeypatch.setattr(streams, "CHUNK_ROWS", chunk_rows)
        path = tmp_path / f"{name}.csv"
        self.write_format(path, name)
        assert b'"' not in path.read_bytes()
        tables = self.by_shares(monkeypatch, path, *FORMATS[name])
        self.assert_same(tables)
        assert len(forks) == 1 + 2
        assert tables[0]["region"].dtype.itemsize > np.dtype("<U20").itemsize

    def cut_sweep(self, tmp_path, monkeypatch, body, feature):
        """Read ``body`` behind a row padded by 1..24 bytes, so that a cut meets ``feature``.

        The table is ``t,v,region``, so a label ends each line.
        """
        columns, types = ("t", "v", "region"), (int, float, str)
        met = False
        for pad in range(1, 25):
            path = tmp_path / f"pad{pad}.csv"
            raw = f"t,v,region\r\n0,1,{'p' * pad}\r\n".encode() + body
            path.write_bytes(raw)
            for k in (2, 3):
                use_cpus(monkeypatch, k)
                met = met or any(feature in raw[c - len(feature):c + len(feature)]
                                 for c in streams._share_cuts(raw)[1:-1])
            self.assert_same(self.by_shares(monkeypatch, path, columns, types))
        assert met, "no cut fell next to the feature"

    def test_blank_lines_and_crlf_at_a_cut(self, tmp_path, monkeypatch):
        rows = b"".join(b"%d,%d,r\r\n" % (t, t) for t in range(1, 9))
        self.cut_sweep(tmp_path, monkeypatch, rows + b"\r\n\n\r\n" + rows, b"\n\r\n")

    def test_share_of_blank_lines_only(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "d.csv"
        raw = b"t,region,v\n0,a,1\n" + b"\n" * 60 + b"1,b,2\n"
        path.write_bytes(raw)
        use_cpus(monkeypatch, 3)
        cuts = streams._share_cuts(raw)
        assert any(not raw[a:b].strip() for a, b in zip(cuts, cuts[1:]))
        tables = self.by_shares(monkeypatch, path)
        self.assert_same(tables)
        assert tables[2]["region"].tolist() == ["a", "b"]
        assert forks

    def test_multibyte_labels_next_to_a_cut(self, tmp_path, monkeypatch):
        rows = "".join(f"{t},{t},{'日本é'[t % 3] * (t % 4 + 1)}\r\n" for t in range(1, 13))
        self.cut_sweep(tmp_path, monkeypatch, rows.encode(), "本\r\n".encode())

    def test_bare_cr_inside_the_body_reads_the_same(self, tmp_path, monkeypatch):
        rows = b"".join(b"%d,%d,r\r" % (t, t) for t in range(1, 9))
        self.cut_sweep(tmp_path, monkeypatch, rows + b"9,9,r\n\r10,10,s\r\n" + rows, b"\n\r")

    @pytest.mark.parametrize("raw", [
        b"t,region,v\r0,a,1\r1,b,2\r2,c,3\r",
        b"t,region,v\r0,a,1\n1,b,2\n2,c,3\n",
        b't,region,v\n0,"a",1\n1,b,2\n2,c,3\n',
        b't,region,v\n0,a,1\n1,b,2\n2,c,3\n4,d"e,5\n',
    ], ids=["bare-cr", "bare-cr-header", "quoted", "quote-byte"])
    def test_bare_cr_or_quote_byte_file_is_one_share(self, tmp_path, monkeypatch, raw):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        use_cpus(monkeypatch, 1)
        want = read(path)
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse_fork)
        self.assert_same([want, read(path)])

    @pytest.mark.parametrize("last, message", [
        (b"98,a,x\r\n", "v must be a number, got 'x'"),
        (b"98,a\r\n", "expected 3 fields, got 2"),
        (b"99999999999999999999,a,1\r\n", "t must be an integer, got '99999999999999999999'"),
    ], ids=["bad-number", "field-count", "int-overflow"])
    def test_bad_row_in_the_last_share_names_its_physical_line(self, tmp_path, monkeypatch,
                                                                forks, last, message):
        path = tmp_path / "d.csv"
        rows = b"".join(b"%d,a,%d\r\n\r\n" % (t, t) for t in range(30))
        path.write_bytes(b"t,region,v\r\n" + rows + last)
        messages = set()
        for k in (1, 2, 3):
            use_cpus(monkeypatch, k)
            with pytest.raises(DataFormatError, match=re.escape(message)) as error:
                read(path)
            messages.add(str(error.value))
        assert messages == {f"{path}:62: {message}"}
        assert len(forks) == 1 + 2

    @pytest.mark.parametrize("where", ["first-chunk", "last-chunk", "one-share"])
    @pytest.mark.parametrize("extra", [-1, 0, 1, None], ids=["w-1", "w", "w+1", "2w+1"])
    def test_label_widths_around_the_parse_width(self, tmp_path, monkeypatch, forks,
                                                 extra, where):
        monkeypatch.setattr(streams, "CHUNK_ROWS", 3)
        w = streams.LABEL_WIDTH
        long = "L" * (2 * w + 1) if extra is None else "L" * (w + extra)
        labels = [f"r{t % 4}" for t in range(40)]
        at = {"first-chunk": 0, "last-chunk": 39, "one-share": 20}[where]
        labels[at] = long
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, label, t] for t, label in enumerate(labels)])
        if where == "one-share":
            raw = path.read_bytes()
            use_cpus(monkeypatch, 3)
            cuts = streams._share_cuts(raw)
            held = [long.encode() in raw[a:b] for a, b in zip(cuts, cuts[1:])]
            assert held == [False, True, False]
        tables = self.by_shares(monkeypatch, path)
        self.assert_same(tables)
        assert tables[0]["region"].tolist() == labels
        assert tables[0]["region"].dtype == np.dtype(f"<U{len(long)}")
        assert len(forks) == 1 + 2

    @pytest.mark.parametrize("k", [5, 6, 11])
    def test_multibyte_label_across_the_width(self, tmp_path, monkeypatch, forks, k):
        label = "日本語" * k  # 3 k characters, 9 k bytes
        rows = [[t, label if t % 7 == 3 else "é", t] for t in range(30)]
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], rows)
        tables = self.by_shares(monkeypatch, path)
        self.assert_same(tables)
        assert tables[0]["region"].tolist() == [row[1] for row in rows]
        assert tables[0]["region"].dtype == np.dtype(f"<U{3 * k}")
        assert len(forks) == 1 + 2

    def test_file_below_the_floor_never_forks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(streams, "SHARE_MIN_BYTES", 1 << 20)
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, "r", t] for t in range(1000)])
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse_fork)
        assert read(path)["t"].tolist() == list(range(1000))

    def test_no_fork_while_another_thread_is_alive(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, "r", t] for t in range(100)])
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            table = read(path)
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert table["t"].tolist() == list(range(100))

    def test_no_child_outlives_a_parse(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, "r", t] for t in range(100)])
        use_cpus(monkeypatch, 3)
        read(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        path.write_bytes(path.read_bytes() + b"100,r,x\r\n")
        with pytest.raises(DataFormatError):
            read(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) == 2 + 2


# Labels that need quoting, and ones that only look like they might.
LEDGER_LABELS = LABELS + (" s ", "")


def share_ledger(horizon):
    """A ledger of ``LEDGER_LABELS`` over ``horizon`` steps, spelling every FLOATS value."""
    shape = (len(LEDGER_LABELS), horizon, 2)
    k = np.arange(np.prod(shape)).reshape(shape)
    return metrics.RunLedger(LEDGER_LABELS, np.arange(horizon) * 3 - 7, k % 2 == 0,
                             np.resize(FLOATS, shape), k % 3 == 0)


def rows_of(ledger):
    return 2 * ledger.n_regions * ledger.horizon


def csv_writer_bytes(path, ledger):
    """The bytes that ``csv.writer`` writes for ``ledger``'s rows."""
    csv_rows(path, LEDGER_COLUMNS,
             [[t, r, f, int(c), length, int(e)] for t, r, f, c, length, e in records(ledger)])
    return path.read_bytes()


class TestLedgerShares:
    """ledger.csv formatted in per-CPU region shares holds the one-process bytes."""

    @pytest.fixture
    def big(self):
        """The smallest ``share_ledger`` that holds three shares' floors of rows."""
        per_step = 2 * len(LEDGER_LABELS)
        ledger = share_ledger(-(-3 * harness.LEDGER_SHARE_MIN_ROWS // per_step))
        assert rows_of(ledger) >= 3 * harness.LEDGER_SHARE_MIN_ROWS
        return ledger

    def test_every_share_count_writes_the_csv_writer_bytes(self, tmp_path, monkeypatch, big,
                                                            forks):
        want = csv_writer_bytes(tmp_path / "want.csv", big)
        for k in (3, 2, 1):
            use_cpus(monkeypatch, k)
            if k == 1:
                assert len(forks) == 2 + 1
                monkeypatch.setattr(os, "fork", refuse_fork)
            digest = harness._write_ledger(big, tmp_path / f"got{k}.csv")
            assert (tmp_path / f"got{k}.csv").read_bytes() == want
            assert digest == hashlib.sha256(want).hexdigest()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_ledger_below_two_floors_never_forks(self, tmp_path, monkeypatch):
        per_step = 2 * len(LEDGER_LABELS)
        small = share_ledger((2 * harness.LEDGER_SHARE_MIN_ROWS - 1) // per_step)
        assert rows_of(small) < 2 * harness.LEDGER_SHARE_MIN_ROWS
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse_fork)
        harness._write_ledger(small, tmp_path / "got.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == csv_writer_bytes(tmp_path / "want.csv", small)

    def test_floor_counts_rows_per_share(self, tmp_path, monkeypatch, forks):
        ledger = share_ledger(5)
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "LEDGER_SHARE_MIN_ROWS", rows_of(ledger) // 2 + 1)
        harness._write_ledger(ledger, tmp_path / "one.csv")
        assert not forks
        monkeypatch.setattr(harness, "LEDGER_SHARE_MIN_ROWS", rows_of(ledger) // 2)
        harness._write_ledger(ledger, tmp_path / "two.csv")
        assert len(forks) == 1
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["parent", "middle", "last"])
    def test_failing_share_raises_before_the_ledger_exists(self, tmp_path, monkeypatch, big,
                                                           failing):
        use_cpus(monkeypatch, 3)
        starts = [r.start for r in shares.share_ranges(big.n_regions, rows_of(big),
                                                        harness.LEDGER_SHARE_MIN_ROWS)]
        rows = harness._ledger_rows

        def fail_one(ledger, t_flow, regions):
            if regions.start == starts[failing]:
                raise ValueError(f"share at region {regions.start} failed")
            return rows(ledger, t_flow, regions)

        monkeypatch.setattr(harness, "_ledger_rows", fail_one)
        with pytest.raises(ValueError, match=f"^share at region {starts[failing]} failed$"):
            harness._write_ledger(big, tmp_path / "ledger.csv")
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_long_flow_label_is_named_in_full(tmp_path):
    flow = "outward-" * streams.LABEL_WIDTH
    path = tmp_path / "f.csv"
    csv_rows(path, ("t", "region", "flow", "q_lo", "q_hi"),
             [[0, "a", "in", 1, 2], [0, "a", "out", 1, 2], [1, "a", flow, 1, 2]])
    with pytest.raises(DataFormatError) as error:
        FileBackedForecasts(path)
    assert error.value.exit_code == 3
    assert str(error.value) == f"{path}:4: flow must be in/out, got {flow!r}"


def unique_codes(labels):
    """``region_codes`` spelled with ``np.unique`` over every row."""
    unique, codes = np.unique(labels, return_inverse=True)
    parsed = [parse_region(s) for s in unique.tolist()]
    region_ids = sorted(parsed, key=region_sort_key)
    index = {r: i for i, r in enumerate(region_ids)}
    return np.array([index[r] for r in parsed], dtype=np.intp)[codes], region_ids


class TestRegionCodes:
    REGIONS = ["007", "7", "-5", "b", "a", "10", "9", " x", "日本"]

    @pytest.mark.parametrize("order", ["shuffled", "region-major", "time-major"])
    def test_codes_match_every_row_spelling(self, order):
        steps = 6
        if order == "region-major":
            rows = [r for r in self.REGIONS for _ in range(steps) for _ in FLOWS]
        elif order == "time-major":
            rows = [r for _ in range(steps) for r in self.REGIONS]
        else:
            rows = self.REGIONS * steps
            random.Random(3).shuffle(rows)
        labels = np.array(rows)
        codes, regions = region_codes(labels)
        want_codes, want_regions = unique_codes(labels)
        assert regions == want_regions
        assert codes.dtype == want_codes.dtype
        assert codes.tolist() == want_codes.tolist()

    @pytest.mark.parametrize("rows", [[], ["7"]], ids=["zero-rows", "one-row"])
    def test_zero_and_one_row(self, rows):
        labels = np.array(rows, dtype="<U1")
        codes, regions = region_codes(labels)
        want_codes, want_regions = unique_codes(labels)
        assert regions == want_regions == [parse_region(r) for r in rows]
        assert codes.dtype == want_codes.dtype
        assert codes.tolist() == want_codes.tolist() == [0] * len(rows)
