"""Tests for the bulk CSV paths: writer bytes and the chunked reader.

The writers format rows by hand; each must write exactly the bytes that
``csv.writer`` writes for the same rows, which the reference functions below
produce the plain way. The reader parses ``streams.CHUNK_ROWS`` rows per bulk
call; the chunk tests shrink that constant to a few rows so that every case
sits on a chunk boundary. A large file is cut into one byte range per usable
CPU; the share tests drop the size floor to 0 and fake 1, 2 or 3 CPUs.
"""

import csv
import os
import re
import threading

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


def refuse_fork():
    raise AssertionError("os.fork called")


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


# Labels that need no quoting: multi-byte UTF-8, and a wide one, last, that
# only the last share of a ledger holds.
SHARE_LABELS = (7, "é", "日本語", "ß" * 3, "-5", "a much wider label than the others")
FORMATS = {
    "demand": (("t", "region", "inflow", "outflow"), (int, str, float, float), True),
    "forecast": (("t", "region", "flow", "q_lo", "q_hi"), (int, str, str, float, float), True),
    "ledger": (tuple(LEDGER_COLUMNS), (int, str, str, int, float, int), False),
}


class TestCsvShares:
    """Files cut into per-CPU byte shares parse to the one-pass table, bit for bit."""

    @pytest.fixture(autouse=True)
    def no_floor(self, monkeypatch):
        monkeypatch.setattr(streams, "SHARE_MIN_BYTES", 0)

    @pytest.fixture
    def forks(self, monkeypatch):
        fork, calls = os.fork, []

        def counted_fork():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        return calls

    def use_cpus(self, monkeypatch, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    def by_shares(self, monkeypatch, path, columns=TABLE[0], types=TABLE[1], strip=True):
        """The table read with 1, 2 and 3 usable CPUs."""
        tables = []
        for k in (1, 2, 3):
            self.use_cpus(monkeypatch, k)
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
                self.use_cpus(monkeypatch, k)
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
        self.use_cpus(monkeypatch, 3)
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
        self.use_cpus(monkeypatch, 1)
        want = read(path)
        self.use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse_fork)
        self.assert_same([want, read(path)])

    @pytest.mark.parametrize("last, message", [
        (b"98,a,x\r\n", "v must be a number, got 'x'"),
        (b"98,a\r\n", "expected 3 fields, got 2"),
        (b"99999999999999999999,a,1\r\n", "could not convert"),
    ], ids=["bad-number", "field-count", "int-overflow"])
    def test_bad_row_in_the_last_share_names_its_physical_line(self, tmp_path, monkeypatch,
                                                                forks, last, message):
        path = tmp_path / "d.csv"
        rows = b"".join(b"%d,a,%d\r\n\r\n" % (t, t) for t in range(30))
        path.write_bytes(b"t,region,v\r\n" + rows + last)
        messages = set()
        for k in (1, 2, 3):
            self.use_cpus(monkeypatch, k)
            with pytest.raises(DataFormatError, match=re.escape(message)) as error:
                read(path)
            messages.add(str(error.value))
        assert len(messages) == 1
        if "convert" not in message:
            assert messages.pop().startswith(f"{path}:62: ")
        assert len(forks) == 1 + 2

    def test_file_below_the_floor_never_forks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(streams, "SHARE_MIN_BYTES", 1 << 20)
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, "r", t] for t in range(1000)])
        self.use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse_fork)
        assert read(path)["t"].tolist() == list(range(1000))

    def test_no_fork_while_another_thread_is_alive(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        csv_rows(path, TABLE[0], [[t, "r", t] for t in range(100)])
        self.use_cpus(monkeypatch, 3)
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
        self.use_cpus(monkeypatch, 3)
        read(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        path.write_bytes(path.read_bytes() + b"100,r,x\r\n")
        with pytest.raises(DataFormatError):
            read(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) == 2 + 2
