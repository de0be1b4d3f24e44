"""Synthetic demand streams, the CSV reader of every input format, and splits.

A stream holds hourly inflow/outflow counts for ``n`` regions as one array of
shape (n_regions, 2, history). Views over a [start, stop) window give each
(region, flow) cell's demand series and lag matrix while sharing the backing
history, so lag features stay consistent across train/calibration/deployment
boundaries.

Generation is fully determined by the stream spec's 64-bit seed: region-level
parameters and per-region noise use independent PCG64 generators spawned from
``numpy.random.SeedSequence(seed)``, so regions could be generated in parallel
without changing a single bit of output.

``read_csv_table`` parses the demand, forecast and ledger files. It checks
the file's UTF-8 and header, then parses the rows in bulk with ``np.loadtxt``,
each label column straight into fixed-width text.
A large file without quotes is cut at line ends into byte shares
(``shares.share_ranges``), which are parsed side by side (``shares.run_shares``).
The table, and every error with its line number, are those of one pass.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import logging
import math
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DataFormatError
from .shares import run_shares, share_ranges
from .validation import check_finite, check_int, check_positive_int

log = logging.getLogger(__name__)

N_LAGS = 6
FLOWS = ("in", "out")
CHUNK_ROWS = 16_384  # rows per np.loadtxt call in read_csv_table, allocated up front
LABEL_WIDTH = 16  # characters of a label column's first parse; a label that fills it doubles it
SHARE_MIN_BYTES = 1 << 19  # fewest body bytes per share of read_csv_table: ~7 ms of parsing

REGIMES = ("stationary", "abrupt_shift", "drift", "heterogeneous", "k_dependent")
NOISES = ("gaussian", "negative_binomial")
GAP_POLICIES = ("abort", "drop_day")


@dataclass(frozen=True)
class Observation:
    """Realized demand for one (time, region, flow) cell plus lag features."""

    t: int
    region: object
    flow: str
    y: float
    lags: tuple

    def __post_init__(self):
        if self.flow not in FLOWS:
            raise ValueError(f"flow must be one of {FLOWS}, got {self.flow!r}")
        if len(self.lags) != N_LAGS:
            raise ValueError(f"expected {N_LAGS} lags, got {len(self.lags)}")
        if not math.isfinite(self.y) or self.y < 0:
            raise ValueError(f"demand must be finite and >= 0, got {self.y!r}")


@dataclass(frozen=True)
class StreamSpec:
    """Recipe for a synthetic demand stream.

    ``regime`` shapes the mean level over time:

    * ``stationary``      constant per-region level
    * ``abrupt_shift``    level (and noise scale) multiplied by ``shift_scale``
                          from step ``shift_at`` on
    * ``drift``           level grows linearly by ``drift_rate`` per step
    * ``heterogeneous``   regions change at different speeds: from ``shift_at``
                          each region's level ramps linearly to ``scale_i``
                          times its base by the end of the horizon, with
                          ``scale_i`` drawn once per region log-uniformly over
                          ``scale_range``
    * ``k_dependent``     stationary level with innovations averaged over the
                          last ``k_lag`` shocks, so innovations at distance
                          >= k_lag are independent (gaussian noise only)
    """

    n_regions: int
    horizon: int
    seed: int
    regime: str = "stationary"
    noise: str = "gaussian"
    shift_at: int | None = None
    shift_scale: float = 2.0
    drift_rate: float = 0.0
    scale_range: tuple = (1.0, 4.0)
    k_lag: int = 1
    base_level: tuple = (5.0, 25.0)
    sigma_frac: float = 0.25
    season_amp: float = 0.0
    steps_per_day: int = 24
    dispersion: float = 2.0

    def __post_init__(self):
        def keep(name, value):  # a checked value, as its check returns it
            object.__setattr__(self, name, value)

        keep("seed", check_int(self.seed, "seed", 0))
        for name in ("n_regions", "horizon", "k_lag", "steps_per_day"):
            keep(name, check_positive_int(getattr(self, name), name))
        for name in ("shift_scale", "drift_rate", "sigma_frac", "season_amp", "dispersion"):
            keep(name, check_finite(getattr(self, name), name))
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.noise not in NOISES:
            raise ValueError(f"noise must be one of {NOISES}, got {self.noise!r}")
        if self.shift_at is not None:
            keep("shift_at", check_int(self.shift_at, "shift_at", 0))
            if not self.shift_at < self.horizon:
                raise ValueError(f"shift_at must lie within the horizon, got {self.shift_at}")
        if self.regime == "k_dependent" and self.noise != "gaussian":
            raise ValueError("k_dependent streams support gaussian noise only")
        for name in ("scale_range", "base_level"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a [lo, hi] pair, "
                                 f"got {getattr(self, name)!r}") from None
            lo, hi = check_finite(lo, name), check_finite(hi, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, got {getattr(self, name)}")
            keep(name, (lo, hi))
        if not 0.0 <= self.season_amp < 1.0:
            raise ValueError(f"season_amp must be in [0, 1), got {self.season_amp}")
        if self.sigma_frac < 0:
            raise ValueError(f"sigma_frac must be >= 0, got {self.sigma_frac}")
        if self.noise == "negative_binomial" and self.dispersion <= 1.0:
            raise ValueError("dispersion must exceed 1 for negative_binomial noise")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scale_range"] = list(self.scale_range)
        d["base_level"] = list(self.base_level)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "StreamSpec":
        return cls(**d)


@dataclass(frozen=True)
class DemandStream:
    """A [start, stop) window of observations over a shared demand history."""

    region_ids: tuple
    history: np.ndarray  # (n_regions, 2, total_steps), float64
    start: int = 0
    stop: int = field(default=-1)
    times: np.ndarray | None = None  # original time index per history column

    def __post_init__(self):
        if self.history.ndim != 3 or self.history.shape[1] != 2:
            raise ValueError("history must have shape (n_regions, 2, steps)")
        if len(self.region_ids) != self.history.shape[0]:
            raise ValueError("region_ids do not match history")
        stop = self.history.shape[2] if self.stop < 0 else self.stop
        object.__setattr__(self, "stop", stop)
        if not 0 <= self.start <= stop <= self.history.shape[2]:
            raise ValueError(f"bad window [{self.start}, {stop})")
        if self.times is not None and len(self.times) != self.history.shape[2]:
            raise ValueError("times do not match history length")

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    @property
    def horizon(self) -> int:
        return self.stop - self.start

    def window_times(self) -> np.ndarray:
        if self.times is None:
            return np.arange(self.start, self.stop, dtype=np.int64)
        return self.times[self.start : self.stop]

    def cell_series(self, region_idx: int, flow_idx: int) -> np.ndarray:
        """Demand of one (region, flow) over the window."""
        return self.history[region_idx, flow_idx, self.start : self.stop]

    def lags_matrix(self, region_idx: int, flow_idx: int) -> np.ndarray:
        """(horizon, N_LAGS) lag features; history before step 0 is edge-padded."""
        series = self.history[region_idx, flow_idx]
        padded = np.concatenate([np.full(N_LAGS, series[0]), series])
        return np.lib.stride_tricks.sliding_window_view(padded, N_LAGS)[
            self.start : self.stop
        ]


def _level_paths(spec: StreamSpec, bases: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(n_regions, horizon) mean demand per region over time."""
    t = np.arange(spec.horizon)
    season = 1.0 + spec.season_amp * np.sin(2.0 * np.pi * (t % spec.steps_per_day) / spec.steps_per_day)
    levels = bases[:, None] * season[None, :]
    at = spec.horizon // 2 if spec.shift_at is None else spec.shift_at
    if spec.regime == "abrupt_shift":
        levels[:, at:] *= spec.shift_scale
    elif spec.regime == "heterogeneous":
        span = max(spec.horizon - 1 - at, 1)
        ramp = np.clip((t - at) / span, 0.0, 1.0)
        levels *= 1.0 + (scales - 1.0)[:, None] * ramp[None, :]
    elif spec.regime == "drift":
        levels *= np.clip(1.0 + spec.drift_rate * t, 0.0, None)[None, :]
    return levels


def generate(spec: StreamSpec) -> DemandStream:
    """Materialize the synthetic stream described by ``spec``.

    Bit-reproducible for a given spec: all randomness flows from
    SeedSequence(spec.seed) through one master generator (region-level
    parameters) and one spawned child generator per region.
    """
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_regions + 1)
    master = np.random.default_rng(children[0])
    bases = master.uniform(spec.base_level[0], spec.base_level[1], size=spec.n_regions)
    lo, hi = spec.scale_range
    scales = np.exp(master.uniform(np.log(lo), np.log(hi), size=spec.n_regions))

    levels = _level_paths(spec, bases, scales)
    y = np.empty((spec.n_regions, 2, spec.horizon), dtype=np.float64)
    for i in range(spec.n_regions):
        rng = np.random.default_rng(children[i + 1])
        if spec.noise == "gaussian":
            if spec.regime == "k_dependent":
                kk = spec.k_lag
                shocks = rng.standard_normal((2, spec.horizon + kk - 1))
                cs = np.cumsum(np.concatenate([np.zeros((2, 1)), shocks], axis=1), axis=1)
                innov = (cs[:, kk:] - cs[:, :-kk]) / np.sqrt(kk)
            else:
                innov = rng.standard_normal((2, spec.horizon))
            sigma = spec.sigma_frac * levels[i]
            y[i] = np.clip(levels[i][None, :] + sigma[None, :] * innov, 0.0, None)
        else:
            mean = np.clip(levels[i], 1e-6, None)
            p = 1.0 / spec.dispersion
            r = mean * p / (1.0 - p)
            y[i] = rng.negative_binomial(np.broadcast_to(r, (2, spec.horizon)), p).astype(
                np.float64
            )
    return DemandStream(region_ids=tuple(range(spec.n_regions)), history=y)


def check_region_filter(threshold, mode) -> float:
    """Return the threshold as a float; refuse a negative or non-finite threshold
    and an unknown filter mode."""
    threshold = check_finite(threshold, "region_threshold")
    if not threshold >= 0:
        raise ValueError(f"region_threshold must be >= 0, got {threshold!r}")
    if mode not in ("joint", "per_flow"):
        raise ValueError(f"filter_mode must be 'joint' or 'per_flow', got {mode!r}")
    return threshold


def check_split_fractions(train_frac, calib_frac) -> tuple[float, float]:
    """Return both fractions as floats; refuse fractions that are not positive and
    finite or that leave no deployment share."""
    train_frac = check_finite(train_frac, "train_frac")
    calib_frac = check_finite(calib_frac, "calib_frac")
    if not (train_frac > 0 and calib_frac > 0):
        raise ValueError("train_frac and calib_frac must be positive")
    if not train_frac + calib_frac < 1.0:
        raise ValueError("train_frac + calib_frac must be < 1")
    return train_frac, calib_frac


def check_gap_policy(gap_policy) -> None:
    if gap_policy not in GAP_POLICIES:
        raise ValueError(f"gap_policy must be one of {GAP_POLICIES}, got {gap_policy!r}")


def region_filter(
    stream: DemandStream, threshold: float = 2.0, mode: str = "joint"
) -> tuple[DemandStream, list]:
    """Drop regions whose mean demand falls below ``threshold`` (strict).

    ``joint`` averages inflow and outflow together; ``per_flow`` drops a
    region when either flow's own mean is below the threshold.
    """
    threshold = check_region_filter(threshold, mode)
    flow_means = stream.history.mean(axis=2)  # (n, 2)
    if mode == "joint":
        keep = flow_means.mean(axis=1) >= threshold
    else:
        keep = flow_means.min(axis=1) >= threshold
    dropped = [r for r, k in zip(stream.region_ids, keep) if not k]
    if not keep.any():
        raise DataFormatError(
            f"all {stream.n_regions} regions fall below the demand threshold {threshold}"
        )
    if not dropped:
        return stream, []
    kept_ids = tuple(r for r, k in zip(stream.region_ids, keep) if k)
    return (
        DemandStream(
            region_ids=kept_ids,
            history=stream.history[keep],
            start=stream.start,
            stop=stream.stop,
            times=stream.times,
        ),
        dropped,
    )


def split(
    stream: DemandStream, train_frac: float, calib_frac: float
) -> tuple[DemandStream, DemandStream, DemandStream]:
    """Chronological (train, calibration, deployment) split of the window.

    Fractions must be positive and sum to less than 1; the deployment segment
    takes the remainder. Every observation lands in exactly one segment.
    """
    train_frac, calib_frac = check_split_fractions(train_frac, calib_frac)
    total = stream.horizon
    n_train = int(train_frac * total + 0.5)
    n_calib = int(calib_frac * total + 0.5)
    if n_train < 1 or n_calib < 1 or n_train + n_calib >= total:
        raise ValueError(
            f"split of {total} steps into fractions ({train_frac}, {calib_frac}) "
            "leaves an empty segment"
        )
    b1 = stream.start + n_train
    b2 = b1 + n_calib

    def view(a, b):
        return DemandStream(
            region_ids=stream.region_ids,
            history=stream.history,
            start=a,
            stop=b,
            times=stream.times,
        )

    return view(stream.start, b1), view(b1, b2), view(b2, stream.stop)


def csv_field(value) -> str:
    """``value`` as ``csv.writer`` spells it among the other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-3]  # drop the empty last field: "," and "\r\n"


def csv_label(region, seen: dict) -> str:
    """The ``csv_field`` of a region label that ``read_csv_table`` reads back unchanged.

    Refuses (ValueError) a label ``str(region)`` that the reader would not
    give back as the same text (an empty label, one with surrounding
    whitespace), one holding a NUL (the reader refuses the file), or one that
    an unequal region in ``seen`` (label -> region, updated here) already
    took, such as ``"1"`` after ``1``.
    """
    label = "" if region is None else str(region)  # csv.writer writes None as ""
    if "\0" in label:
        raise ValueError(f"region {region!r} holds a NUL, which a CSV input may not hold")
    text = np.char.strip(np.array([label], dtype=str))[0]  # as read_csv_table
    if text != label or not text:
        raise ValueError(f"region {region!r} would read back from a CSV file as {str(text)!r}")
    if seen.setdefault(label, region) != region:
        raise ValueError(f"regions {seen[label]!r} and {region!r} share the label {label!r}")
    return csv_field(region)


def write_demand_csv(stream: DemandStream, path) -> None:
    """Write the window as ``t,region,inflow,outflow`` rows.

    Refuses (ValueError, before writing) a region label that ``csv_label``
    refuses. Rows are spelled exactly as ``csv.writer`` spells them.
    """
    seen = {}
    labels = [csv_label(region, seen) for region in stream.region_ids]
    times = stream.window_times().astype(np.int64).tolist()
    values = stream.history[:, :, stream.start : stream.stop].transpose(2, 0, 1).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t", "region", "inflow", "outflow"])
        fh.write("".join([f"{t},{label},{inflow!r},{outflow!r}\r\n"
                          for t, step in zip(times, values)
                          for label, (inflow, outflow) in zip(labels, step)]))


def parse_region(label: str):
    """The region identity of a label as written in a CSV file.

    A label becomes an int only when it is that int's canonical spelling
    (``str(int(label)) == label``: ASCII digits, an optional leading ``-``,
    no leading zeros); any other label stays the string it was written as.
    The rule is one-to-one, so distinct labels stay distinct regions, and a
    region written back with ``str`` parses to itself.
    """
    try:
        value = int(label)
    except ValueError:
        return label
    return value if str(value) == label else label


def region_sort_key(region):
    """Canonical region order: integer labels by value, then string labels."""
    label = parse_region(str(region))
    return (0, label, "") if isinstance(label, int) else (1, 0, label)


def region_codes(labels: np.ndarray):
    """Region index of each row and the region ids in canonical order.

    Only the first label of each run of equal labels is looked up: files
    hold a region's rows, or a step's regions, next to each other.
    """
    new_run = np.ones(len(labels), dtype=bool)
    new_run[1:] = labels[1:] != labels[:-1]
    starts = np.flatnonzero(new_run)
    unique, run_codes = np.unique(labels[starts], return_inverse=True)
    parsed = [parse_region(s) for s in unique.tolist()]
    region_ids = sorted(parsed, key=region_sort_key)
    index = {r: i for i, r in enumerate(region_ids)}
    code = np.array([index[r] for r in parsed], dtype=np.intp)
    return np.repeat(code[run_codes], np.diff(np.r_[starts, len(labels)])), region_ids


def unrepeated(keys: np.ndarray) -> np.ndarray:
    """False on each row whose key already appeared on an earlier row."""
    order = np.argsort(keys, kind="stable")
    ok = np.ones(len(keys), dtype=bool)
    ok[order[1:][keys[order[1:]] == keys[order[:-1]]]] = False
    return ok


def read_csv_table(path, columns, types, strip=True) -> dict:
    """Parse a UTF-8 CSV file whose header is ``columns``: name -> array.

    ``types`` gives each column's type: ``int``, ``float`` or ``str`` (a
    label; with ``strip``, labels and header names lose surrounding spaces).
    The rows are parsed in bulk, ``CHUNK_ROWS`` rows at a time, each label
    column straight into fixed-width text (``_read_rows``). A file with no
    quote byte and a header that ends at its first newline is cut at line
    ends into byte shares of at least ``SHARE_MIN_BYTES`` (``_share_cuts``),
    and the shares are parsed side by side
    (``shares.run_shares``); the table is the one a single pass gives. Only
    if parsing fails does a rescan of the whole file name the physical line
    of the first bad field count or number (DataFormatError). A NUL byte is
    refused at its line, because a label holding one could pass the width
    check of ``_read_rows`` cut short.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        raw.decode("utf-8")  # up front, so that a bad byte is named by its line
    except OSError as e:
        raise DataFormatError(f"{path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataFormatError(f"{path}:{line}: not UTF-8 ({e.reason})") from None
    nul = raw.find(b"\0")
    if nul != -1:
        line = raw.count(b"\n", 0, nul) + 1
        raise DataFormatError(f"{path}:{line}: NUL byte")
    cuts = _share_cuts(raw)
    del raw
    body = functools.partial(_body, path, columns, strip)
    try:
        parts = None
        if cuts:
            with body():  # the header is checked before any share is forked
                pass
            # A share numbers its rows from its own start; one pass raises as before.
            with contextlib.suppress(ValueError):
                parts = run_shares([functools.partial(_read_range, path, a, b, columns, types)
                                    for a, b in zip(cuts, cuts[1:])])
        parts = parts or [_read_rows(body, columns, types)]
    except ValueError as e:
        for line, row in _records(path):
            if len(row) != len(columns):
                raise DataFormatError(
                    f"{path}:{line}: expected {len(columns)} fields, got {len(row)}") from None
            for name, kind, field in zip(columns, types, row):
                if kind is not str and not _parses(kind, field):
                    what = "an integer" if kind is int else "a number"
                    raise DataFormatError(
                        f"{path}:{line}: {name} must be {what}, got {field!r}") from None
        raise DataFormatError(f"{path}: {e}") from None
    table = {name: np.concatenate([c for part in parts for c in part[name]])
             for name in columns}
    if not len(table[columns[0]]):
        raise DataFormatError(f"{path}: no records")
    for name, kind in zip(columns, types):
        if kind is str and strip:
            table[name] = np.char.strip(table[name])
    return table


@contextlib.contextmanager
def _body(path, columns, strip):
    """``path`` opened as text just after its header; a header other than ``columns`` fails."""
    # newline="" keeps a quoted line break inside its field, as csv.reader does.
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), [])
        except csv.Error as e:
            raise DataFormatError(f"{path}:1: {e}") from None
        if ([h.strip() for h in header] if strip else header) != list(columns):
            raise DataFormatError(f"{path}: expected header '{','.join(columns)}'")
        yield fh


def _share_cuts(raw: bytes) -> list:
    """The byte offsets where the shares of a CSV file's body start, and its end.

    The body starts after the file's first newline byte, and its bytes are
    both the units and the work of ``share_ranges``. Empty, for one pass over
    the file, when that gives one share, when a quote byte could hide a line
    break inside a field, or when the header does not end at that newline (a
    bare CR ends it). Otherwise each share's start moves to just after the
    first newline at or after it: that ends a record, for ``np.loadtxt`` as
    for ``csv.reader``, and never falls inside a UTF-8 character.
    """
    start = raw.find(b"\n") + 1
    n = len(raw) - start
    ranges = share_ranges(n, n, SHARE_MIN_BYTES)
    if (len(ranges) < 2 or not start or b'"' in raw
            or raw.find(b"\r", 0, max(start - 2, 0)) != -1):
        return []
    cuts = sorted({start, len(raw)} | {raw.find(b"\n", start + r.start) + 1 or len(raw)
                                       for r in ranges[1:]})
    return cuts if len(cuts) > 2 else []


def _read_range(path, start, stop, columns, types) -> dict:
    """``_read_rows`` of the bytes ``[start, stop)`` of ``path``."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    return _read_rows(
        lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""), columns, types)


def _read_rows(open_rows, columns, types) -> dict:
    """Parse the rows of the text file ``open_rows()`` opens: name -> list of chunk arrays.

    ``np.loadtxt`` parses each label column into a fixed-width text field,
    ``LABEL_WIDTH`` characters at first, and silently cuts a longer label to
    that width. So a chunk whose longest label in a column fills the width
    doubles that column's width, and the file is opened and parsed again
    from its first row. Each chunk's label column is then narrowed to its
    longest label, the width that ``dtype=str`` would give it.
    """
    widths = {name: LABEL_WIDTH for name, kind in zip(columns, types) if kind is str}
    kinds = {int: "i8", float: "f8"}
    while True:
        dtype = [(name, f"U{widths[name]}" if kind is str else kinds[kind])
                 for name, kind in zip(columns, types)]
        chunks = {name: [] for name in columns}
        with open_rows() as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # blank lines; no rows is raised later
            while True:
                rows = np.loadtxt(fh, dtype=dtype, ndmin=1, max_rows=CHUNK_ROWS, delimiter=",",
                                  quotechar='"', comments=None, encoding="utf-8")
                longest = {name: int(np.char.str_len(rows[name]).max(initial=0))
                           for name in widths}
                cut = [name for name, n in longest.items() if n >= widths[name]]
                if cut:
                    break
                for name in columns:
                    chunks[name].append(rows[name].astype(f"U{max(longest[name], 1)}")
                                        if name in widths else rows[name].copy())
                if len(rows) < CHUNK_ROWS:
                    return chunks
        for name in cut:
            widths[name] *= 2


def _records(path):
    """(physical line, fields) of each data row, blank lines skipped.

    The line is the one on which the row starts; a quoted field can run on
    over later lines. A row that ``csv.reader`` refuses, such as one whose
    unclosed quote runs past the field size limit, raises DataFormatError
    at the line on which it starts.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        while True:
            line = reader.line_num + 1
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as e:
                raise DataFormatError(f"{path}:{line}: {e}") from None
            if row:
                yield line, row


def _parses(kind, field: str) -> bool:
    try:
        value = kind(field)
    except ValueError:
        return False
    if kind is int and not -(2**63) <= value < 2**63:  # np.loadtxt's int64 range
        return False
    return field.isascii() and "_" not in field  # as strict as the bulk parser


def reject_rows(path, ok: np.ndarray, message) -> None:
    """Raise DataFormatError at the line of the first row where ``ok`` is False.

    ``message(row)`` says what is wrong with that row.
    """
    if not ok.all():
        row = int(np.argmin(ok))
        line = next(line for k, (line, _) in enumerate(_records(path)) if k == row)
        raise DataFormatError(f"{path}:{line}: {message(row)}")


def flow_index(path, flow: np.ndarray) -> np.ndarray:
    """Index into FLOWS of each row's flow label; another label fails."""
    is_out = flow == FLOWS[1]
    reject_rows(path, is_out | (flow == FLOWS[0]),
                lambda k: f"flow must be in/out, got {str(flow[k])!r}")
    return is_out.astype(np.intp)


def _merged_ranges(first: np.ndarray, last: np.ndarray):
    """Merge inclusive integer ranges that overlap or touch; sorted by start."""
    order = np.argsort(first, kind="stable")
    first, last = first[order], np.maximum.accumulate(last[order])
    starts = np.flatnonzero(np.r_[True, first[1:] > last[:-1] + 1])
    return first[starts], last[np.r_[starts[1:] - 1, len(last) - 1]]


def read_demand_csv(path, gap_policy: str = "abort", steps_per_day: int = 24) -> DemandStream:
    """Parse a demand CSV (``read_csv_table``) into a stream.

    An empty region, a negative or non-finite demand, or a repeated (t,
    region) pair raises DataFormatError at its line. Time gaps (missing steps
    or region cells) follow ``gap_policy``: ``abort`` raises, while
    ``drop_day`` removes every step of each affected day and logs a warning.
    """
    check_gap_policy(gap_policy)
    table = read_csv_table(path, ("t", "region", "inflow", "outflow"), (int, str, float, float))
    t, labels = table["t"], table["region"]
    reject_rows(path, labels != "", lambda k: "empty region identifier")
    for name in ("inflow", "outflow"):
        v = table[name]
        reject_rows(path, np.isfinite(v) & (v >= 0),
                    lambda k: f"{name} must be finite and >= 0, got {v[k]}")
    codes, regions = region_codes(labels)
    times, t_pos = np.unique(t, return_inverse=True)
    reject_rows(path, unrepeated(t_pos * len(regions) + codes),
                lambda k: f"duplicate (t={t[k]}, region={labels[k]})")

    # Gaps are found from the distinct steps alone, so memory follows the row
    # count, not the span of t: runs of missing steps sit between neighbours
    # more than one step apart, and a present step can miss a region.
    complete = np.bincount(t_pos) == len(regions)
    jump = np.flatnonzero(np.diff(times) > 1)
    missing_from, missing_to = times[jump] + 1, times[jump + 1] - 1
    partial = times[~complete]
    keep = times
    if len(jump) or len(partial):
        if gap_policy == "abort":
            first = min(missing_from[:1].tolist() + partial[:1].tolist())
            present = set(codes[t == first].tolist())
            missing = next(r for i, r in enumerate(regions) if i not in present)
            raise DataFormatError(
                f"{path}: gap at t={first} (missing region {missing}); "
                "rerun with gap_policy='drop_day' to skip affected days"
            )
        first_day, last_day = _merged_ranges(
            np.concatenate([missing_from, partial]) // steps_per_day,
            np.concatenate([missing_to, partial]) // steps_per_day,
        )
        day = times // steps_per_day
        k = np.searchsorted(first_day, day, side="right") - 1
        bad = (k >= 0) & (day <= last_day[np.maximum(k, 0)])
        keep = times[~bad]
        log.warning(
            "%s: dropping %d day(s) with gaps: %s", path,
            int((last_day - first_day + 1).sum()),
            ", ".join(str(a) if a == b else f"{a}..{b}"
                      for a, b in zip(first_day.tolist(), last_day.tolist())),
        )
        if not len(keep):
            raise DataFormatError(f"{path}: every day contains gaps")

    kept = np.isin(t, keep)
    y = np.empty((len(regions), 2, len(keep)), dtype=np.float64)
    y[codes[kept], :, np.searchsorted(keep, t[kept])] = np.column_stack(
        [table["inflow"][kept], table["outflow"][kept]])
    return DemandStream(region_ids=tuple(regions), history=y, times=keep.astype(np.int64))
