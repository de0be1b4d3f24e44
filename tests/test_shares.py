"""The one share rule, ``shares.share_ranges``, and the plans of its three users.

The plan tests fake 64 usable CPUs and count the shares that each user plans,
without forking: the CSV reader's cuts, and the tasks that the ledger writer
and the region replay hand to ``run_shares``. The payload test runs a region
replay's share tasks in this process and sizes what each would send back.
"""

import os
import pickle

import numpy as np
import pytest

from contina import harness, metrics, shares, streams
from contina.harness import ExperimentConfig, run_replay
from contina.streams import StreamSpec, read_csv_table
from fake_cpus import refuse_fork, use_cpus


class TestShareRanges:
    @pytest.mark.parametrize("cpus, n, work, floor, want", [
        (64, 50, 10**9, 1, 50),  # never more shares than units
        (3, 50, 10**9, 1, 3),  # nor than CPUs
        (64, 50, 399, 100, 3),  # nor than whole floors of work
        (64, 50, 400, 100, 4),
        (64, 50, 99, 100, 1),  # less than one floor is one share
        (1, 50, 10**9, 1, 1),
        (64, 0, 0, 1, 1),
    ])
    def test_share_count(self, monkeypatch, cpus, n, work, floor, want):
        use_cpus(monkeypatch, cpus)
        assert len(shares.share_ranges(n, work, floor)) == want

    @pytest.mark.parametrize("n", [1, 2, 5, 7, 50])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 64])
    def test_ranges_cut_the_units_in_order(self, monkeypatch, n, cpus):
        use_cpus(monkeypatch, cpus)
        ranges = shares.share_ranges(n, n, 1)
        w = len(ranges)
        assert [r.start for r in ranges] == [k * n // w for k in range(w)]
        assert [i for r in ranges for i in r] == list(range(n))
        assert max(map(len, ranges)) - min(map(len, ranges)) <= 1

    def test_no_share_while_another_thread_is_alive(self, monkeypatch):
        use_cpus(monkeypatch, 64)
        monkeypatch.setattr("threading.active_count", lambda: 2)
        assert shares.share_ranges(50, 10**9, 1) == [range(50)]

    @pytest.mark.parametrize("regions, steps, ledger_rows", [
        (20, 2000, 80_000),  # about csv_quickstart's deployment
        (50, 2000, 200_000),  # kdep_wide's
        (10, 2500, 50_000),  # online_updates'
    ])
    def test_benchmark_workloads_keep_two_shares_on_two_cpus(self, monkeypatch, regions, steps,
                                                             ledger_rows):
        use_cpus(monkeypatch, 2)
        assert len(shares.share_ranges(regions, regions * steps,
                                       harness.REPLAY_SHARE_MIN_STEPS)) == 2
        assert len(shares.share_ranges(regions, ledger_rows, harness.LEDGER_SHARE_MIN_ROWS)) == 2


class Planned(Exception):
    """Raised in place of running a planned set of shares."""


def counted_run_shares(monkeypatch, module, run=True, sent=None):
    """Make ``module.run_shares`` record its task count and run the tasks here, in
    order (or, without ``run``, raise ``Planned``); return the recorded counts.
    Given a list ``sent``, each task's result is appended to it."""
    counts = []

    def run_here(tasks):
        counts.append(len(tasks))
        if not run:
            raise Planned
        results = [task() for task in tasks]
        if sent is not None:
            sent.extend(results)
        return results

    monkeypatch.setattr(module, "run_shares", run_here)
    return counts


class TestPlansAt64Cpus:
    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        use_cpus(monkeypatch, 64)
        monkeypatch.setattr(os, "fork", refuse_fork)

    def test_csv_body_of_1_mib(self, tmp_path, monkeypatch):
        body = b"0,r,1.5\n" * ((1 << 20) // 8)  # 1 MiB
        raw = b"t,region,v\n" + body
        assert len(streams._share_cuts(raw)) - 1 == (1 << 20) // streams.SHARE_MIN_BYTES == 2
        assert streams._share_cuts(raw[:-1]) == []
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        counts = counted_run_shares(monkeypatch, streams)
        table = read_csv_table(path, ("t", "region", "v"), (int, str, float))
        assert counts == [2]
        assert len(table["t"]) == len(body) // 8

    def test_ledger_of_16_000_rows(self, tmp_path, monkeypatch):
        counts = counted_run_shares(monkeypatch, harness)
        for steps, want in [(1000, 2), (999, 1)]:
            shape = (8, steps, 2)
            ledger = metrics.RunLedger(tuple(range(8)), np.arange(steps), np.ones(shape, bool),
                                       np.ones(shape), np.zeros(shape, bool))
            harness._write_ledger(ledger, tmp_path / "ledger.csv")
            assert counts.pop() == want
        assert 16_000 // harness.LEDGER_SHARE_MIN_ROWS == 2

    def test_kdep_wide_replay(self, monkeypatch):
        # perfbench's kdep_wide: 50 regions, 2000 steps each of training,
        # calibration and deployment.
        config = ExperimentConfig(
            method="contina", seed=11, train_frac=2000 / 6000, calib_frac=2000 / 6000,
            synthetic=StreamSpec(n_regions=50, horizon=6000, seed=11, regime="k_dependent",
                                 k_lag=24))
        counts = counted_run_shares(monkeypatch, harness, run=False)
        with pytest.raises(Planned):
            run_replay(config)
        assert counts == [min(50, 50 * 2000 // harness.REPLAY_SHARE_MIN_STEPS)]


def arrays_in(payload):
    """The numpy arrays in ``payload``, through tuples and lists."""
    if isinstance(payload, np.ndarray):
        return [payload]
    if isinstance(payload, (tuple, list)):
        return [a for item in payload for a in arrays_in(item)]
    return []


class TestRegionSharePayloads:
    def test_a_share_sends_10_bytes_a_cell_and_the_ledger_keeps_its_grids(self, monkeypatch):
        # Three shares of 20 regions x 2000 deployment steps, run here. Each
        # result is what a forked share pickles into its pipe: a bool, a
        # float64 and a bool per cell, plus at most OVERHEAD bytes for the
        # arrays' headers, the regions' final states and the crossings.
        OVERHEAD = 1024
        use_cpus(monkeypatch, 3)
        sent, handed = [], []
        counts = counted_run_shares(monkeypatch, harness, sent=sent)

        def run_ledger(**kwargs):
            handed.append(kwargs)
            return metrics.RunLedger(**kwargs)

        monkeypatch.setattr(harness, "RunLedger", run_ledger)
        config = ExperimentConfig(method="contina", seed=5, train_frac=0.1, calib_frac=0.1,
                                  synthetic=StreamSpec(n_regions=20, horizon=2500, seed=5,
                                                       regime="heterogeneous"))
        ledger = run_replay(config).ledger
        steps = ledger.horizon
        ranges = shares.share_ranges(20, 20 * steps, harness.REPLAY_SHARE_MIN_STEPS)
        assert counts == [len(ranges)] == [3]
        grids = (ledger.covered_grid, ledger.length_grid, ledger.empty_grid)
        assert all(grid is handed[0][key] for grid, key in zip(grids, ("covered", "length",
                                                                       "empty")))
        for k, (regions, payload) in enumerate(zip(ranges, sent)):
            cells = len(regions) * steps * 2
            assert len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)) <= 10 * cells + OVERHEAD
            arrays = arrays_in(payload)
            # The first share runs in the parent and fills the grids in place.
            assert len(arrays) == (0 if k == 0 else 3)
            assert not any(np.shares_memory(a, grid) for a in arrays for grid in grids)
