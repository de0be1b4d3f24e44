"""Row view of a ledger for tests: one tuple per ``ledger.csv`` row."""

from contina.streams import FLOWS


def records(ledger):
    """(t, region, flow, covered, length, empty) tuples in (region, t, flow) order."""
    times = ledger.times.tolist()
    rows = []
    for i, region in enumerate(ledger.region_ids):
        covered = ledger.covered_grid[i].tolist()
        length = ledger.length_grid[i].tolist()
        empty = ledger.empty_grid[i].tolist()
        for p, t in enumerate(times):
            for j, flow in enumerate(FLOWS):
                rows.append((t, region, flow, covered[p][j], length[p][j], empty[p][j]))
    return rows
