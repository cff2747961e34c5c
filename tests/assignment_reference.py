"""The tests' own assignment solver, shared by the connection tests and
acceptance criterion 3: an oracle that shares no code with the package's
pairing search."""

import numpy as np


def reference_search(dist):
    """The tests' reference solver for ``_shortest_augmenting_paths``: the
    Hungarian method with Dijkstra on reduced costs, in numpy.  Column minima
    start v; each unmatched row grows a tree with a fresh cost row per
    scanned row, and a predecessor array rewritten wherever that row is
    strictly closer, so ties keep the first scanned row."""
    k = dist.shape[0]
    v = dist.min(axis=0)
    matching = np.full(k, -1)
    row_of = np.full(k, -1)
    rows, cols = np.unique(dist.argmin(axis=0), return_index=True)
    matching[rows], row_of[cols] = cols, rows
    tentative = np.empty(k)
    reached = np.empty(k)
    open_ = np.empty(k, dtype=bool)
    pred = np.empty(k, dtype=np.intp)
    for free in np.flatnonzero(matching < 0):
        tentative.fill(np.inf)
        open_.fill(True)
        i, offset = free, 0.0
        while True:
            cost = dist[i] - v
            cost += offset
            closer = cost < tentative
            closer &= open_
            np.copyto(tentative, cost, where=closer)
            np.copyto(pred, i, where=closer)
            j = int(tentative.argmin())
            dj = tentative[j]
            assert dj < np.inf and open_[j]
            open_[j], reached[j], tentative[j] = False, dj, np.inf
            if row_of[j] < 0:
                break
            i = row_of[j]
            offset = dj - dist[i, j] + v[j]
        closed = ~open_
        v[closed] += reached[closed] - dj
        while True:
            i = pred[j]
            row_of[j] = i
            matching[i], j = j, matching[i]
            if i == free:
                break
    u = dist[np.arange(k), matching] - v[matching]
    v = (dist - u[:, None]).min(axis=0)
    return matching, u, v
