"""The branch search that ``estimate_phases`` replaced, used only by the
tests: every window against every segment of the branch by the exact
formula, in batches of at most ``BATCH_CELLS`` windows x nodes. Its outputs
are the ones the search must keep bit for bit."""

from __future__ import annotations

import math

import numpy as np

from squint.estimation import _FLAT, _check_branch, _dot4, _frequencies
from squint.metrology import fisher

# windows x nodes per batch of the scan, which bounds its scratch
BATCH_CELLS = 16384


def branch_table(cal, lo: float, hi: float):
    """The branch's nodes, their values (4, nodes), steps (4, 1, segments) and
    squared step lengths, inf at zero length."""
    shifts = math.pi * np.arange(math.floor(lo / math.pi), math.floor(hi / math.pi) + 1)
    inner = (cal.phi_tab[:-1] + shifts[:, None]).ravel()
    nodes = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
    values = cal.probabilities(nodes).T
    step = np.diff(values, axis=1)[:, None]
    length2 = _dot4(step, step)
    length2[length2 == 0.0] = np.inf  # a segment of zero length keeps u = 0
    return nodes, values, step, length2


def full_scan(counts, cal, branch):
    """``estimate_phases`` by scoring every segment for every window."""
    freqs, totals = _frequencies(counts)
    freqs = freqs.T
    nodes, values, step, length2 = branch_table(cal, *_check_branch(branch))
    phi_est, objective = np.empty((2, totals.size))
    flat = np.empty(totals.size, dtype=bool)
    rows = max(1, BATCH_CELLS // nodes.size)
    for w in range(0, totals.size, rows):
        gap = freqs[:, w:w + rows, None] - values[:, None]  # (4, batch, nodes)
        at_nodes = _dot4(gap, gap)
        flat[w:w + rows] = at_nodes.max(axis=1) - at_nodes.min(axis=1) < _FLAT
        gap = gap[:, :, :-1]
        u = np.clip(_dot4(gap, step) / length2, 0.0, 1.0)
        resid = gap - u * step
        segment = _dot4(resid, resid)
        j = np.argmin(segment, axis=1)
        best = (np.arange(j.size), j)
        phi_est[w:w + rows] = (1.0 - u[best]) * nodes[j] + u[best] * nodes[j + 1]
        objective[w:w + rows] = segment[best]
    dead = flat | (totals <= 0)
    phi_est[dead] = objective[dead] = math.nan
    info = np.zeros(totals.size)
    info[~dead] = fisher(cal.config, phi_est[~dead])
    return phi_est, objective, totals * info < 1.0
