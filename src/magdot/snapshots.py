"""Snapshot CSV emission and cross-run comparison.

Schema: long format with header `t,m,P` where P is a state's
`density()`, the continuum normalization of its masses.  Numbers carry 17
significant digits so files round-trip exactly and identical runs are
byte-identical.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = [
    "write_rows",
    "write_long_csv",
    "read_long_csv",
    "l1_distance",
    "compare_dirs",
]

FMT = "%.17g"
TIME_RTOL = 1e-9  # relative tolerance within which `compare_dirs` pairs two times


def write_rows(path: str, rows) -> None:
    """`t,m,P` rows of every (t, m grid, P) triple of `rows`, with one `%`
    over each whole triple: `tolist()` gives Python floats, which format
    exactly as numpy's float64 does."""
    with open(path, "w") as fh:
        fh.write("t,m,P\n")
        for t, m, p in rows:
            row = f"{FMT % t},{FMT},{FMT}\n"
            fh.write((row * len(m)) % tuple(np.column_stack((m, p)).ravel().tolist()))


def write_long_csv(path: str, states) -> None:
    """The rows of each state's `density()` on its grid at its time."""
    write_rows(path, ((s.time, s.grid, s.density()) for s in states))


def read_long_csv(path: str) -> "OrderedDict[float, tuple[np.ndarray, np.ndarray]]":
    """Snapshots keyed by time, in file order."""
    groups: OrderedDict[float, list] = OrderedDict()
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,m,P":
            raise ValueError(f"{path}: expected header 't,m,P', got {header!r}")
        for line in fh:
            ts, ms, ps = line.rstrip("\n").split(",")
            groups.setdefault(float(ts), []).append((float(ms), float(ps)))
    out: OrderedDict[float, tuple[np.ndarray, np.ndarray]] = OrderedDict()
    for t, rows in groups.items():
        arr = np.asarray(rows)
        out[t] = (arr[:, 0], arr[:, 1])
    return out


def l1_distance(m_a, p_a, m_b, p_b) -> float:
    """L1 distance between two densities, resampled onto the finer grid."""
    m_a, p_a = np.asarray(m_a, float), np.asarray(p_a, float)
    m_b, p_b = np.asarray(m_b, float), np.asarray(p_b, float)
    if len(m_b) > len(m_a):
        m_a, p_a, m_b, p_b = m_b, p_b, m_a, p_a
    p_b_on_a = np.interp(m_a, m_b, p_b)
    return float(np.trapezoid(np.abs(p_a - p_b_on_a), m_a))


def compare_dirs(path_a: str, path_b: str):
    """Match snapshot times of two long-format files and compute L1 per time."""
    snaps_a = read_long_csv(path_a)
    snaps_b = read_long_csv(path_b)
    results = []
    for t_a, (m_a, p_a) in snaps_a.items():
        for t_b, (m_b, p_b) in snaps_b.items():
            if abs(t_a - t_b) <= TIME_RTOL * max(1.0, abs(t_a)):
                results.append((t_a, l1_distance(m_a, p_a, m_b, p_b)))
                break
    return results
