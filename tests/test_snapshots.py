"""Snapshot CSV writer: one `%` per state gives the rows that one `FMT`
per number gives, byte for byte, and the file reads back exactly."""

import numpy as np

from magdot.master import DiscreteDistribution
from magdot.snapshots import FMT, read_long_csv, write_long_csv, write_rows

EDGE_WEIGHTS = [0.0, 5e-324, 1e-300, 1e300, 1.0 / 3.0, 0.1]  # zero, subnormal, extremes


def edge_rows():
    """(t, m, P) of a master state on its 6 levels, of an FP state on the
    centres of 6 cells, and of the `analytic` command's closed-form P on a
    linspace mesh, each holding the edge values."""
    cells = np.linspace(-1.0, 1.0, 7)[:-1] + 1.0 / 6.0
    states = [DiscreteDistribution(n_spins=5, weights=EDGE_WEIGHTS, time=0.1),
              DiscreteDistribution(n_spins=5, weights=EDGE_WEIGHTS, time=2.0 / 3.0,
                                   grid=cells)]
    analytic = (1.25, np.linspace(-0.999999, 0.999999, 6), np.array(EDGE_WEIGHTS))
    return states, [(s.time, s.grid, s.density()) for s in states] + [analytic]


def per_number(rows):
    return "t,m,P\n" + "".join(f"{FMT % t},{FMT % mi},{FMT % pi}\n"
                               for t, m, p in rows for mi, pi in zip(m, p))


def test_long_csv_rows_match_per_number_format(tmp_path):
    states, rows = edge_rows()
    assert np.array_equal(states[0].density(), 2.5 * np.array(EDGE_WEIGHTS))
    assert np.array_equal(states[1].density(), 3.0 * np.array(EDGE_WEIGHTS))
    for name, write, arg, want in (("states.csv", write_long_csv, states, rows[:2]),
                                   ("rows.csv", write_rows, rows, rows)):
        path = tmp_path / name
        write(str(path), arg)
        assert path.read_text() == per_number(want)
        back = read_long_csv(str(path))
        assert len(back) == len(want)
        for (t, (m, p)), (t_ref, m_ref, p_ref) in zip(back.items(), want):
            assert t == t_ref
            assert np.array_equal(m, m_ref) and np.array_equal(p, p_ref)
