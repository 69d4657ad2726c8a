"""Snapshot CSV writer: one `%` per state gives the rows that one `FMT`
per number gives, byte for byte, and the file reads back exactly."""

import numpy as np

from magdot.fokker_planck import ContinuumField
from magdot.master import DiscreteDistribution
from magdot.snapshots import FMT, as_density, read_long_csv, write_long_csv

EDGE_WEIGHTS = [0.0, 5e-324, 1e-300, 1e300, 1.0 / 3.0, 0.1]  # zero, subnormal, extremes


def edge_states():
    mesh = np.linspace(-1.0, 1.0, 7)[:-1] + 1.0 / 6.0
    return [DiscreteDistribution(n_spins=5, weights=EDGE_WEIGHTS, time=0.1),
            ContinuumField(mesh=mesh, values=EDGE_WEIGHTS, time=2.0 / 3.0)]


def per_number(prefix, m, p):
    return "".join(f"{prefix}{FMT % mi},{FMT % pi}\n" for mi, pi in zip(m, p))


def test_long_csv_rows_match_per_number_format(tmp_path):
    path = tmp_path / "long.csv"
    write_long_csv(str(path), edge_states())
    expected = "t,m,P\n"
    for state in edge_states():
        t, m, p = as_density(state)
        expected += per_number(f"{FMT % t},", m, p)
    assert path.read_text() == expected
    for (t, (m, p)), state in zip(read_long_csv(str(path)).items(), edge_states()):
        t_ref, m_ref, p_ref = as_density(state)
        assert t == t_ref
        assert np.array_equal(m, m_ref) and np.array_equal(p, p_ref)

