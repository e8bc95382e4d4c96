"""The trace exports share one table writer (``jacobi.write_table``).

The per-row writers they used before are kept here as the reference: the
files written through the shared writer must be byte-identical to theirs,
``\\n`` line ends and the ``# label=`` line for the trajectory, the csv
module's ``\\r\\n`` for the scalar and reduction tables.
"""

import csv

import numpy as np
import pytest

import jacobisplit as js
from jacobisplit.jacobi import write_table
from jacobisplit.reduction import shared_reduction


def _rows_export_csv(traj, path):
    d = traj.dim
    cols = ["t"]
    cols += [f"y{i}{j}" for i in range(d) for j in range(d)]
    cols += [f"yd{i}{j}" for i in range(d) for j in range(d)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# label={traj.spec.label} step={traj.step:.12g}\n")
        fh.write(",".join(cols) + "\n")
        for j in range(traj.n_nodes):
            row = [f"{traj.times[j]:.12g}"]
            row += [f"{v:.17g}" for v in traj.y[j].ravel()]
            row += [f"{v:.17g}" for v in traj.yd[j].ravel()]
            fh.write(",".join(row) + "\n")


def _rows_export_scalar_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "regular", "s", "r"])
        for j, t in enumerate(trace.times):
            row = [
                f"{t:.17g}",
                int(trace.regular[j]),
                f"{trace.s[j]:.17g}",
                f"{trace.r[j]:.17g}",
            ]
            writer.writerow(row)


def _rows_export_reduction_csv(rs, path):
    traj, reg = rs.traj, rs.regular
    shat_min = np.full(traj.n_nodes, np.nan)
    shat_max = np.full(traj.n_nodes, np.nan)
    norm_a = np.where(reg, 0.0, np.nan)
    if np.any(reg) and rs.dim_h:
        s_bh = rs.shat_bh[reg]
        eigs = np.linalg.eigvalsh((s_bh + np.transpose(s_bh, (0, 2, 1))) / 2.0)
        shat_min[reg], shat_max[reg] = eigs[:, 0], eigs[:, -1]
    if np.any(reg) and rs.dim_v:
        # |A| = |BH a_bh| = |a_bh|: BH has orthonormal columns
        norm_a[reg] = np.linalg.svd(rs.a_bh[reg], compute_uv=False)[:, 0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "regular", "lift_err", "norm_a", "shat_min", "shat_max"])
        for j, t in enumerate(traj.times):
            vals = (rs.lift_err[j], norm_a[j], shat_min[j], shat_max[j])
            writer.writerow([f"{t:.17g}", int(reg[j])] + [f"{v:.17g}" for v in vals])


@pytest.mark.parametrize("source", ["hopf-holonomy", "configs/example_scenario.json"])
def test_traces_match_the_row_writers(tmp_path, source):
    from_config = source.endswith(".json")
    sc = js.scenario_from_config(source) if from_config else js.get_scenario(source)
    out, ref = tmp_path / "out", tmp_path / "ref"
    ref.mkdir()
    argv = ["--config", source] if from_config else [source]
    assert js.main(["run", *argv, "--traces", "--seed", "1", "--out", str(out)]) == 0
    traj = js.integrate(sc.family(), step=sc.step)
    _rows_export_csv(traj, ref / f"{sc.name}-trajectory.csv")
    _rows_export_scalar_csv(js.scalar_traces(traj), ref / f"{sc.name}-scalars.csv")
    for i, check in enumerate(sc.checks):
        if check.kind in ("hce", "reduced-boundary"):
            rs = shared_reduction(traj, check.params)
            _rows_export_reduction_csv(rs, ref / f"{sc.name}-reduction-{i}.csv")
    written = sorted(p.name for p in out.glob("*.csv"))
    assert written == sorted(p.name for p in ref.glob("*.csv"))
    assert len(written) == (2 if from_config else 4)
    for name in written:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_write_table_formats_one_row_per_node(tmp_path):
    path = tmp_path / "t.csv"
    cols = [np.array([0.5, 1.0]), np.array([True, False]), np.array([[1.0, np.nan], [-0.0, 3.0]])]
    write_table(path, ["# note", "a,b,c,d"], ["%.3g", "%d", "%.17g", "%.17g"], cols)
    assert path.read_bytes() == b"# note\na,b,c,d\n0.5,1,1,nan\n1,0,-0,3\n"
