"""Table II: rows and columns of the centralized constraint matrix A.

Regenerates the problem-size table for the three instances, with each
LP's degrees of freedom (columns - rows - fixed columns; 0 means one
feasible point), and benchmarks the LP assembly itself.  Our absolute sizes differ from the paper's because
the 123/8500-class feeders are statistically matched substitutes (see
DESIGN.md), but the ordering and growth across instances must hold.
"""

from _common import INSTANCES, PAPER, format_table, get_lp, get_net, report

from repro.formulation import build_centralized_lp


def test_table2_report(benchmark):
    rows = []
    for name in INSTANCES:
        lp = get_lp(name)
        m, n = lp.shape
        pm, pn = PAPER["table2"][name]
        rows.append([name, m, n, lp.degrees_of_freedom, pm, pn])
    text = format_table(
        ["instance", "rows (ours)", "cols (ours)", "dof (ours)", "rows (paper)",
         "cols (paper)"],
        rows,
        title="Table II: size of the centralized A (dof = cols - rows - fixed cols)",
    )
    report("table2_problem_sizes", text)

    sizes_ours = [get_lp(n).shape[0] for n in INSTANCES]
    assert sizes_ours == sorted(sizes_ours), "A must grow with instance size"

    net = get_net("ieee13")
    benchmark(lambda: build_centralized_lp(net))
