"""Figure 9 — perceived freshness vs solution time with clustering.

The transformed problems are solved through the *generic NLP* path
(the IMSL substitute) to preserve the paper's cost model.  Absolute
seconds differ from the paper's 2002 hardware; the reproduced claim
is the shape: starting from a coarse partitioning and spending time
on k-means iterations reaches higher freshness per second than
buying more partitions on the cluster line.

Scale note: 20 000 objects by default (same per-object statistics as
Table 3); pass ``setup=BIG_SETUP`` for the paper's full scale.

Solve time is the figure's x axis, so ``benchmarks/results/
figure09.txt`` keeps its time column and moves with the host on
every run, unlike the other tracked results.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import figure9
from repro.analysis.tables import format_table


def test_figure9(benchmark, report):
    sweep = benchmark.pedantic(
        lambda: figure9(cluster_line_counts=np.array([20, 50, 100, 200]),
                        iteration_path_counts=(50, 150),
                        iteration_counts=(0, 1, 3, 5)),
        rounds=1, iterations=1)

    line = sweep.get("CLUSTER_LINE")
    path50 = sweep.get("50 CLUSTERS")

    # Clustering lifts k=50 above its own cluster-line starting point.
    assert path50.y[-1] > path50.y[0] + 0.01
    # Refined k=50 beats the unrefined finest cluster-line point.
    assert path50.y[-1] > line.y[-1]

    blocks = []
    for series in sweep.series:
        rows = list(zip(np.round(series.x, 3).tolist(),
                        np.round(series.y, 4).tolist()))
        blocks.append(f"{series.label}\n" + format_table(
            ["time (s)", "perceived freshness"], rows))
    report("figure09", "\n\n".join(blocks))
