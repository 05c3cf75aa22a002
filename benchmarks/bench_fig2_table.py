"""E2 — Fig. 2 table: carbon-footprint reduction of approximate-only designs.

Regenerates the paper's embedded table — average and peak embodied
carbon reduction (%) over the NVDLA sweep for accuracy tiers 0.5 / 1.0 /
2.0 % at 7 / 14 / 28 nm — and prints the same Avg/Peak rows.

Expected shape (paper): single-digit-percent savings that grow with the
allowed accuracy drop; peak always exceeds average; savings differ
across nodes (the paper's exact node ordering depends on area/fab
assumptions it does not publish, so only the shape is reproduced).
"""

from __future__ import annotations

from repro.experiments.fig2 import fig2_reduction_table


def bench_fig2_reduction_table(benchmark, settings, library):
    result = benchmark.pedantic(
        lambda: fig2_reduction_table(settings=settings, network="vgg16"),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())

    tiers = sorted(settings.drop_tiers_percent)
    for node in settings.nodes_nm:
        previous_avg = -1.0
        for tier in tiers:
            avg, peak = result.reductions[(node, tier)]
            # savings exist and grow with the allowed drop
            assert avg > 0.0, (node, tier)
            assert peak >= avg, (node, tier)
            assert avg >= previous_avg - 1e-9, (node, tier)
            previous_avg = avg
        # the loosest tier lands in the paper's single-digit band
        avg2, peak2 = result.reductions[(node, tiers[-1])]
        assert 1.0 < avg2 < 15.0
        assert 1.5 < peak2 < 20.0
