"""Table 6: weights of the geometric operations.

The paper measured these on an HP720 workstation; the reproduction keeps
them as model constants and re-measures the host's own weights for
comparison.  Only the *relative* weights matter for §4.3's conclusions.
"""

from repro.exact.costmodel import PAPER_WEIGHTS, measure_host_weights


def test_table6_operation_weights(benchmark, report):
    host = benchmark.pedantic(
        lambda: measure_host_weights(repetitions=5000), rounds=1, iterations=1
    )

    lines = [f"{'operation':>34} {'paper (µs)':>11} {'host (µs)':>10}"]
    for op, paper_w in PAPER_WEIGHTS.items():
        lines.append(
            f"{op:>34} {paper_w * 1e6:>11.0f} {host[op] * 1e6:>10.2f}"
        )
    report.table("Table 6", "geometric operation weights", lines)

    # Relative shape: the trapezoid test is the most expensive primitive
    # and the edge test the cheapest, on the paper's scale.
    assert PAPER_WEIGHTS["trapezoid_intersection_test"] > PAPER_WEIGHTS[
        "edge_intersection_test"
    ]
    assert all(w > 0 for w in host.values())
