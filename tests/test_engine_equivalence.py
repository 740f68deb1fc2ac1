"""Differential-testing harness: BatchedEngine ≡ StreamingEngine.

The batched engine must produce *identical* result pairs (same pairs,
same order) and identical ``MultiStepStats`` filter classifications
(hit / false hit / remaining candidate, plus every test counter) for
every predicate, filter configuration, and refinement batch size.  The
harness generates seeded-random relation pairs — ``test_differential_fuzz``
alone covers > 200 of them — and asserts equivalence on each.
"""

from __future__ import annotations

import pytest

from helpers import (
    assert_engines_equivalent,
    random_relation_pair,
    run_both_engines,
)
from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig
from repro.engine.base import create_engine
from repro.engine.batched import BatchedEngine
from repro.engine.streaming import StreamingEngine

# Filter/refinement/predicate coverage: every approximation family
# (rect, general convex, circle, ellipse), both test orders, the
# false-area test, no-filter, both predicates, and refinement batch
# sizes beside the default 64 (1, 7 and 1024).
CONFIGS = [
    JoinConfig(exact_method="vectorized"),  # paper default: 5-C + MER
    JoinConfig(
        filter=FilterConfig(conservative="MBR", progressive=None),
        exact_method="vectorized",
    ),
    JoinConfig(
        filter=FilterConfig(conservative="RMBR", progressive="MER",
                            use_false_area_test=True),
        exact_method="vectorized",
    ),
    JoinConfig(
        filter=FilterConfig(conservative="MBC", progressive="MEC"),
        exact_method="vectorized",
    ),
    JoinConfig(
        filter=FilterConfig(conservative="MBE", progressive="MER",
                            progressive_first=True),
        exact_method="vectorized",
    ),
    JoinConfig(
        filter=FilterConfig(conservative="CH", progressive="MER",
                            use_false_area_test=True),
        exact_batch=1,
    ),
    JoinConfig(
        filter=FilterConfig(conservative=None, progressive="MER"),
        exact_batch=7,
    ),
    JoinConfig(
        filter=FilterConfig(conservative=None, progressive=None),
        exact_batch=1024,
    ),
    JoinConfig(exact_method="vectorized", predicate="within"),
    JoinConfig(
        filter=FilterConfig(conservative="4-C", progressive="MEC"),
        predicate="within",
        buffer_pages=8,
    ),
]

_IDS = [
    f"{c.predicate}-b{c.exact_batch}-{c.filter.describe().replace(', ', '+')}"
    for c in CONFIGS
]


@pytest.mark.parametrize("config", CONFIGS[:4], ids=_IDS[:4])
def test_engines_equivalent_smoke(config):
    """Quick subset of the harness (kept out of the slow marker)."""
    for seed in (1, 2):
        rel_a, rel_b = random_relation_pair(seed)
        assert_engines_equivalent(rel_a, rel_b, config)


@pytest.mark.slow
@pytest.mark.parametrize("config", CONFIGS, ids=_IDS)
def test_differential_fuzz(config):
    """≥ 200 generated relation pairs across all configs (10 × 21)."""
    for seed in range(100, 121):
        rel_a, rel_b = random_relation_pair(seed)
        assert_engines_equivalent(rel_a, rel_b, config)


@pytest.mark.slow
def test_batch_size_sweep():
    """Equivalence is independent of the block size, including size 1."""
    rel_a, rel_b = random_relation_pair(42, n_objects=20)
    config = JoinConfig(exact_method="vectorized")
    for batch_size in (1, 2, 7, 64, 4096):
        assert_engines_equivalent(rel_a, rel_b, config, batch_size=batch_size)


def test_equivalence_on_paper_series(tiny_series, tiny_oracle):
    """Both engines agree with each other and the nested-loops oracle."""
    config = JoinConfig(exact_method="vectorized")
    streaming, batched = run_both_engines(
        tiny_series.relation_a, tiny_series.relation_b, config
    )
    assert streaming.id_pairs() == batched.id_pairs()
    assert set(batched.id_pairs()) == tiny_oracle


def test_create_engine_dispatch():
    """``batched`` is the default engine; ``streaming`` stays selectable."""
    assert isinstance(create_engine(JoinConfig()), BatchedEngine)
    assert isinstance(
        create_engine(JoinConfig(engine="streaming")), StreamingEngine
    )
    assert create_engine(JoinConfig()).name == "batched"
    assert create_engine(JoinConfig(engine="streaming")).name == "streaming"


def test_cli_engine_flag(tmp_path, capsys):
    """`--engine batched` produces the same CLI report as streaming."""
    from repro.cli import main
    from repro.datasets.io import save_relation

    rel_a, rel_b = random_relation_pair(7)
    path_a = str(tmp_path / "a.wkt")
    path_b = str(tmp_path / "b.wkt")
    save_relation(rel_a, path_a)
    save_relation(rel_b, path_b)

    assert main([
        "join", path_a, path_b, "--exact", "vectorized",
        "--engine", "streaming",
    ]) == 0
    out_streaming = capsys.readouterr().out
    assert main([
        "join", path_a, path_b, "--exact", "vectorized",
        "--engine", "batched", "--batch-size", "32",
    ]) == 0
    out_batched = capsys.readouterr().out
    assert out_batched == out_streaming


def test_parallel_simulator_accepts_engine():
    """The tile simulator runs its local joins on the chosen engine."""
    from repro.core.parallel import simulate_parallel_join

    rel_a, rel_b = random_relation_pair(3)
    config = JoinConfig(exact_method="vectorized")
    report_s = simulate_parallel_join(
        rel_a, rel_b, grid=(2, 2), config=config, engine="streaming"
    )
    report_b = simulate_parallel_join(
        rel_a, rel_b, grid=(2, 2), config=config, engine="batched"
    )
    assert report_s.result.id_pairs() == report_b.result.id_pairs()
    assert [sim.speedup for _, sim in report_s.simulations] == [
        sim.speedup for _, sim in report_b.simulations
    ]
