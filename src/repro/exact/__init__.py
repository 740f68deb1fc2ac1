"""Exact geometry processors (paper §4): quadratic, plane sweep, TR*.

Every join refines through the batched columnar pipeline in
:mod:`repro.exact.refine`; the paper's per-pair processors
(:mod:`~repro.exact.bruteforce`, :mod:`~repro.exact.planesweep`,
:mod:`~repro.exact.trstar_test`) run in the §4 benches and as test
oracles.  Import each name from its defining module; this package
re-exports nothing.
"""
