"""The benchmark's workloads: fracsde commands run one after another.

Load is a closed loop with one client: a workload process runs its
commands in order, each starting when the one before it has finished.
``--seed``, ``--threads`` and ``--out`` are added to every command.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    commands: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        # The headline one-parameter study: the Hermite chaos sum dominates,
        # then the fBm sampler and the Wick Euler scheme.  No quadrature, no
        # operators, no sheet code: the bypass for changes to those.
        # euler-study runs at a = 0.25 and 20000 samples, not the battery's
        # a = 1 and 10000: there its alpha = 0.3 verdict (err(128) >=
        # err(8)/2, no standard-error margin) fails at 9 of 200 seeds.  Here
        # the ratio's minimum over 250 seeds is 0.551 (median 0.583).
        Workload("line-chaos", 1, (
            ("exact-vs-chaos", "--alpha", "0.3", "--a", "1", "--b", "0",
             "--grid-n", "64", "--samples", "100000", "--truncation", "28"),
            ("euler-study", "--a", "0.25", "--samples", "20000"),
        )),
        # Sheet noise: normal draws bound girsanov-check, the einsum sampler
        # bounds simulate, the inverse-kernel quadrature is set-up.  The only
        # workload that runs the chunk thread pool.
        Workload("sheet-fields", 2, (
            ("simulate", "--alpha", "0.3", "--beta", "0.7", "--grid-n", "16",
             "--samples", "50000"),
            ("girsanov-check", "--alpha", "0.3", "--beta", "0.3", "--epsilon", "1",
             "--grid-n", "64", "--samples", "100000"),
        )),
        # The drifted chain recursion holds cells x cells matrices, so memory
        # and BLAS bound it; the operator checks add the adjoint-kernel
        # quadrature.  Grid 48: grid 16 is too short to time, grid 64 needs
        # 1.4 GB.
        Workload("sheet-chain", 1, (
            ("negativity", "--T", "3", "--grid-n", "48", "--epsilon", "0.05",
             "--samples", "2000"),
            ("operator-check", "--alpha", "0.25"),
            ("operator-check", "--alpha", "0.75"),
        )),
    )
}

