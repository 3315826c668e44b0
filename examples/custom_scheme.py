"""Extending the library: write, register, and evaluate a new scheme.

Run:  python examples/custom_scheme.py

Implements a scheme the paper does *not* have -- "QSS", quadratic
self-scheduling, whose chunks decrease quadratically instead of TSS's
linear ramp -- registers it, and then puts it through the full
evaluation pipeline unchanged: Table-1-style chunk trace, simulated
heterogeneous cluster (vs TSS/TFSS/DTSS), and a real multiprocessing
run verified against serial.  Everything works because schemes are
pure policies behind one interface.
"""

from __future__ import annotations

import numpy as np

from repro import drain, make, paper_cluster, paper_workload, simulate
from repro.core import Scheduler, register
from repro.runtime import run_parallel


class QuadraticScheduler(Scheduler):
    """QSS: chunk i is proportional to the square of the steps left.

    With ``N = 2p`` planned steps, step ``i`` gets
    ``C_i ~ (N - i + 1)^2`` scaled to cover ``I`` -- a steeper front
    ramp than TSS and a gentler tail than GSS.
    """

    name = "QSS"

    def __init__(self, total: int, workers: int) -> None:
        super().__init__(total, workers)
        steps = max(2 * workers, 2)
        weights = [(steps - i) ** 2 for i in range(steps)]
        scale = total / sum(weights) if weights else 0.0
        self._plan = [max(1, int(w * scale)) for w in weights]

    def _nominal(
        self, rem: int, step: int, wid: int, k: int
    ) -> tuple[int, int]:
        """``C_i = f(R_{i-1}, p)``: the planned size at step ``i``."""
        if step < len(self._plan):
            return self._plan[step], 0
        # Plan exhausted (rounding leftovers): GSS-style tail.
        return max(1, rem // (2 * self.workers)), 0


def main() -> None:
    register("QSS", QuadraticScheduler)

    print("QSS chunk trace for I = 1000, p = 4:")
    sizes = [c.size for c in drain(make("QSS", 1000, 4))]
    print(f"  {sizes}  (sum = {sum(sizes)})\n")

    workload = paper_workload(width=800, height=400)
    cluster = paper_cluster(workload)
    print("Simulated on the paper cluster (3 fast + 5 slow):")
    for name in ("QSS", "TSS", "TFSS", "DTSS"):
        result = simulate(name, workload, cluster)
        print(f"  {name:5s} T_p = {result.t_p:6.1f}s  "
              f"chunks = {result.total_chunks:3d}  "
              f"imbalance = {result.comp_imbalance():.2f}")
    print()

    small = paper_workload(width=200, height=100)
    run = run_parallel("QSS", small, 3)
    serial = small.execute_serial()
    ok = np.array_equal(
        np.asarray(run.results).reshape(serial.shape), serial
    )
    print(f"Real multiprocessing run: {run.elapsed:.2f}s on 3 workers, "
          f"results identical to serial: {ok}")


if __name__ == "__main__":
    main()
