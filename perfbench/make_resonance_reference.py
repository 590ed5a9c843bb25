"""Write ``perfbench/reference/resonance.json``, the resonance-sweep reference.

Run from the repository root: ``python3 perfbench/make_resonance_reference.py``.
For each row of the resonance-sweep workload it stores the study's
``ratio`` (n_axis 384) and ``refined_ratio`` (768), which every benchmark
run must reproduce, and ``fine_ratio`` on a 1536-point axis, against which
``err_vs_ref`` measures the sweep's discretization error.  Takes about
1.5 minutes and 1 GB of memory on a 2-core x86 machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import RESONANCE_REFERENCE, WORKLOADS

FINE_N_AXIS = 1536


def reference_doc(base: dict, fine_n_axis: int) -> dict:
    """Ratios of every (which, j) row of a resonance config, three resolutions."""
    import numpy as np

    if not hasattr(np, "trapz"):
        np.trapz = np.trapezoid  # see child.py
    sys.path.insert(0, str(Path("src").resolve()))
    from qmkdv.model import CoefficientSpec, dyadic_symbol_bound

    alpha2 = CoefficientSpec(family=base["coeff.family"]).alpha2
    n_axis = base["resonance.n_axis"]
    rows = []
    for which in ("T1", "dT1"):
        for j in range(base["resonance.j_min"], base["resonance.j_max"] + 1):
            rep = dyadic_symbol_bound(j, j, j, alpha2, which=which, n_axis=n_axis, refine=True)
            fine = dyadic_symbol_bound(j, j, j, alpha2, which=which, n_axis=fine_n_axis)
            rows.append(
                {
                    "which": which,
                    "j": j,
                    "ratio": rep["ratio"],
                    "refined_ratio": rep["refined_ratio"],
                    "fine_ratio": fine,
                }
            )
    return {"n_axis": n_axis, "refined_n_axis": 2 * n_axis, "fine_n_axis": fine_n_axis, "rows": rows}


def main() -> int:
    doc = reference_doc(WORKLOADS["resonance-sweep"].base, FINE_N_AXIS)
    RESONANCE_REFERENCE.parent.mkdir(exist_ok=True)
    RESONANCE_REFERENCE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
