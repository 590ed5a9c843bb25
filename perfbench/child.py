"""One repetition of a workload in a fresh process: set up, run, report.

Run as ``python3 perfbench/child.py SPEC``.  SPEC is a JSON file that names
the package source tree, the config files to parse during set-up, the
``qmkdv`` argument lists to pass to ``qmkdv.cli.main`` in order, whether to
trace, the host-speed probe kernel, and where to write the result.  With
no argument lists the process only sets up.  The result holds the monotonic
clock reading at the end of set-up (the parent took its own reading before
starting this process), the wall time of the ``main`` calls, their exit
codes, the probe slices timed right after set-up and sampled during the
calls (``calibrate.py``) and the process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# interp slices timed right after set-up to measure the host speed
SETUP_SLICES = 20


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import numpy as np

    # numpy 2.4 removed np.trapz, which qmkdv.littlewood_paley evaluates at
    # import time (ROADMAP defect D1).  Aliasing it to np.trapezoid changes no
    # value: getattr(np, "trapezoid", ...) still returns np.trapezoid.  The
    # shim goes away once D1 is fixed in the package.
    shim = not hasattr(np, "trapz")
    if shim:
        np.trapz = np.trapezoid
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)
    from qmkdv import cli

    import calibrate

    if not str(Path(cli.__file__).resolve()).startswith(src):
        raise SystemExit(f"imported qmkdv from {cli.__file__}, expected it under {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    for path in spec["configs"]:
        cli.parse_config(path)
    ready = time.monotonic()

    # host speed right after set-up, to scale the set-up time; see calibrate.py
    setup_slices = calibrate.slices("interp", SETUP_SLICES)
    result = {
        "ready_monotonic": ready,
        "setup_probe_s": setup_slices,
        "setup_speed_factor": calibrate.speed_factor("interp", setup_slices),
        "trapz_shim_applied": shim,
    }
    if spec["argv"]:
        # probe slices sampled during the study calls; see calibrate.py
        with calibrate.Sampler(spec["probe"]) as sampler:
            t0 = time.perf_counter()
            codes = [cli.main(argv) for argv in spec["argv"]]
            wall = time.perf_counter() - t0
        result.update(
            {
                "wall_s": wall,
                "probe_handler_s": sampler.handler_s,
                "exit_codes": codes,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "probe_kernel": spec["probe"],
                "probe_s": sampler.slices,
                "speed_factor": sampler.speed_factor(),
            }
        )
    if tracer is not None:
        result["layers"], result["law"] = layer_metrics(tracer.names, tracer.spans, tracer.draws)
        tracer.dump(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
