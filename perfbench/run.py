"""qmkdv benchmark: run one workload for a fixed time, check it, report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``workloads.py``, or ``all`` to run each
in turn.  Repetitions of the workload, each a fresh process
(``perfbench/child.py``) that calls ``qmkdv.cli.main``, run back to back until
``S`` seconds have passed (at least ``MIN_REPS`` of them).  Every repetition's
outputs are checked; a repetition fails if a study exits non-zero, a counted
gate flag is false, or a tolerance is exceeded.

With ``--trace 0`` the end-to-end metrics are reported: medians over the
repetitions of ``wall_norm_s`` (the study calls), ``setup_s`` (process start
to package imported and config generated and parsed; processes that only
set up make up ``MIN_SETUPS`` samples) and ``peak_rss_mb``, and the largest
``err_vs_ref``.  ``wall_norm_s`` is the wall time of the study calls, less
the probe slices sampled during them, scaled by the mean host speed those
slices measure; ``setup_s`` is scaled by the host speed measured right after
set-up (``calibrate.py``).  The host's speed drifts by tens of percent within
minutes, and the scaled times drift much less.  The raw median times and the
speed factor are printed and kept in the result record.  With
``--trace 1`` plain and traced repetitions alternate and the per-layer
metrics of ``tracer.py`` are reported, with ``trace.overhead_s`` the
difference of their median ``wall_norm_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, spans and a
full result record (gates, recorded values, environment) go to
``.bench_out/<workload>/``; reference runs are cached in ``.bench_cache/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Integrator, Resonance, config_text

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache"
MIN_REPS = 2
MIN_SETUPS = 12
CHILD_TIMEOUT_S = 150
# N(phi) evaluations per attempted step: three Lawson RK4 steps (one full,
# two halves) of four stages each.
RHS_PER_ATTEMPT = 12

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "err_vs_ref": "rel"}
# per-layer metrics that are times; all others are counts or ratios that
# must repeat exactly between traced repetitions
TIME_SUFFIXES = (".s", ".self_s", ".us_per_call", ".ms_p50", ".ms_p99", ".observer_share")


def layer_unit(name: str) -> str:
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith((".ms_p50", ".ms_p99")):
        return "ms"
    if name.endswith((".s", ".self_s", "overhead_s")):
        return "s"
    if name.endswith((".bytes_computed", ".bytes")):
        return "B"
    if name.endswith((".accept_ratio", ".observer_share", ".rhs_per_step")):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": platform.machine(),
        "openblas_version": None,
        "openblas_threads": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["openblas_version"] = blas.get("version")
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                env["openblas_threads"] = fn()
                break
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qmkdv").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def repetition(studies: list, work: Path, trace: bool, probe: str, setup_only: bool = False) -> tuple[dict, Path]:
    """One fresh process running the studies (or only setting up for them);
    returns its result and output dir."""
    rep = work / "rep"
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir(parents=True)
    t0 = time.monotonic()
    configs, argv = [], []
    for study, cfg, extra in studies:
        path = rep / f"{study}.cfg"
        path.write_text(config_text(cfg), encoding="utf-8")
        configs.append(str(path))
        argv.append([study, "--config", str(path), "--out", str(rep / "out" / study), "--threads", "1", *extra])
    spec = {
        "src": str(SRC),
        "configs": configs,
        "argv": [] if setup_only else argv,
        "trace": trace,
        "probe": probe,
        "result": str(rep / "result.json"),
        "spans": str(work / "spans.json"),
    }
    spec_path = rep / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
    result["setup_raw_s"] = result.pop("ready_monotonic") - t0
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed_factor"]
    if setup_only:
        return result, rep / "out"
    result["wall_norm_s"] = (result["wall_s"] - result["probe_handler_s"]) * result["speed_factor"]
    if any(result["exit_codes"]):
        result["error"] = f"study exit codes {result['exit_codes']}: {proc.stderr.strip()[-2000:]}"
    return result, rep / "out"


def reference(workload, seed: int, work: Path):
    """The workload's reference: committed ratios, or a cached tight run."""
    if isinstance(workload, Resonance):
        return json.loads(workload.reference_path.read_text(encoding="utf-8"))
    if not isinstance(workload, Integrator):
        return None
    studies = workload.studies(seed, reference=True)
    key = hashlib.sha256((repr(studies) + source_digest()).encode()).hexdigest()[:16]
    path = CACHE / f"{workload.name}-{seed}-{key}.json"
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    result, out = repetition(studies, work, trace=False, probe=workload.probe)
    if "error" in result:
        raise RuntimeError(f"reference run failed: {result['error']}")
    series = workload.reference_series(out)
    CACHE.mkdir(exist_ok=True)
    path.write_text(json.dumps(series), encoding="utf-8")
    return series


def checked(workload, seed: int, work: Path, ref, trace: bool) -> dict:
    """Run one repetition and check it; never raises for a failed study."""
    try:
        rec, out = repetition(workload.studies(seed), work, trace, workload.probe)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return {"failed": True, "reasons": [str(e)]}
    reasons = [rec["error"]] if "error" in rec else []
    if not reasons:
        try:
            chk = workload.check(out, ref)
        except (OSError, ValueError, KeyError) as e:
            chk = None
            reasons.append(f"outputs unreadable: {type(e).__name__}: {e}")
        if chk is not None:
            rec.update(chk)
            reasons += [f"gate {k} is false" for k, v in chk["flags"].items() if not v and k not in workload.uncounted]
            reasons += [f"limit {k} exceeded" for k, v in chk["limits"].items() if not v]
            if not chk["err_vs_ref"] <= workload.tolerance:
                reasons.append(f"err_vs_ref {chk['err_vs_ref']:.3e} above tolerance {workload.tolerance:.1e}")
    if trace and "law" in rec:
        law = rec["law"]
        attempted = law["accepted"] + law["rejected"]
        if law["rhs_calls"] != RHS_PER_ATTEMPT * attempted or law["lawson_calls"] != 3 * attempted:
            reasons.append(f"traced counts break N(phi) = {RHS_PER_ATTEMPT} x attempted steps: {law}")
        values = rec.get("values", {})
        if "steps" in values and (values["steps"], values["rejected_steps"]) != (law["accepted"], law["rejected"]):
            reasons.append(f"traced step counts {law} differ from the report {values}")
    rec["failed"] = bool(reasons)
    rec["reasons"] = reasons
    return rec


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    name = workload.name
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    ref = reference(workload, seed, work)

    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        # in a traced run, plain and traced repetitions alternate
        reps.append(checked(workload, seed, work, ref, trace=trace and len(reps) % 2 == 1))
    plain = [r for r in reps if "wall_s" in r and "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    failed = sum(r["failed"] for r in reps)
    if not plain or (trace and not traced):
        raise RuntimeError("no repetition completed: " + "; ".join(r["reasons"][0] for r in reps if r["reasons"]))
    timed = plain if not trace else traced
    # set-up is timed in every repetition; with few repetitions, processes
    # that only set up make up MIN_SETUPS of them
    setups = [{k: r[k] for k in ("setup_s", "setup_raw_s")} for r in plain]
    while not trace and len(setups) < MIN_SETUPS:
        rec, _ = repetition(workload.studies(seed), work, False, workload.probe, setup_only=True)
        setups.append({k: rec[k] for k in ("setup_s", "setup_raw_s")})
    samples = {
        "wall_norm_s": [r["wall_norm_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }

    notes = []
    if not trace:
        metrics = {
            "wall_norm_s": statistics.median(r["wall_norm_s"] for r in plain),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "err_vs_ref": max([r["err_vs_ref"] for r in plain if "err_vs_ref" in r] or [0.0]),
        }
        units = END_TO_END_UNITS
    else:
        first = traced[0]["layers"]
        metrics = {}
        for key in first:
            if key.endswith(TIME_SUFFIXES):
                metrics[key] = statistics.median(r["layers"][key] for r in traced)
            else:
                metrics[key] = first[key]
                if any(r["layers"][key] != first[key] for r in traced):
                    notes.append(f"count {key} differs between traced repetitions")
        metrics["trace.overhead_s"] = statistics.median(r["wall_norm_s"] for r in traced) - statistics.median(
            r["wall_norm_s"] for r in plain
        )
        units = {k: layer_unit(k) for k in metrics}

    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(reps),
        "failed": failed,
        "notes": notes,
        "trapz_shim_applied": any(r.get("trapz_shim_applied") for r in reps),
        "environment": environment(),
        "tolerance": workload.tolerance,
        "uncounted_gates": sorted(workload.uncounted),
        "raw_wall_s": statistics.median(r["wall_s"] for r in timed),
        "speed_factor": statistics.median(r["speed_factor"] for r in timed),
        "setups": setups,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"{name} seed={seed} trace={int(trace)}: {len(reps)} repetitions, {failed} failed "
          f"(one client, closed loop, --threads 1)")
    for k, v in metrics.items():
        line = f"  {k:<52} {v:.6g} {units[k]}"
        if k in samples:
            lo, _, hi = quartiles(samples[k])
            line += f"  (median of {len(samples[k])}, quartiles {lo:.6g} .. {hi:.6g})"
        elif k == "err_vs_ref":
            line += f"  (tolerance {workload.tolerance:g})"
        print(line)
    print(f"  raw wall_s median {summary['raw_wall_s']:.6g} s, host speed factor median "
          f"{summary['speed_factor']:.4g} (probe kernel {workload.probe})")
    if setups:
        print(f"  raw set-up median {statistics.median(r['setup_raw_s'] for r in setups):.6g} s")
    last = next((r for r in reversed(reps) if "flags" in r), {})
    if last:
        print("  gates: " + ", ".join(f"{k}={v}" + (" (not counted)" if k in workload.uncounted else "")
                                     for k, v in last["flags"].items()))
        print("  limits: " + ", ".join(f"{k}={v}" for k, v in last["limits"].items()))
        print("  values: " + json.dumps(last["values"]))
    for r in reps:
        for reason in r["reasons"]:
            print(f"  failure: {reason}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  trapz_shim_applied: {summary['trapz_shim_applied']}")
    print("  environment: " + json.dumps(summary["environment"]))
    return {
        "correct": failed == 0 and not notes,
        "attempted": len(reps),
        "failed": failed,
        "metrics": summary["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmkdv" / "cli.py").is_file():
        print(f"no qmkdv package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
            print(f"{name}: benchmark error: {e}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
