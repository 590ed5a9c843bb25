"""Per-layer tracing of ``qmkdv`` from outside, by wrapping its public functions.

The layers are the package's modules.  Every public function a layer defines
is replaced by a timing wrapper, both in the defining module and in every
package module that bound it with ``from ... import`` (``integrator`` calls
``nonlinearity_full`` through its own name, ``model`` calls ``padded_values``
through its own, and so on).  ``GridSpec.xi``/``parity`` are wrapped at class
level, ``SplitMix64.next_u64`` is counted, and ``numpy.fft.fft``/``ifft``/
``ifftn`` are wrapped as the ``spectral_core.fft`` span.

Each call records one span ``(name, start, end, parent, work)`` in memory;
``work`` is the call's size where one is defined (FFT points, bytes).  The
spans are written out once, when the traced process ends, and reduced to the
per-layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = (
    "cli",
    "integrator",
    "model",
    "spectral_core",
    "littlewood_paley",
    "diagnostics",
    "oscillatory",
    "rng",
)

COMPLEX_BYTES = 16


def _fft_points(args, kwargs, result) -> float:
    return float(np.asarray(args[0]).size)


def _separable_bytes(args, kwargs, result) -> float:
    # computed from argument shapes: the (m, n2*...*nd) pair matrix the
    # contraction builds plus the n1*...*nd lattice it produces, complex128
    axes, coeffs = args[0], args[1]
    ns = [ax.n for ax in axes]
    m = len(coeffs)
    lattice = int(np.prod(ns))
    return float(COMPLEX_BYTES * (m * lattice // ns[0] + lattice))


def _file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0]))


def _rejected_in_step(args, kwargs, result) -> float:
    return float(result.rejected - args[0].rejected)


# work measured per call for the spans that have one
WORK = {
    "spectral_core.fft": _fft_points,
    "littlewood_paley.s_infty_separable": _separable_bytes,
    "cli.write_csv": _file_bytes,
    "cli.write_json": _file_bytes,
    "integrator.step": _rejected_in_step,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.draws = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, 0.0)
            if work is not None:
                spans[idx] = (nid, t0, t1, parent, work(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and the FFT/grid/RNG hooks."""
        modules = [importlib.import_module(f"qmkdv.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

        grid_cls = modules[LAYERS.index("spectral_core")].GridSpec
        for attr in ("xi", "parity"):
            prop = vars(grid_cls)[attr]
            setattr(grid_cls, attr, property(self.wrap(f"spectral_core.grid_{attr}", prop.fget)))

        # the three variants share one metric name
        for attr in ("fft", "ifft", "ifftn"):
            setattr(np.fft, attr, self.wrap("spectral_core.fft", getattr(np.fft, attr)))

        rng_cls = modules[LAYERS.index("rng")].SplitMix64
        for attr in ("uniform", "normal", "normals"):
            setattr(rng_cls, attr, self.wrap(f"rng.{attr}", vars(rng_cls)[attr]))
        next_u64 = rng_cls.next_u64
        tracer = self

        def counted(rng_self):
            tracer.draws += 1
            return next_u64(rng_self)

        rng_cls.next_u64 = counted

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "draws": self.draws, "spans": self.spans}, fh)


def aggregate(names: list, spans: list) -> dict:
    """Per-name calls, inclusive seconds, self seconds, work and durations,
    plus each layer's outermost time (spans with no same-layer ancestor)."""
    child = [0.0] * len(spans)
    for nid, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats: dict = {}
    layer_s: dict = {layer: 0.0 for layer in LAYERS}
    layer_of = [n.split(".", 1)[0] for n in names]
    for i, (nid, t0, t1, parent, work) in enumerate(spans):
        name = names[nid]
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0, "durations": [], "parents": {}})
        dur = t1 - t0
        st["calls"] += 1
        st["s"] += dur
        st["self_s"] += dur - child[i]
        st["work"] += work
        st["durations"].append(dur)
        pname = names[spans[parent][0]] if parent >= 0 else ""
        st["parents"][pname] = st["parents"].get(pname, 0) + 1
        layer = layer_of[nid]
        p = parent
        while p >= 0 and layer_of[spans[p][0]] != layer:
            p = spans[p][3]
        if p < 0:
            layer_s[layer] += dur
    return {"names": stats, "layer_s": layer_s}


PER_CALL = ("padded_values", "transform_from_padded", "transform", "synthesize", "derivative")
DIAGNOSTICS = ("energy", "z_norm", "sharp_decay_product", "dispersive_ratio", "decay_fit")
OSCILLATORY = ("two_pi_identity", "gaussian_two_pi_selftest", "nonresonant_decay_study")


def layer_metrics(names: list, spans: list, draws: int) -> tuple[dict, dict]:
    """Reduce spans to the per-layer metrics; also return the counts that
    the caller cross-checks against the study's own report."""
    agg = aggregate(names, spans)
    st = agg["names"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0, "durations": [], "parents": {}}

    def get(name):
        return st.get(name, empty)

    steps = get("integrator.step")
    accepted = steps["calls"]
    rejected = int(steps["work"])
    attempted = accepted + rejected
    lawson = get("integrator.lawson_step")
    nfull = get("model.nonlinearity_full")
    rhs_calls = nfull["parents"].get("integrator.lawson_step", 0)
    step_ms = [1e3 * d for d in steps["durations"]] or [0.0]
    run_s = get("integrator.run")["s"]
    fft = get("spectral_core.fft")
    sep = get("littlewood_paley.s_infty_separable")
    writes = [get("cli.write_csv"), get("cli.write_json")]

    m = {
        "integrator.run.s": run_s,
        "integrator.step.calls": accepted,
        "integrator.step.rejected": rejected,
        "integrator.step.accept_ratio": accepted / attempted if attempted else 0.0,
        "integrator.step.ms_p50": float(np.percentile(step_ms, 50)),
        "integrator.step.ms_p99": float(np.percentile(step_ms, 99)),
        "integrator.lawson_step.calls": lawson["calls"],
        "integrator.lawson_step.self_s": lawson["self_s"],
        "integrator.rhs_per_step": rhs_calls / accepted if accepted else 0.0,
        "model.nonlinearity_full.calls": nfull["calls"],
        "model.nonlinearity_full.self_s": nfull["self_s"],
        "model.nonlinearity_full.us_per_call": 1e6 * nfull["s"] / nfull["calls"] if nfull["calls"] else 0.0,
        "model.hamiltonian.calls": get("model.hamiltonian")["calls"],
        "model.hamiltonian.s": get("model.hamiltonian")["s"],
        "model.dyadic_symbol_bound.calls": get("model.dyadic_symbol_bound")["calls"],
        "model.dyadic_symbol_bound.s": get("model.dyadic_symbol_bound")["s"],
    }
    for fn in PER_CALL:
        m[f"spectral_core.{fn}.calls"] = get(f"spectral_core.{fn}")["calls"]
        m[f"spectral_core.{fn}.self_s"] = get(f"spectral_core.{fn}")["self_s"]
    m.update(
        {
            "spectral_core.grid_xi.calls": get("spectral_core.grid_xi")["calls"],
            "spectral_core.grid_parity.calls": get("spectral_core.grid_parity")["calls"],
            "spectral_core.fft.calls": fft["calls"],
            "spectral_core.fft.points": int(fft["work"]),
            "spectral_core.fft.s": fft["s"],
            "spectral_core.fft.bytes_computed": int(2 * COMPLEX_BYTES * fft["work"]),
            "littlewood_paley.s_infty_separable.calls": sep["calls"],
            "littlewood_paley.s_infty_separable.s": sep["s"],
            "littlewood_paley.s_infty_separable.bytes_computed": int(sep["work"]),
        }
    )
    for fn in DIAGNOSTICS:
        m[f"diagnostics.{fn}.s"] = get(f"diagnostics.{fn}")["s"]
    m["diagnostics.observer_share"] = agg["layer_s"]["diagnostics"] / run_s if run_s else 0.0
    for fn in OSCILLATORY:
        m[f"oscillatory.{fn}.s"] = get(f"oscillatory.{fn}")["s"]
    m["rng.draws"] = draws
    m["rng.s"] = agg["layer_s"]["rng"]
    m["cli.parse_config.s"] = get("cli.parse_config")["s"]
    m["cli.write.s"] = sum(w["s"] for w in writes)
    m["cli.write.bytes"] = int(sum(w["work"] for w in writes))
    law = {"accepted": accepted, "rejected": rejected, "lawson_calls": lawson["calls"], "rhs_calls": rhs_calls}
    return m, law
