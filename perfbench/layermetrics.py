"""Per-layer metrics of one traced operation, and the repeat check."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import child_coverage, self_times

CALLS = ("riesz.build_kernel", "riesz.convolve", "problem.eval_F",
         "problem.eval_f", "energy.dilate", "energy.energy",
         "thresholds.build_bundle")
SELF_S = ("riesz.convolve", "problem.eval_F", "problem.eval_f",
          "energy.dilate", "energy.energy", "thresholds.build_bundle",
          "minimize.solve", "fiber.fiber_curve", "cli.main")
TOTAL_S = ("riesz.build_kernel", "grid.write_field", "grid.read_field",
           "thresholds.build_bundle", "cli.residual_block")
FFT_MODULES = ("riesz", "grid", "energy", "minimize")
MIN_ROOT_COVERAGE = 0.98


def op_metrics(tracer, op_id: str, wall: float) -> dict:
    """Metrics of one operation plus its `counts` fingerprint."""
    spans = tracer.op_spans(op_id)
    selfs = self_times(spans)
    calls = Counter(s.name for s in spans)
    total_s, self_s = defaultdict(float), defaultdict(float)
    for s in spans:
        total_s[s.name] += s.duration
        self_s[s.name] += selfs[s.sid]
    fft = tracer.fft3d_by_module(op_id)
    root = next(s for s in spans if s.name == "bench.op")
    iterations = sum(s.attrs["iterations"] for s in spans
                     if s.name == "minimize.solve")
    trials = sum(1 for s in spans
                 if s.name == "problem.eval_F" and s.site == "minimize")
    out = {f"{n}.calls": calls[n] for n in CALLS}
    out.update({f"{n}.self_s": self_s[n] for n in SELF_S})
    out.update({f"{n}.s": total_s[n] for n in TOTAL_S})
    out.update({f"{m}.fft3d.calls": fft.get(m, 0) for m in FFT_MODULES})
    out.update({
        "fft3d.calls": sum(fft.values()),
        "grid.io.bytes": sum(s.attrs["bytes"] for s in spans if s.name in (
            "grid.write_field", "grid.read_field")),
        "minimize.iterations": iterations,
        "minimize.trials": trials,
        "minimize.accept_ratio": iterations / trials if trials else 0.0,
        "minimize.fft3d_per_iter": (fft.get("minimize", 0) / iterations
                                    if iterations else 0.0),
        "trace.spans": len(spans),
        "trace.orphan_spans": sum(1 for s in spans
                                  if s.parent is None and s is not root),
        "trace.root_coverage": root.duration / wall,
        "trace.child_coverage": child_coverage(spans, root),
    })
    out["counts"] = {
        "calls": Counter((s.name, s.site) for s in spans),
        "fft3d": fft,
        "iterations": iterations,
    }
    return out


def count_mismatches(first: list[dict], second: list[dict]):
    """(op index, description) for each op whose counts differ."""
    out = []
    for i, (a, b) in enumerate(zip(first, second)):
        diffs = []
        for key in ("calls", "fft3d"):
            ca, cb = a["counts"][key], b["counts"][key]
            diffs += [f"{k}: {ca.get(k, 0)} vs {cb.get(k, 0)}"
                      for k in sorted(set(ca) | set(cb), key=str)
                      if ca.get(k, 0) != cb.get(k, 0)]
        if a["counts"]["iterations"] != b["counts"]["iterations"]:
            diffs.append(f"iterations: {a['counts']['iterations']} vs "
                         f"{b['counts']['iterations']}")
        if diffs:
            out.append((i, ", ".join(diffs)))
    return out


def summarize(per_op: list[dict]) -> dict:
    """Per-operation mean of every metric across the traced operations."""
    keys = [k for k in per_op[0] if k != "counts"]
    return {k: statistics.fmean(op[k] for op in per_op) for k in keys}
