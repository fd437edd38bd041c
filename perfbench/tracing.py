"""Spans and counters around the nlhom layers, installed from outside.

The traced run replaces chosen functions of the package with wrappers for
the length of one round and puts the originals back afterwards; nothing
under ``src/`` changes.  A wrapper replaces every module or class attribute
that refers to the original, so calls through ``from .x import f``
bindings are caught too.  Spans (name, start, end, parent) stay in memory
and are written out when the run ends.

Self time is a span's duration minus the time its child spans cover.  Each
per-layer metric names the spans it reads: the layers below own the
functions the benchmark wraps.
"""

import sys
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def _replace(self, original, wrapper):
        holders = [m for name, m in sys.modules.items()
                   if name == "nlhom" or name.startswith("nlhom.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
                elif isinstance(value, type) and value.__module__.startswith(
                        "nlhom"):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._patches.append((value, cattr, original))
                            setattr(value, cattr, wrapper)

    def span(self, original, name, on_result=None):
        """Record a span around every call of ``original``."""
        self._replace(original, self._span_wrapper(original, name, on_result))

    def _span_wrapper(self, original, name, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                rec[2] = time.perf_counter()
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return wrapper

    def span_cost(self, calls=20000):
        """Seconds one span adds to a call, measured on a no-op."""
        def noop():
            return None

        wrapped = self._span_wrapper(noop, "calibration")
        first = len(self.spans)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        cost = (time.perf_counter() - start - bare) / calls
        del self.spans[first:]
        return cost

    def count(self, original, name):
        """Count calls of ``original`` without timing them."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(original, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    # -- reduction ----------------------------------------------------------

    def totals(self):
        """Per name: (calls, inclusive s, self s)."""
        spans = self.spans
        child = np.zeros(len(spans))
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(spans):
            calls, incl, slf = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start,
                         slf + end - start - child[i])
        return out

    def calls_under(self, name, ancestors):
        """Number of ``name`` spans that run inside any of ``ancestors``."""
        spans = self.spans
        hits = 0
        for span_name, _, _, parent in spans:
            if span_name != name:
                continue
            j = parent
            while j >= 0:
                if spans[j][0] in ancestors:
                    hits += 1
                    break
                j = spans[j][3]
        return hits


def _dense_bytes(counts, args, result):
    matrix = getattr(result, "matrix", None)
    if matrix is not None:
        counts["lineops.dense_bytes"] += matrix.nbytes


def _form_bytes(counts, args, result):
    # dissipativity_check_*(cset, m, eps, grid, ...) builds one dense form
    n = args[3].n
    counts["lineops.dense_bytes"] += 8 * n * n


def _resolvent_bytes(counts, args, result):
    counts["lineops.dense_bytes"] += result._resolvent.nbytes


def _het_step(counts, args, result):
    n = result.shape[0]
    m = result.shape[1] if result.ndim == 2 else 1
    counts["spde.path_steps"] += m
    counts["spde.het_flops"] += 2 * n * n * m


def _particles(prefix):
    def hook(counts, args, result):
        n_steps = int(round(result.T_end / result.dt))
        counts[prefix + "_path_steps"] += n_steps * result.n_paths
        if result.jump_counts is not None:
            counts["particles.accepted_jumps"] += int(result.jump_counts.sum())
        counts["particles.truncations"] += int(result.truncation_count)
    return hook


def install(tracer):
    """Wrap the public functions the per-layer metrics read."""
    from nlhom import cell, fixtures, kernels, lineops, particles, spde, torus

    tracer.span(fixtures.center_drift_I, "fixtures.center_drift")
    tracer.span(fixtures.center_drift_II, "fixtures.center_drift")
    tracer.span(kernels.kernel_moments, "kernels.moments")
    tracer.span(kernels.wrapped_kernel_samples, "kernels.wrapped_samples")
    tracer.span(torus.PeriodicField.shifted, "torus.shifted")
    tracer.span(torus._multiplier_matrix, "torus.multiplier_matrix")
    for stage, fn in CELL_STAGES:
        tracer.span(getattr(cell, fn), "cell." + stage)
    tracer.span(lineops.assemble_T_eps, "lineops.assemble_T_eps",
                _dense_bytes)
    tracer.span(lineops.assemble_V_eps, "lineops.assemble_V_eps",
                _dense_bytes)
    tracer.span(lineops.assemble_V0, "lineops.assemble_V0", _dense_bytes)
    tracer.span(lineops.residual_lemma_2_10, "lineops.residual_I")
    tracer.span(lineops.residual_part_II, "lineops.residual_II")
    tracer.span(lineops.dissipativity_check_I, "lineops.dissipativity_I",
                _form_bytes)
    tracer.span(lineops.dissipativity_check_II, "lineops.dissipativity_II",
                _form_bytes)
    tracer.count(lineops.LineOperator.adjoint_apply,
                 "lineops.adjoint_apply_calls")
    tracer.span(spde.run_ensemble, "spde.ensemble")
    tracer.span(spde.prepare_heterogeneous_I, "spde.prepare_het_I",
                _resolvent_bytes)
    tracer.span(spde.prepare_heterogeneous_II, "spde.prepare_het_II",
                _resolvent_bytes)
    tracer.span(spde.SemiImplicitStepper.step, "spde.het_step", _het_step)
    tracer.span(spde.SpectralStepper.step, "spde.hom_step")
    tracer.span(particles.simulate_jump_diffusion_I,
                "particles.jump_diffusion", _particles("particles.jump"))
    tracer.span(particles.simulate_signal_II, "particles.signal",
                _particles("particles.signal"))


CELL_STAGES = (
    ("assemble_I", "assemble_torus_generator_I"),
    ("invariant_density_I", "solve_invariant_density_I"),
    ("chi", "solve_corrector_chi"),
    ("compute_Q", "compute_Q"),
    ("h1", "solve_h1"),
    ("h2", "solve_h2"),
    ("zakai_I", "zakai_cell_I"),
    ("coercivity_I", "coercivity_witness_I"),
    ("assemble_II", "assemble_torus_generator_II"),
    ("invariant_density_II", "solve_invariant_density_II"),
    ("h3", "solve_h3"),
    ("e1", "solve_e1"),
)


def layer_metrics(tracer, n_rounds):
    """Per-layer metrics per traced round.  Times are self times unless the
    name says otherwise in the README; counts are exact."""
    tot = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0] / n_rounds

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1] / n_rounds

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2] / n_rounds

    def per_round(key):
        return counts[key] / n_rounds

    def ns_per(seconds, steps):
        return 1e9 * seconds / steps if steps else 0.0

    m = {
        "fixtures.center_drift_s": incl("fixtures.center_drift"),
        "fixtures.center_drift_solves": tracer.calls_under(
            "cell.invariant_density_I", {"fixtures.center_drift"})
        / n_rounds + tracer.calls_under(
            "cell.invariant_density_II", {"fixtures.center_drift"})
        / n_rounds,
        "kernels.moments_s": self_s("kernels.moments"),
        "kernels.wrapped_samples_s": self_s("kernels.wrapped_samples"),
        "torus.shifted_calls": calls("torus.shifted"),
        "torus.shifted_s": self_s("torus.shifted"),
        "torus.multiplier_matrix_s": self_s("torus.multiplier_matrix"),
    }
    for stage, _ in CELL_STAGES:
        m["cell.%s_s" % stage] = self_s("cell." + stage)
        m["cell.%s_calls" % stage] = calls("cell." + stage)
    for key in ("assemble_T_eps", "assemble_V_eps", "assemble_V0",
                "residual_I", "residual_II", "dissipativity_I",
                "dissipativity_II"):
        m["lineops.%s_s" % key] = self_s("lineops." + key)
    m["lineops.adjoint_apply_calls"] = per_round("lineops.adjoint_apply_calls")
    m["lineops.dense_bytes"] = per_round("lineops.dense_bytes")
    het_s = self_s("spde.het_step")
    m.update({
        "spde.prepare_het_I_s": incl("spde.prepare_het_I"),
        "spde.prepare_het_II_s": incl("spde.prepare_het_II"),
        "spde.resolvent_inverse_s": self_s("spde.prepare_het_I")
        + self_s("spde.prepare_het_II"),
        "spde.het_step_s": het_s,
        "spde.het_step_calls": calls("spde.het_step"),
        "spde.het_step_gflops": per_round("spde.het_flops") / het_s / 1e9
        if het_s else 0.0,
        "spde.hom_step_s": self_s("spde.hom_step"),
        "spde.hom_step_calls": calls("spde.hom_step"),
        "spde.ensemble_self_s": self_s("spde.ensemble"),
        "spde.path_steps": per_round("spde.path_steps"),
    })
    jump_s = incl("particles.jump_diffusion")
    signal_s = incl("particles.signal")
    m.update({
        "particles.jump_diffusion_s": jump_s,
        "particles.jump_diffusion_ns_per_path_step": ns_per(
            jump_s, per_round("particles.jump_path_steps")),
        "particles.accepted_jumps": per_round("particles.accepted_jumps"),
        "particles.signal_s": signal_s,
        "particles.signal_ns_per_path_step": ns_per(
            signal_s, per_round("particles.signal_path_steps")),
        "particles.truncations": per_round("particles.truncations"),
    })
    return m
