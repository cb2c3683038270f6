"""Per-layer tracing for the traced benchmark run.

Wrappers are bound where each layer is actually called: ``lp`` and ``zf``
import ``solve_covariance_subproblem``, ``solve_precoder_subproblem`` and
``leading_eigpair`` by bare name, so those names are patched in the calling
module's namespace; methods are patched on their class.  Every wrapper
records calls, inclusive time and self time (inclusive minus the time of
nested wrapped calls), and a few read counters from the block's return
value.  ``CALLERS`` names the unit kinds that reach each wrapped function;
the traced run checks calls > 0 exactly where a caller ran, so a wrapper
that failed to bind shows as a check failure instead of as an idle layer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

AO_KINDS = frozenset({"LP-MA", "ZF-MA", "LP-FIX", "ZF-FIX"})
ALL_KINDS = AO_KINDS | {"POS"}
LP_AO = frozenset({"LP-MA", "LP-FIX"})
ZF_AO = frozenset({"ZF-MA", "ZF-FIX"})

# wrapped key -> unit kinds that call it (and so must show calls when run)
CALLERS = {
    "subsolver.cov_solve": AO_KINDS,
    "subsolver.cov_obj": AO_KINDS,
    "subsolver.psd_trace_project": AO_KINDS,
    "subsolver.leading_eigpair": AO_KINDS,
    "subsolver.prec_solve": LP_AO,
    "subsolver.prec_obj": LP_AO,
    "lp.u": LP_AO,
    "lp.W": LP_AO,
    "lp.v": LP_AO,
    "lp.q": {"LP-MA", "POS"},
    "lp.t": {"LP-MA", "POS"},
    "lp.grad_user_rate_lp": {"LP-MA", "POS"},
    "lp.grad_bs_rate_lp": {"LP-MA", "POS"},
    "zf.u": ZF_AO,
    "zf.v": ZF_AO,
    "zf.q": {"ZF-MA", "POS"},
    "zf.t": {"ZF-MA", "POS"},
    "zf.ZfWorkspace": {"ZF-MA", "POS"},
    "zf.grad_user_wsr_zf": {"ZF-MA", "POS"},
    "zf.grad_bs_wsr_zf": {"ZF-MA", "POS"},
    "metrics.logdet_hpd": ALL_KINDS,
    "metrics.zf_precoder": ZF_AO | {"POS"},
    "metrics.rate_lp_w": LP_AO | {"POS"},
    "metrics.zf_rates": ZF_AO | {"POS"},
    "geometry.build_channels": ALL_KINDS,
    "geometry.rebuild_user_channel": {"LP-MA", "ZF-MA", "POS"},
    "geometry.min_spacing_ok": ALL_KINDS,
    "geometry.project_points_to_region": {"LP-MA", "ZF-MA", "POS"},
    "harness.initial_placement": ALL_KINDS,
}

# counters read from return values, RunResults and nested calls
COUNTERS = (
    "lp.W.sca_rounds", "lp.v.sca_rounds", "lp.q.steps",
    "lp.t.alm_rounds", "lp.t.inner_steps", "lp.t.ls_exhausted",
    "zf.v.sca_rounds",
    "zf.q.alm_rounds", "zf.q.inner_steps", "zf.q.ls_exhausted",
    "zf.t.alm_rounds", "zf.t.inner_steps", "zf.t.ls_exhausted",
    "lp.block_rejects", "lp.outer_iters", "lp.rank_flags",
    "zf.block_rejects", "zf.outer_iters", "zf.rank_flags",
)

# wrapped key -> per-call microseconds reported (the ROADMAP baseline table)
PER_CALL_US = ("geometry.build_channels", "metrics.zf_precoder",
               "metrics.rate_lp_w", "zf.ZfWorkspace", "subsolver.cov_obj")


def _alm_counts(prefix, info_index):
    def on_return(counts, out):
        info = out[info_index]
        counts[f"{prefix}.alm_rounds"] += info.outer_rounds
        counts[f"{prefix}.inner_steps"] += info.inner_steps
        counts[f"{prefix}.ls_exhausted"] += int(info.line_search_exhausted)
    return on_return


def _add(name, index):
    def on_return(counts, out):
        counts[name] += out[index]
    return on_return


def _bindings(nf):
    """(owner, attribute, key, extra counter bumped per call, on_return)."""
    g, h, lp, m, sub, zf = (nf[k] for k in
                            ("geometry", "harness", "lp", "metrics", "subsolver", "zf"))
    b = [
        (lp, "solve_covariance_subproblem", "subsolver.cov_solve", "lp.v.sca_rounds", None),
        (zf, "solve_covariance_subproblem", "subsolver.cov_solve", "zf.v.sca_rounds", None),
        (lp, "solve_precoder_subproblem", "subsolver.prec_solve", None, None),
        (sub.CovarianceSubproblem, "objective_and_grad", "subsolver.cov_obj", None, None),
        (sub.PrecoderSubproblem, "surrogate_and_grad", "subsolver.prec_obj", None, None),
        (sub, "psd_trace_project", "subsolver.psd_trace_project", None, None),
        (lp, "optimal_combiner_lp", "lp.u", None, None),
        (lp, "optimize_precoders", "lp.W", None, _add("lp.W.sca_rounds", 1)),
        (lp, "optimize_sense_beam_lp", "lp.v", None, None),
        (lp, "optimize_user_positions", "lp.q", None, _add("lp.q.steps", 2)),
        (lp, "optimize_bs_positions_alm", "lp.t", None, _alm_counts("lp.t", 3)),
        (lp, "grad_user_rate_lp", "lp.grad_user_rate_lp", None, None),
        (lp, "grad_bs_rate_lp", "lp.grad_bs_rate_lp", None, None),
        (zf, "optimal_combiner_zf", "zf.u", None, None),
        (zf, "optimize_sense_beam_zf", "zf.v", None, None),
        (zf, "optimize_user_positions_alm_zf", "zf.q", None, _alm_counts("zf.q", 4)),
        (zf, "optimize_bs_positions_alm_zf", "zf.t", None, _alm_counts("zf.t", 4)),
        (zf.ZfWorkspace, "__init__", "zf.ZfWorkspace", None, None),
        (zf, "grad_user_wsr_zf", "zf.grad_user_wsr_zf", None, None),
        (zf, "grad_bs_wsr_zf", "zf.grad_bs_wsr_zf", None, None),
        (m, "logdet_hpd", "metrics.logdet_hpd", None, None),
        (m, "zf_precoder", "metrics.zf_precoder", None, None),
        (m, "rate_lp_w", "metrics.rate_lp_w", None, None),
        (m, "zf_rates", "metrics.zf_rates", None, None),
        (g, "build_channels", "geometry.build_channels", None, None),
        (g, "rebuild_user_channel", "geometry.rebuild_user_channel", None, None),
        (g, "min_spacing_ok", "geometry.min_spacing_ok", None, None),
        (g, "project_points_to_region", "geometry.project_points_to_region", None, None),
        (h, "initial_placement", "harness.initial_placement", None, None),
    ]
    b += [(owner, "leading_eigpair", "subsolver.leading_eigpair", None, None)
          for owner in (sub, lp, zf)]
    return b


class Tracer:
    """Calls, inclusive and self time per wrapped key, plus counters.

    Spans live in memory only; ``install`` patches the library and
    ``uninstall`` restores every original, so untraced runs in the same
    process see the unwrapped library.
    """

    def __init__(self, nf):
        self.nf = nf
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._saved = []

    def _wrap(self, key, fn, extra, on_return):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]                       # time spent in nested wrapped calls
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[key] += 1
                self.incl[key] += dt
                self.self_s[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if extra:
                    self.counts[extra] += 1
            if on_return:
                on_return(self.counts, out)
            return out

        return wrapper

    def install(self):
        for owner, attr, key, extra, on_return in _bindings(self.nf):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(key, fn, extra, on_return))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def check(self, kinds_run):
        """Violations of CALLERS for the unit kinds that ran: a key with no
        calls though a caller ran (wrapper never bound, or the layer was
        skipped), or calls though no caller ran (work where none is expected)."""
        bad = []
        for key, callers in CALLERS.items():
            expect = bool(callers & kinds_run)
            if expect != (self.calls[key] > 0):
                bad.append(f"{key}: {self.calls[key]} calls, expected "
                           f"{'some' if expect else 'none'} for {sorted(kinds_run)}")
        return bad


def block_gains(run, stack, acc):
    """Visits and WSR rises per block from a RunResult trace; q0, q1... pool
    into q."""
    prev = run.trace[0].wsr
    for rec in run.trace[1:]:
        block = "q" if rec.block.startswith("q") else rec.block
        acc[f"{stack}.{block}.visits"] += 1
        if rec.wsr > prev:
            acc[f"{stack}.{block}.rises"] += 1
        prev = rec.wsr


def layer_metrics(tracer, acc):
    """Every per-layer value the traced run can give, keyed by metric name.

    ``acc`` carries what the benchmark summed outside the wrappers: RunResult
    totals, block visits and rises, and the MA-unit time split.
    """
    out = {}
    for key in CALLERS:
        out[f"{key}.calls"] = tracer.calls[key]
        out[f"{key}.s"] = tracer.incl[key]
        out[f"{key}.self_s"] = tracer.self_s[key]
    for key in PER_CALL_US:
        n = tracer.calls[key]
        out[f"{key}.us_per_call"] = tracer.incl[key] / n * 1e6 if n else 0.0
    solves = tracer.calls["subsolver.cov_solve"]
    out["subsolver.cov_obj.per_solve"] = (
        tracer.calls["subsolver.cov_obj"] / solves if solves else 0.0)
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0) + acc.get(name, 0)
    for stack in ("lp", "zf"):
        for block in ("u", "W", "v", "q", "t"):
            visits = acc.get(f"{stack}.{block}.visits", 0)
            out[f"{stack}.{block}.gain_ratio"] = (
                acc.get(f"{stack}.{block}.rises", 0) / visits if visits else 0.0)
        ma_s = acc.get(f"{stack}.ma_s", 0.0)
        out[f"{stack}.v.ma_share"] = acc.get(f"{stack}.v.ma_s", 0.0) / ma_s if ma_s else 0.0
    return out
