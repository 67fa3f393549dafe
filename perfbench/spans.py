"""Span tracing for the traced run, from the benchmark's own files.

The tracer replaces public biphoton functions at every import site (each
``biphoton.*`` module attribute bound to the function) with a wrapper that
records a span: name, start, end, parent span and request id. Spans stay
in memory until the run ends. A target that cannot be found -- because it
was removed or moved under another name -- is reported absent and the
run goes on without it.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module where the function lives today, function name). The
# span name stays fixed when a function moves to another biphoton module.
TARGETS = (
    ("scenario.load_bundled", "biphoton.scenario", "load_bundled"),
    ("scenario.scenario_from_dict", "biphoton.scenario", "scenario_from_dict"),
    ("scenario.load_scenario", "biphoton.scenario", "load_scenario"),
    ("sources.build_waveguide_jsa", "biphoton.sources", "build_waveguide_jsa"),
    ("sources.build_ring_jsa", "biphoton.sources", "build_ring_jsa"),
    ("sources.apply_filter", "biphoton.sources", "apply_filter"),
    ("spectral.pump_amplitude", "biphoton.spectral", "pump_amplitude"),
    ("dispersion.phase_matching", "biphoton.dispersion", "phase_matching"),
    ("schmidt.schmidt_decompose", "biphoton.schmidt", "schmidt_decompose"),
    ("schmidt.purity", "biphoton.schmidt", "purity"),
    ("schmidt.jsa_overlap", "biphoton.schmidt", "jsa_overlap"),
    ("fringes.fringe_scan", "biphoton.fringes", "fringe_scan"),
    ("fringes.extract_visibility", "biphoton.fringes", "extract_visibility"),
    ("squeezing.lossy_density_diagonal", "biphoton.squeezing", "lossy_density_diagonal"),
    ("squeezing.mean_photon_number", "biphoton.squeezing", "mean_photon_number"),
    ("squeezing.trigger_probability", "biphoton.squeezing", "trigger_probability"),
    ("cli.build_jsa", "biphoton.cli", "build_jsa"),
    ("cli.cmd_jsi", "biphoton.cli", "cmd_jsi"),
    ("cli.cmd_purity", "biphoton.cli", "cmd_purity"),
    ("cli.cmd_schmidt", "biphoton.cli", "cmd_schmidt"),
    ("cli.cmd_fringe", "biphoton.cli", "cmd_fringe"),
    ("cli.cmd_stats", "biphoton.cli", "cmd_stats"),
    ("cli.cmd_table1", "biphoton.cli", "cmd_table1"),
    ("cli.main", "biphoton.cli", "main"),
)
ROOT_SPAN = "request"
SETUP_RID = 0
PACKAGE = "biphoton"


def _bound(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _grid_points(sig, args, kwargs, result):
    return {"n": int(result.values.shape[0])}


def _waveguide_counts(sig, args, kwargs, result):
    # pump nodes of the trapezoid rule (2 * halfwidth * points-per-FWHM + 1) x N^2
    a = _bound(sig, args, kwargs)
    nodes = int(round(2 * a["halfwidth_fwhms"] * a["points_per_fwhm"])) + 1
    n = int(result.values.shape[0])
    return {"n": n, "kernel_evals": nodes * n * n}


def _filter_counts(sig, args, kwargs, result):
    values = result.values
    return {"rows": values.shape[0], "kept_rows": int(np.count_nonzero(np.any(values != 0, axis=1)))}


def _svd_counts(sig, args, kwargs, result):
    values = _bound(sig, args, kwargs)["jsa"].values
    return {"n": int(values.shape[0]), "svd_elems": int(values.size)}


def _fock_counts(sig, args, kwargs, result):
    # _diagonal_upto(n) sums (n+1)^2 terms; the series doubles n from max_n
    n = _bound(sig, args, kwargs)["max_n"]
    n_final = (len(result) - 1) // 2
    terms = (n + 1) ** 2
    while 0 < n < n_final:
        n *= 2
        terms += (n + 1) ** 2
    return {"fock_terms": terms}


COUNTERS = {
    "sources.build_waveguide_jsa": _waveguide_counts,
    "sources.build_ring_jsa": _grid_points,
    "sources.apply_filter": _filter_counts,
    "schmidt.schmidt_decompose": _svd_counts,
    "schmidt.purity": _svd_counts,
    "squeezing.lossy_density_diagonal": _fock_counts,
}


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self, targets=TARGETS):
        self.spans = []  # [name, t0, t1, parent, rid, counts]
        self.stack = []
        self.rid = SETUP_RID
        self.absent = []
        self.broken_counters = set()
        self._sites = []  # (module, attribute, original, wrapper)
        self._import_all()
        for name, module, attr in targets:
            fn = self._find(module, attr)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, COUNTERS.get(name))
            sites = [(m, key, fn, wrapper) for m in self._modules() for key, v in vars(m).items() if v is fn]
            self._sites.extend(sites)

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    @staticmethod
    def _import_all():
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.walk_packages(pkg.__path__, PACKAGE + "."):
            try:
                importlib.import_module(info.name)
            except ImportError:
                continue

    def _find(self, module, attr):
        """The function at module.attr, or a function of that name elsewhere in the package."""
        preferred = sys.modules.get(module)
        for m in ([preferred] if preferred else []) + self._modules():
            fn = getattr(m, attr, None)
            if inspect.isfunction(fn) and fn.__name__ == attr:
                return fn
        return None

    def _wrap(self, name, fn, counter):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            sid = len(tracer.spans)
            span = [name, 0.0, 0.0, parent, tracer.rid, None]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if counter is not None and name not in tracer.broken_counters:
                try:
                    span[5] = counter(sig, args, kwargs, result)
                except (KeyError, TypeError, AttributeError, IndexError):
                    tracer.broken_counters.add(name)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block, originals restored after."""
        for module, key, _, wrapper in self._sites:
            setattr(module, key, wrapper)
        try:
            yield
        finally:
            for module, key, original, _ in self._sites:
                setattr(module, key, original)

    @contextlib.contextmanager
    def request(self, rid):
        """Traced request: wrappers installed, and a root span whose calls carry ``rid``."""
        span = [ROOT_SPAN, perf_counter(), 0.0, None, rid, None]
        with self.installed():
            self.rid = rid
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                yield
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                self.rid = SETUP_RID

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, rid, counts in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for sid, ((name, t0, t1, parent, rid, counts), st) in enumerate(zip(self.spans, selfs)):
                out.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                                      "request": rid, "self": st, "counts": counts}) + "\n")


def layer_metrics(tracer, untraced_s, traced_s, error_outcomes):
    """Per-layer metrics from the spans of a traced run.

    Times and counts are per traced request, amortised: work done once per
    run (set-up, photon_stats' Schmidt spectra) is divided over the requests.
    ``untraced_s[i]`` and ``traced_s[i]`` are the latencies of request id
    i + 1 run without and with the wrappers.
    """
    n = max(len(traced_s), 1)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    builders_in_requests = 0.0
    root_total = 0.0
    for (name, t0, t1, parent, rid, cnt), st in zip(tracer.spans, tracer.self_times()):
        total[name] += t1 - t0
        own[name] += st
        calls[name] += 1
        if rid != SETUP_RID:
            if name == ROOT_SPAN:
                root_total += t1 - t0
            elif name in ("sources.build_waveguide_jsa", "sources.build_ring_jsa"):
                builders_in_requests += t1 - t0
        for key, value in (cnt or {}).items():
            if key != "n":
                counts[key] += value

    def per_req(x):
        return x / n

    cli_verbs = [name for name, _, _ in TARGETS if name.startswith("cli.") and name != "cli.build_jsa"]
    scenario_spans = ("scenario.load_bundled", "scenario.scenario_from_dict", "scenario.load_scenario")
    typed = sum(1 for ok in error_outcomes if ok)
    metrics = {
        "scenario.load.s": (per_req(sum(own[s] for s in scenario_spans)), "s"),
        "sources.build_waveguide_jsa.self_s": (per_req(own["sources.build_waveguide_jsa"]), "s"),
        "sources.build_waveguide_jsa.calls": (per_req(calls["sources.build_waveguide_jsa"]), "count"),
        "sources.kernel_evals": (per_req(counts["kernel_evals"]), "count"),
        "sources.build_ring_jsa.self_s": (per_req(own["sources.build_ring_jsa"]), "s"),
        "sources.build_ring_jsa.calls": (per_req(calls["sources.build_ring_jsa"]), "count"),
        "sources.apply_filter.s": (per_req(total["sources.apply_filter"]), "s"),
        "sources.filter_kept_rows_frac": (counts["kept_rows"] / counts["rows"] if counts["rows"] else 0.0, "frac"),
        "sources.builders.request_share": (builders_in_requests / root_total if root_total else 0.0, "frac"),
        "spectral.pump_amplitude.s": (per_req(total["spectral.pump_amplitude"]), "s"),
        "spectral.pump_amplitude.calls": (per_req(calls["spectral.pump_amplitude"]), "count"),
        "dispersion.phase_matching.s": (per_req(total["dispersion.phase_matching"]), "s"),
        "dispersion.phase_matching.calls": (per_req(calls["dispersion.phase_matching"]), "count"),
        "schmidt.schmidt_decompose.s": (per_req(total["schmidt.schmidt_decompose"]), "s"),
        "schmidt.schmidt_decompose.calls": (per_req(calls["schmidt.schmidt_decompose"]), "count"),
        "schmidt.purity.s": (per_req(total["schmidt.purity"]), "s"),
        "schmidt.jsa_overlap.s": (per_req(total["schmidt.jsa_overlap"]), "s"),
        "schmidt.svd_elems": (per_req(counts["svd_elems"]), "count"),
        "fringes.fringe_scan.s": (per_req(total["fringes.fringe_scan"]), "s"),
        "fringes.extract_visibility.s": (per_req(total["fringes.extract_visibility"]), "s"),
        "squeezing.lossy_density_diagonal.s": (per_req(total["squeezing.lossy_density_diagonal"]), "s"),
        "squeezing.lossy_density_diagonal.calls": (per_req(calls["squeezing.lossy_density_diagonal"]), "count"),
        "squeezing.fock_terms": (per_req(counts["fock_terms"]), "count"),
        "squeezing.moments.s": (
            per_req(total["squeezing.mean_photon_number"] + total["squeezing.trigger_probability"]), "s"),
        "cli.build_jsa.per_request": (per_req(calls["cli.build_jsa"]), "count"),
        "cli.verb.self_s": (per_req(sum(own[v] for v in cli_verbs)), "s"),
        "errors.typed_frac": (typed / len(error_outcomes) if error_outcomes else 0.0, "frac"),
        "errors.requests": (float(len(error_outcomes)), "count"),
        "trace_overhead_frac": (_median_excess(traced_s, untraced_s), "frac"),
        "trace.unattributed_frac": (own[ROOT_SPAN] / root_total if root_total else 0.0, "frac"),
        "trace.absent_spans": (float(len(tracer.absent) + len(tracer.broken_counters)), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _median_excess(traced, untraced):
    """Median over request pairs of traced / untraced - 1.

    Pairs run the same request back to back, so their ratio cancels the
    machine's drift that a ratio of two medians would keep.
    """
    if not traced or not untraced:
        return 0.0
    return float(np.median([t / u for t, u in zip(traced, untraced)]) - 1.0)


def per_call_means(tracer):
    """Mean inclusive seconds per call, keyed by (span name, grid points or None)."""
    acc = defaultdict(lambda: [0.0, 0])
    for name, t0, t1, parent, rid, cnt in tracer.spans:
        key = (name, (cnt or {}).get("n"))
        acc[key][0] += t1 - t0
        acc[key][1] += 1
    return {key: s / c for key, (s, c) in acc.items()}


def self_test() -> list:
    """A target that is missing must be reported absent, and tracing must still work."""
    targets = (
        ("schmidt.visibility_from_overlap", "biphoton.schmidt", "visibility_from_overlap"),
        ("gone.no_such_function", "biphoton.schmidt", "no_such_function_anywhere"),
    )
    tracer = Tracer(targets)
    schmidt = sys.modules["biphoton.schmidt"]
    with tracer.request(1):
        schmidt.visibility_from_overlap(0.5)
    problems = []
    if tracer.absent != ["gone.no_such_function"]:
        problems.append(f"self-test: tracer reports absent spans {tracer.absent}")
    if [s[0] for s in tracer.spans] != [ROOT_SPAN, "schmidt.visibility_from_overlap"]:
        problems.append("self-test: tracer did not record the wrapped call")
    if schmidt.visibility_from_overlap.__module__ != "biphoton.schmidt" or hasattr(
        schmidt.visibility_from_overlap, "__wrapped__"
    ):
        problems.append("self-test: tracer left a wrapper installed")
    return problems
