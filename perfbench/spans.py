"""Spans around the calls each wglab module makes into the next one down.

`Tracer.install` replaces a function in the namespace of the module that
calls it (for example `wglab.tv_mc.batch_eigenvalues`) with a wrapper that
records a span: name, start, end, parent, plus counts read off the result.
`uninstall` puts the originals back, so untraced calls run the unchanged
program.  Nothing under `src/` is edited.  A function a later version no
longer has is skipped, and its layer then reports zero calls.

Spans live in memory and are reduced per `cli_dispatch` invocation by
`layer_metrics`.  A span's self time is its duration minus the durations of
its direct children.  Every span's self time is added to one reported
`*.self_s` metric (SELF_METRIC), so the reported self times of one
invocation add up to the duration of its root span; `self_time_gap` checks
that, and a span that no metric reports shows up as a gap.
"""

import statistics
import time
from functools import wraps

# (module the caller lives in, attribute, span name); only calls that a
# workload reaches are wrapped
BOUNDARIES = (
    ("wglab.cli", "tv_estimate_goe_side", "tv_mc.estimate"),
    ("wglab.cli", "clt_covariance_estimate", "limit_theory.cov"),
    ("wglab.cli", "parse_config", "experiments.parse_config"),
    ("wglab.cli", "run_sweep", "experiments.run_sweep"),
    ("wglab.cli", "emit_csv", "experiments.emit_csv"),
    ("wglab.cli", "emit_figure1_svg", "experiments.emit_svg"),
    ("wglab.experiments", "tv_estimate_goe_side", "tv_mc.estimate"),
    ("wglab.experiments", "limiting_tv_closed_form", "limit_theory.limit"),
    ("wglab.tv_mc", "sample_goe_dense", "ensembles.sample"),
    ("wglab.tv_mc", "batch_eigenvalues", "spectral.eigvals"),
    ("wglab.tv_mc", "alpha_from_eigenvalues", "densities.alpha"),
    ("wglab.tv_mc", "in_q_mask", "densities.in_q"),
    ("wglab.limit_theory", "sample_clt_pairs", "limit_theory.clt"),
    ("wglab.limit_theory", "sample_goe_dense", "ensembles.sample"),
    ("wglab.limit_theory", "batch_eigenvalues", "spectral.eigvals"),
    ("wglab.rng", "RngState.generator", "rng.generator"),
    ("wglab.rng", "RngState.substream", "rng.substream"),
)

# the reported metric each span's self time is added to: a layer's own
# spans fold into its `<layer>.self_s`, the others keep their own metric
SELF_METRIC = {
    "cli": "cli.self_s",
    "tv_mc.estimate": "tv_mc.self_s",
    "experiments.parse_config": "experiments.self_s",
    "experiments.run_sweep": "experiments.self_s",
    "experiments.emit_csv": "experiments.self_s",
    "experiments.emit_svg": "experiments.self_s",
    "limit_theory.cov": "limit_theory.cov.self_s",
    "limit_theory.clt": "limit_theory.clt.self_s",
    "limit_theory.limit": "limit_theory.limit.self_s",
    "ensembles.sample": "ensembles.sample.self_s",
    "spectral.eigvals": "spectral.eigvals.self_s",
    "densities.alpha": "densities.alpha.self_s",
    "densities.in_q": "densities.in_q.self_s",
    "rng.generator": "rng.generator.self_s",
    "rng.substream": "rng.substream.self_s",
}


def _work(attr, result, draws):
    """(bytes, flops) a batch call computed, from the model in README.md."""
    n = result.shape[-1]
    if attr == "sample_goe_dense":
        return result.nbytes + 8 * n * (n + 1) // 2 * draws, 0
    if attr == "batch_eigenvalues":
        return 0, round(4 * n ** 3 / 3) * draws
    return 0, 0


def _draws(result) -> int:
    """Leading dimension of an array result: the draws of a batch call."""
    shape = getattr(result, "shape", ())
    return int(shape[0]) if len(shape) >= 1 else 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "draws", "nbytes",
                 "flops", "child_s")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.draws = self.nbytes = self.flops = 0
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def _wrap(self, fn, name, attr):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.draws = _draws(result)
            if span.draws:
                span.nbytes, span.flops = _work(attr, result, span.draws)
            return result
        return wrapper

    def install(self):
        import importlib

        for module_name, attr, name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, leaf))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def invoke(self, fn, *args, **kwargs):
        """Call fn as a root span; returns (result, spans of this call)."""
        self.spans = []
        root = self.open("cli")
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(root)
        return result, self.spans


def _sum(spans, attr="self_s"):
    return sum(getattr(s, attr) for s in spans)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced invocation; spans[0] is the root."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    get = lambda name: by.get(name, [])  # noqa: E731

    def per_draw(name):
        draws = _sum(get(name), "draws")
        return 1e6 * _sum(get(name)) / draws if draws else 0.0

    batches = [s for s in get("ensembles.sample")
               if s.parent is not None and s.parent.name.startswith("tv_mc")]
    points = [s for s in get("tv_mc.estimate")
              if s.parent is not None and s.parent.name.startswith("experiments")]
    out = dict.fromkeys(sorted(set(SELF_METRIC.values())), 0.0)
    for s in spans:
        if s.name in SELF_METRIC:
            out[SELF_METRIC[s.name]] += s.self_s
    out.update({
        "ensembles.sample.calls": len(get("ensembles.sample")),
        "ensembles.sample.draws": _sum(get("ensembles.sample"), "draws"),
        "ensembles.sample.us_per_draw": per_draw("ensembles.sample"),
        "ensembles.sample.bytes_computed": _sum(get("ensembles.sample"), "nbytes"),
        "spectral.eigvals.calls": len(get("spectral.eigvals")),
        "spectral.eigvals.draws": _sum(get("spectral.eigvals"), "draws"),
        "spectral.eigvals.us_per_draw": per_draw("spectral.eigvals"),
        "spectral.eigvals.flops_computed": _sum(get("spectral.eigvals"), "flops"),
        "densities.alpha.us_per_draw": per_draw("densities.alpha"),
        "tv_mc.batches": len(batches),
        "tv_mc.batch_draws": (_sum(batches, "draws") / len(batches)
                              if batches else 0.0),
        "rng.generator.calls": len(get("rng.generator")),
        "rng.substream.calls": len(get("rng.substream")),
        "experiments.point.calls": len(points),
        "experiments.point_s.median": (statistics.median(
            s.duration for s in points) if points else 0.0),
        "experiments.emit_csv_s": _sum(get("experiments.emit_csv"), "duration"),
        "experiments.emit_svg_s": _sum(get("experiments.emit_svg"), "duration"),
    })
    return out


def self_time_gap(spans, metrics) -> float:
    """|sum of the reported self times - root duration|; zero up to rounding.

    A span whose name has no metric in SELF_METRIC is missing from the sum.
    """
    reported = sum(metrics[k] for k in set(SELF_METRIC.values()))
    return abs(reported - spans[0].duration)
