"""Spans around calls into pmcsurf's public functions, recorded from outside.

``Tracer.install`` swaps each listed public function for a wrapper in every
``pmcsurf`` module namespace that binds it, so calls made inside the library
(``surface_invariants`` -> ``identity_residuals``) are recorded too.
``uninstall`` puts the originals back.  Spans stay in memory until
``write`` is called at the end of the run.
"""

import json
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name)
PUBLIC_CALLS = [
    ("profile", "closed_form", "profile.closed_form"),
    ("families", "pmc_profile_family", "families.chart_build"),
    ("families", "cmc_profile_family", "families.chart_build"),
    ("families", "cmc_sinh_chart", "families.chart_build"),
    ("families", "cmc_leite_chart", "families.chart_build"),
    ("families", "cmc_torus", "families.chart_build"),
    ("families", "geodesic_inclusion", "families.chart_build"),
    ("families", "example1_chart", "families.chart_build"),
    ("families", "pmc_phi0", "families.chart_build"),
    ("families", "pmc_sinh_family", "families.chart_build"),
    ("families", "product_of_curves", "families.chart_build"),
    ("diffgeo", "sample_jet", "diffgeo.sample_jet"),
    ("diffgeo", "normal_frame", "diffgeo.normal_frame"),
    ("diffgeo", "frenet_scalars", "diffgeo.frenet_scalars"),
    ("diffgeo", "surface_invariants", "diffgeo.surface_invariants"),
    ("diffgeo", "identity_residuals", "diffgeo.identity_residuals"),
    ("diffgeo", "parallelism_residual", "diffgeo.parallelism_residual"),
    ("diffgeo", "abresch_rosenberg", "diffgeo.abresch_rosenberg"),
    ("diffgeo", "torus_integrals", "diffgeo.torus_integrals"),
    ("correspondence", "extract_pmc_data", "correspondence.extract_pmc_data"),
    ("correspondence", "pmc_to_cmc", "correspondence.pmc_to_cmc"),
    ("correspondence", "cmc_to_pmc", "correspondence.cmc_to_pmc"),
    ("correspondence", "integrate_cmc_frenet", "correspondence.integrate_cmc_frenet"),
    ("correspondence", "integrate_pmc_frenet", "correspondence.integrate_pmc_frenet"),
    ("correspondence", "weak_congruence_check", "correspondence.weak_congruence_check"),
    ("correspondence", "product_alignment_distance", "correspondence.product_alignment_distance"),
]

JET = "families.jet"
FIELDS = "correspondence.fields"
INTEGRATE_PMC = "correspondence.integrate_pmc_frenet"
NODES_ONLY = INTEGRATE_PMC + ".nodes_only"


class Tracer:
    """Spans as [id, name, start, end, parent, op, points], kept in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def span(self, name, points=0):
        """Context manager recording one span; the benchmark opens some itself."""
        return _Span(self, name, points)

    def wrap(self, name, fn, count_points=False):
        def traced(*args, **kwargs):
            span_name = name
            if name == INTEGRATE_PMC and args[0].fields is None:
                span_name = NODES_ONLY
            with self.span(span_name, int(np.size(args[0])) if count_points else 0):
                return fn(*args, **kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Replace every binding of the public functions in loaded pmcsurf modules."""
        import pmcsurf

        modules = [m for k, m in list(sys.modules.items()) if k == "pmcsurf" or k.startswith("pmcsurf.")]
        for modname, attr, name in PUBLIC_CALLS:
            original = getattr(getattr(pmcsurf, modname), attr)
            wrapped = self.wrap(name, original)
            if name == "families.chart_build":
                wrapped = self._wrap_chart_build(wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap_chart_build(self, build):
        """Count the jet evaluations of every chart a family constructor returns."""

        def traced(*args, **kwargs):
            chart = build(*args, **kwargs)
            if chart.jet is not None:
                chart.jet = self.wrap(JET, chart.jet, count_points=True)
            return chart

        traced.__name__ = build.__name__
        traced.__doc__ = build.__doc__
        return traced

    def wrap_fields(self, data):
        """Count the dense field evaluations of a PmcFrenetData record."""
        if data.fields is not None:
            data.fields = self.wrap(FIELDS, data.fields, count_points=True)
        return data

    # -- summaries -------------------------------------------------------

    def self_times(self):
        """Span duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[sid] for sid, _, start, end, _, _, _ in self.spans]

    def _ancestor(self, span, name):
        """Id of the nearest enclosing span called ``name``, or None."""
        parent = span[4]
        while parent is not None and self.spans[parent][1] != name:
            parent = self.spans[parent][4]
        return parent

    def outermost(self, name):
        """Spans of ``name`` that have no ancestor of the same name."""
        return [s for s in self.spans if s[1] == name and self._ancestor(s, name) is None]

    def inclusive(self, name):
        return sum(s[3] - s[2] for s in self.outermost(name))

    def calls(self, name):
        return len(self.outermost(name))

    def points(self, name):
        return sum(s[6] for s in self.outermost(name))

    def inside(self, name, outer):
        """Time of outermost ``name`` spans that run inside an ``outer`` span."""
        return sum(s[3] - s[2] for s in self.outermost(name) if self._ancestor(s, outer) is not None)

    def table(self):
        """(name, calls, inclusive s, self s) for every span name, by self time."""
        selfs = self.self_times()
        rows = {}
        for span, own in zip(self.spans, selfs):
            row = rows.setdefault(span[1], [0, 0.0])
            row[0] += 1
            row[1] += own
        out = [(name, n, self.inclusive(name), own) for name, (n, own) in rows.items()]
        return sorted(out, key=lambda r: -r[3])

    def write(self, path):
        selfs = self.self_times()
        keys = ("id", "name", "start", "end", "parent", "op", "points")
        records = [dict(zip(keys, s), self_s=own) for s, own in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump(records, fh)


class _Span:
    def __init__(self, tracer, name, points):
        self.tracer = tracer
        self.name = name
        self.points = points

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.rec = [len(t.spans), self.name, perf_counter(), None, parent, t.op, self.points]
        t.spans.append(self.rec)
        t._stack.append(self.rec[0])
        return self

    def __exit__(self, *exc):
        self.tracer._stack.pop()
        self.rec[3] = perf_counter()
        return False
