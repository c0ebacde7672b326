"""Per-layer tracing of ringkit from outside the program.

The tracer replaces public functions and methods of each ringkit layer
with timing wrappers while a traced pass runs, and puts the originals
back afterwards.  Nothing under src/ knows about it.

Every wrapped call adds its count and self time (its duration minus the
time of wrapped calls made inside it) to its name.  Calls at layer
boundaries are also kept as spans (name, start, end, parent span, job
id) in memory and written out when the run ends.  Leaf calls that run
hundreds of thousands of times per job ("hot" below: polynomial
arithmetic, normal forms, strand bases, face maps) are only aggregated,
so that the span list stays small.

Work counters (matrix cells, nonzeros, labels, basis sizes, accepted
span additions) are recorded at the same boundaries, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
from time import perf_counter

MAX_SPANS = 100_000


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.stats = {}  # name -> [calls, self seconds]
        self.counters = {}
        self.spans = []  # [name, start, end, parent index, job id]
        self.dropped_spans = 0
        self.stack = []  # frames: [name, child seconds, span index]
        self.active = False
        self.job_id = None
        self.t0 = perf_counter()
        self._patches = []
        self._last_spoly = None

    # -- counters -------------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    # -- jobs -------------------------------------------------------------------

    def begin_job(self, job_id):
        self.job_id = job_id
        self.stack.append(["job", 0.0, self._open_span("job", -1)])
        self._job_start = perf_counter()
        self.active = True

    def end_job(self):
        self.active = False
        dt = perf_counter() - self._job_start
        frame = self.stack.pop()
        self._close_span(frame[2])
        self._add("job", dt - frame[1])
        self.count("job.wall_s", dt)

    def _open_span(self, name, parent):
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return parent
        self.spans.append([name, perf_counter() - self.t0, None, parent, self.job_id])
        return len(self.spans) - 1

    def _close_span(self, idx):
        if idx >= 0 and self.spans[idx][2] is None:
            self.spans[idx][2] = perf_counter() - self.t0

    def _add(self, name, self_s):
        st = self.stats.setdefault(name, [0, 0.0])
        st[0] += 1
        st[1] += self_s

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, name, hot=False, hook=None, field_of=None, fold_under=None):
        """A wrapper that times fn under name while the tracer is active.

        fold_under: when the innermost open call has that name, the call
        is not split out and its time stays in the caller's self time.
        field_of: maps the call arguments to the coefficient field, for
        the per-field split of linear-algebra self time.
        """
        tracer = self
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (fold_under and stack[-1][0] == fold_under):
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = parent[2] if hot else tracer._open_span(name, parent[2])
            frame = [name, 0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                parent[1] += dt
                own = dt - frame[1]
                stats[0] += 1
                stats[1] += own
                if field_of is not None:
                    key = "qq" if field_of(args).characteristic == 0 else "fp"
                    tracer.count(f"linalg.self_s.{key}", own)
                if not hot:
                    tracer._close_span(span)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _patch_function(self, module, attr, name, **kw):
        """Replace a module-level function everywhere ringkit refers to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **kw)
        for mod in self.mods.all_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def _patch_method(self, cls, attr, name, **kw):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, **kw))
        self._patches.append((cls, attr, original))

    def install(self):
        m = self.mods
        fn, meth = self._patch_function, self._patch_method

        fn(m.polycore, "parse_ring", "polycore.parse_ring")
        meth(m.polycore.Polynomial, "__mul__", "polycore.mul", hot=True)
        meth(m.polycore.Polynomial, "__add__", "polycore.add", hot=True)

        fn(m.groebner, "buchberger", "groebner.buchberger", hook=_basis_size)
        fn(m.groebner, "s_polynomial", "groebner.s_polynomial", hot=True, hook=_spoly)
        fn(m.groebner, "normal_form", "groebner.normal_form", hot=True,
           hook=_reduction, fold_under="groebner.nf")
        fn(m.groebner, "nf", "groebner.nf", hot=True)
        fn(m.groebner, "quotient_basis", "groebner.quotient_basis", hot=True)

        fn(m.linalg, "rref", "linalg.rref", hook=_cells("linalg.rref.cells"),
           field_of=_arg1)
        fn(m.linalg, "rank", "linalg.rank", hook=_rank, field_of=_arg1)
        fn(m.linalg, "nullspace", "linalg.nullspace", field_of=_arg1)
        fn(m.linalg, "sparse_rank", "linalg.sparse_rank", hook=_nnz, field_of=_arg1)
        reducer = m.linalg.SpanReducer
        meth(reducer, "add", "linalg.span_reducer.add", hot=True, hook=_accept,
             field_of=_self_field)
        meth(reducer, "reduce", "linalg.span_reducer.reduce", hot=True,
             field_of=_self_field)
        meth(reducer, "contains", "linalg.span_reducer.contains", hot=True,
             field_of=_self_field)

        fn(m.homalg, "homology_dims", "homalg.homology_dims", hook=_strands)
        meth(m.homalg.GradedModuleMap, "strand_matrix", "homalg.strand_matrix",
             hook=_strand_cells)
        fn(m.homalg, "free_strand_basis", "homalg.free_strand_basis", hot=True)
        meth(m.homalg.ModuleStrands, "strand", "homalg.module_strand", hot=True)
        fn(m.homalg, "minimal_resolution", "homalg.minimal_resolution")
        fn(m.homalg, "tor_dims", "homalg.tor_dims")

        fn(m.koszul, "koszul", "koszul.koszul")
        fn(m.koszul, "generator_change_iso_check", "koszul.generator_change_iso_check")

        sm = m.simplicial.SimplicialModule
        meth(sm, "labels", "simplicial.labels", hook=_length("simplicial.labels.count"))
        meth(sm, "covering_labels", "simplicial.covering_labels",
             hook=_length("simplicial.covering_labels.count"))
        meth(sm, "face_vector", "simplicial.face_vector", hot=True)
        fn(m.simplicial, "normalize", "simplicial.normalize")
        meth(m.simplicial.NormalizedComplex, "homology", "simplicial.homology")

        fn(m.ghost, "classify", "ghost.classify")
        fn(m.ghost, "frobenius_pushforward", "ghost.frobenius_pushforward")
        fn(m.ghost, "kunz_report", "ghost.kunz_report")

        fn(m.cli, "run", "cli.run")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, *names):
        return sum(self.stats.get(n, [0, 0.0])[1] for n in names)


# ---------------------------------------------------------------------------
# Hooks: called with (tracer, call arguments, result) after a traced call.


def _arg1(args):
    return args[1]


def _self_field(args):
    return args[0].field


def _basis_size(tr, args, result):
    tr.count("groebner.buchberger.basis_size", len(result))


def _spoly(tr, args, result):
    if tr.stack[-1][0] == "groebner.buchberger":
        tr._last_spoly = result


def _reduction(tr, args, result):
    # an S-polynomial reduced inside Buchberger's loop
    if tr._last_spoly is not None and args[0] is tr._last_spoly:
        tr._last_spoly = None
        tr.count("groebner.buchberger.reductions")
        if result.is_zero():
            tr.count("groebner.buchberger.zero_reductions")


def _cells(counter):
    def hook(tr, args, result):
        rows = args[0]
        if rows:
            tr.count(counter, len(rows) * len(rows[0]))
    return hook


def _rank(tr, args, result):
    rows = args[0]
    if rows:
        tr.count("linalg.rank.rank_sum", result)
        tr.count("linalg.rank.full_sum", min(len(rows), len(rows[0])))


def _nnz(tr, args, result):
    tr.count("linalg.sparse_rank.nnz", sum(len(col) for col in args[0]))


def _accept(tr, args, result):
    if result:
        tr.count("linalg.span_reducer.add.accepted")


def _strands(tr, args, result):
    C, D = args[0], args[1]
    tr.count("homalg.homology_dims.strands", (C.hi - C.lo + 1) * (D + 1))
    tr.count("homalg.homology_dims.nonzero", len(result.entries))


def _strand_cells(tr, args, result):
    rows, src, tgt = result
    tr.count("homalg.strand_matrix.cells", len(src) * len(tgt))


def _length(counter):
    def hook(tr, args, result):
        tr.count(counter, len(result))
    return hook


# ---------------------------------------------------------------------------
# The per-layer metrics, with the end-to-end metric each should move.


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, passes, traced_wall, untraced_wall):
    """Per-layer metrics of the traced passes, per pass."""
    c = tr.counters
    k = max(passes, 1)

    def cnt(name):
        return c.get(name, 0) / k

    def calls(name):
        return tr.calls(name) / k

    def self_s(*names):
        return tr.self_s(*names) / k

    job_wall = c.get("job.wall_s", 0.0)
    return {
        "polycore.parse_ring.self_s": (self_s("polycore.parse_ring"), "s"),
        "polycore.mul.calls": (calls("polycore.mul"), "count"),
        "polycore.mul.self_s": (self_s("polycore.mul"), "s"),
        "polycore.add.self_s": (self_s("polycore.add"), "s"),
        "groebner.buchberger.calls": (calls("groebner.buchberger"), "count"),
        "groebner.buchberger.self_s": (self_s("groebner.buchberger"), "s"),
        "groebner.buchberger.basis_size": (
            _ratio(c.get("groebner.buchberger.basis_size", 0),
                   tr.calls("groebner.buchberger")), "count"),
        "groebner.s_polynomial.calls": (calls("groebner.s_polynomial"), "count"),
        "groebner.normal_form.calls": (calls("groebner.normal_form"), "count"),
        "groebner.normal_form.self_s": (self_s("groebner.normal_form"), "s"),
        "groebner.buchberger.zero_reduction_frac": (
            _ratio(c.get("groebner.buchberger.zero_reductions", 0),
                   c.get("groebner.buchberger.reductions", 0)), "ratio"),
        "groebner.nf.calls": (calls("groebner.nf"), "count"),
        "groebner.nf.self_s": (self_s("groebner.nf"), "s"),
        "groebner.quotient_basis.calls": (calls("groebner.quotient_basis"), "count"),
        "groebner.quotient_basis.self_s": (self_s("groebner.quotient_basis"), "s"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.self_s": (self_s("linalg.rref"), "s"),
        "linalg.rref.cells": (cnt("linalg.rref.cells"), "count"),
        "linalg.rank.rank_frac": (
            _ratio(c.get("linalg.rank.rank_sum", 0), c.get("linalg.rank.full_sum", 0)),
            "ratio"),
        "linalg.nullspace.self_s": (self_s("linalg.nullspace"), "s"),
        "linalg.span_reducer.add.calls": (calls("linalg.span_reducer.add"), "count"),
        "linalg.span_reducer.add.accept_frac": (
            _ratio(c.get("linalg.span_reducer.add.accepted", 0),
                   tr.calls("linalg.span_reducer.add")), "ratio"),
        "linalg.span_reducer.self_s": (
            self_s("linalg.span_reducer.add", "linalg.span_reducer.reduce",
                   "linalg.span_reducer.contains"), "s"),
        "linalg.sparse_rank.calls": (calls("linalg.sparse_rank"), "count"),
        "linalg.sparse_rank.nnz": (cnt("linalg.sparse_rank.nnz"), "count"),
        "linalg.sparse_rank.self_s": (self_s("linalg.sparse_rank"), "s"),
        "linalg.self_s.qq": (cnt("linalg.self_s.qq"), "s"),
        "linalg.self_s.fp": (cnt("linalg.self_s.fp"), "s"),
        "homalg.homology_dims.strands": (cnt("homalg.homology_dims.strands"), "count"),
        "homalg.homology_dims.useful_frac": (
            _ratio(c.get("homalg.homology_dims.nonzero", 0),
                   c.get("homalg.homology_dims.strands", 0)), "ratio"),
        "homalg.strand_matrix.calls": (calls("homalg.strand_matrix"), "count"),
        "homalg.strand_matrix.self_s": (self_s("homalg.strand_matrix"), "s"),
        "homalg.strand_matrix.cells": (cnt("homalg.strand_matrix.cells"), "count"),
        "homalg.free_strand_basis.self_s": (self_s("homalg.free_strand_basis"), "s"),
        "homalg.module_strand.self_s": (self_s("homalg.module_strand"), "s"),
        "homalg.minimal_resolution.self_s": (self_s("homalg.minimal_resolution"), "s"),
        "homalg.tor_dims.self_s": (self_s("homalg.tor_dims"), "s"),
        "homalg.homology_dims.self_s": (self_s("homalg.homology_dims"), "s"),
        "koszul.koszul.self_s": (self_s("koszul.koszul"), "s"),
        "koszul.generator_change_iso_check.self_s": (
            self_s("koszul.generator_change_iso_check"), "s"),
        "simplicial.labels.count": (cnt("simplicial.labels.count"), "count"),
        "simplicial.covering_labels.count": (
            cnt("simplicial.covering_labels.count"), "count"),
        "simplicial.covering.kept_frac": (
            _ratio(c.get("simplicial.covering_labels.count", 0),
                   c.get("simplicial.labels.count", 0)), "ratio"),
        "simplicial.face_vector.calls": (calls("simplicial.face_vector"), "count"),
        "simplicial.face_vector.self_s": (self_s("simplicial.face_vector"), "s"),
        "simplicial.normalize.self_s": (self_s("simplicial.normalize"), "s"),
        "simplicial.homology.self_s": (self_s("simplicial.homology"), "s"),
        "ghost.classify.self_s": (self_s("ghost.classify"), "s"),
        "ghost.frobenius_pushforward.self_s": (self_s("ghost.frobenius_pushforward"), "s"),
        "ghost.kunz_report.self_s": (self_s("ghost.kunz_report"), "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "trace.overhead_frac": (
            _ratio(traced_wall, untraced_wall) - 1.0 if untraced_wall else 0.0, "ratio"),
        "trace.untraced_frac": (_ratio(tr.self_s("job"), job_wall), "ratio"),
    }


# Layer groups for the share table: which wrapped names each group owns.
LAYER_GROUPS = {
    "polycore": ("polycore.",),
    "groebner.buchberger": ("groebner.buchberger", "groebner.s_polynomial",
                            "groebner.normal_form"),
    "groebner.nf": ("groebner.nf", "groebner.quotient_basis"),
    "linalg.dense": ("linalg.rref", "linalg.rank", "linalg.nullspace"),
    "linalg.span_reducer": ("linalg.span_reducer.",),
    "linalg.sparse_rank": ("linalg.sparse_rank",),
    "homalg": ("homalg.",),
    "koszul": ("koszul.",),
    "simplicial": ("simplicial.",),
    "ghost": ("ghost.",),
    "cli": ("cli.",),
    "untraced": ("job",),
}


def layer_shares(tr):
    """Share of all traced job time owned by each layer group."""
    total = sum(v[1] for v in tr.stats.values())
    out = {}
    for group, prefixes in LAYER_GROUPS.items():
        s = 0.0
        for name, (_, self_s) in tr.stats.items():
            if any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes):
                s += self_s
        out[group] = _ratio(s, total)
    return out
