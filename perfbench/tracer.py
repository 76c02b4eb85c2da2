"""Span tracer that times calls into probmatch's modules from outside.

``Tracer.install()`` replaces each traced function at every attribute of the
``probmatch`` package and its modules that is bound to it (``spmv`` is bound
in ``linalg``, ``solvers``, ``affinity`` and the package itself, for example),
so a call is traced whichever module its caller looks it up in. A few methods
are wrapped on their classes, and the ``Tensor`` constructor is wrapped to
count tensors. ``uninstall()`` puts every original back.

Each traced call appends one span ``[name, start, end, parent, op, info]`` to
an in-memory list: ``parent`` is the index of the enclosing span (-1 at the
top), ``op`` the operation id current at entry, and ``info`` what an optional
hook reads from the arguments and the result. The list is written out once,
when the run ends. Hook work happens after the span closes, so it lands in
the caller's self time; ``trace.overhead_pct`` reports what tracing costs in
all.

``missing`` names every traced function the program no longer has and every
hook that raised: the figures these feed read 0, so a run that lists any of
them does not measure those figures.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

# Bytes an spmv moves, computed from array sizes: per stored off-diagonal
# entry the row, column and value (8 B each) and the gathered x entry; per
# diagonal entry the unary value, x and y.
SPMV_BYTES_PER_ENTRY = 32
SPMV_BYTES_PER_DIAG = 24

SOLVERS = ("solvers.probabilistic_solve", "solvers.spectral_match",
           "solvers.ipfp", "solvers.rrwm")


def _spmv_info(args, result):
    K = args[0]
    return (K.vals.size, K.size)


def _sinkhorn_info(args, result):
    X = np.asarray(result)
    return float(max(np.abs(X.sum(axis=1) - 1.0).max(),
                     np.abs(X.sum(axis=0) - 1.0).max()))


def _affinity_info(args, K):
    return (K.vals.size,
            K.unary.nbytes + K.rows.nbytes + K.cols.nbytes + K.vals.nbytes)


def _aa_info(args, aa):
    return aa.edges.shape[0]


def _solve_info(args, result):
    trace = result[1]
    return (len(trace.assignments) - 1, trace.stop_reason == "early_stop")


def _instance_op(tracer, args, kwargs):
    # bench._run_instance(cfg, noise, index, inst_seed, store)
    return tracer.op_base + args[2]


def _next_op(tracer, args, kwargs):
    return tracer.op + 1


# (module, function, info hook, operation-id hook)
FUNCTIONS = [
    ("graphs", "synthesize_pair", None, None),
    ("graphs", "geometric_features", None, None),
    ("graphs", "delaunay_adjacency", None, None),
    ("graphs", "build_aa_graph", _aa_info, None),
    ("affinity", "assemble_affinity", _affinity_info, None),
    ("affinity", "objective", None, None),
    ("linalg", "spmv", _spmv_info, None),
    ("linalg", "sinkhorn", _sinkhorn_info, None),
    ("linalg", "hungarian", None, None),
    ("solvers", "probabilistic_solve", _solve_info, None),
    ("solvers", "spectral_match", None, None),
    ("solvers", "ipfp", None, None),
    ("solvers", "rrwm", None, None),
    ("predictor", "learned_affinity", None, None),
    ("predictor", "predictor_forward", None, None),
    ("predictor", "solve_tape", None, None),
    ("predictor", "sinkhorn_tape", None, None),
    ("predictor", "balanced_ce_loss", None, None),
    ("predictor", "instance_loss", None, _next_op),
    ("autodiff", "gather", None, None),
    ("autodiff", "scatter_add", None, None),
    ("bench", "run_experiment", None, None),
    ("bench", "_run_instance", None, _instance_op),
]

# (module, class, method, span name)
METHODS = [
    ("autodiff", "Tensor", "backward", "autodiff.backward"),
    ("autodiff", "ParamStore", "adam_step", "autodiff.adam_step"),
    ("solvers", "SolveTrace", "record", "solvers.trace_record"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.op_base = 0
        self.tensors = 0
        self.missing = []
        self._stack = []
        self._patches = []

    def _note_missing(self, what):
        if what not in self.missing:
            self.missing.append(what)

    def _call_hook(self, name, hook, default, *args):
        # A hook that no longer fits the program's signatures yields
        # ``default`` instead of failing the run, and is listed in ``missing``.
        try:
            return hook(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self._note_missing(f"{name} {hook.__name__} ({type(exc).__name__})")
            return default

    def _wrap(self, name, fn, info=None, op_hook=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if op_hook is not None:
                tracer.op = tracer._call_hook(name, op_hook, tracer.op, tracer, args, kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if info is not None:
                rec[5] = tracer._call_hook(name, info, None, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own, such as one round of a workload."""
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import probmatch
        modules = [probmatch] + [m for k, m in sorted(sys.modules.items())
                                 if k.startswith("probmatch.") and m is not None]
        for mod_name, fn_name, info, op_hook in FUNCTIONS:
            mod = sys.modules.get(f"probmatch.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                self._note_missing(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(f"{mod_name}.{fn_name}", original, info, op_hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, traced)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules.get(f"probmatch.{mod_name}"), cls_name, None)
            if cls is None or not hasattr(cls, meth):
                self._note_missing(name)
                continue
            self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
        tensor = getattr(sys.modules.get("probmatch.autodiff"), "Tensor", None)
        if tensor is None:
            self._note_missing("autodiff.tensors")
        else:
            init, tracer = tensor.__init__, self

            @functools.wraps(init)
            def counted(*args, **kwargs):
                tracer.tensors += 1
                init(*args, **kwargs)

            self._patch(tensor, "__init__", counted)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path, extra: dict):
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra, names=names, missing=self.missing,
                   fields=["name", "start", "end", "parent", "op"],
                   spans=[[index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9),
                           s[3], s[4]] for s in self.spans])
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
            f.write("\n")


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread and nest, so children are disjoint and each
    lies inside its parent's interval.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(spans, instances: int, tensors: int) -> dict:
    """Per-layer figures from the spans of a traced run.

    Times and counts are per instance (one input pair) unless the name says
    per call; ``*.spmv_calls`` are per call of that solver.
    """
    self_t = self_times(spans)
    calls, incl, excl = {}, {}, {}
    owner = [None] * len(spans)
    spmv_by_solver = dict.fromkeys(SOLVERS, 0)
    spmv_flop = spmv_bytes = 0
    residual = 0.0
    nnz, mbytes, aa_edges, iters, early = [], [], [], [], 0
    for k, s in enumerate(spans):
        name, info = s[0], s[5]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (s[2] - s[1])
        excl[name] = excl.get(name, 0.0) + self_t[k]
        owner[k] = name if name in SOLVERS else (owner[s[3]] if s[3] >= 0 else None)
        if name == "linalg.spmv" and owner[k] is not None:
            spmv_by_solver[owner[k]] += 1
        if info is None:
            continue
        if name == "linalg.spmv":
            entries, size = info
            spmv_flop += 2 * (entries + size)
            spmv_bytes += SPMV_BYTES_PER_ENTRY * entries + SPMV_BYTES_PER_DIAG * size
        elif name == "linalg.sinkhorn":
            residual = max(residual, info)
        elif name == "affinity.assemble_affinity":
            nnz.append(info[0])
            mbytes.append(info[1] / 1e6)
        elif name == "graphs.build_aa_graph":
            aa_edges.append(info)
        elif name == "solvers.probabilistic_solve":
            iters.append(info[0])
            early += info[1]

    per = 1.0 / max(instances, 1)

    def ms(name, table=incl):
        return table.get(name, 0.0) * 1e3 * per

    def count(name):
        return calls.get(name, 0) * per

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    spmv_s = incl.get("linalg.spmv", 0.0)
    solves = calls.get("solvers.probabilistic_solve", 0)
    m = {
        "graphs.synthesize_pair.ms": ms("graphs.synthesize_pair"),
        "graphs.synthesize_pair.calls": count("graphs.synthesize_pair"),
        "graphs.geometric_features.ms": ms("graphs.geometric_features"),
        "graphs.delaunay_adjacency.ms": ms("graphs.delaunay_adjacency"),
        "graphs.build_aa_graph.ms": ms("graphs.build_aa_graph"),
        "graphs.aa_edges": mean(aa_edges),
        "affinity.assemble_affinity.ms": ms("affinity.assemble_affinity"),
        "affinity.nnz": mean(nnz),
        "affinity.mbyte": mean(mbytes),
        "affinity.objective.calls": count("affinity.objective"),
        "affinity.objective.ms": ms("affinity.objective"),
        "linalg.spmv.calls": count("linalg.spmv"),
        "linalg.spmv.ms": ms("linalg.spmv"),
        "linalg.spmv.mflop": spmv_flop / 1e6 * per,
        "linalg.spmv.mbyte": spmv_bytes / 1e6 * per,
        "linalg.spmv.mbyte_per_s": ratio(spmv_bytes / 1e6, spmv_s),
        "linalg.sinkhorn.calls": count("linalg.sinkhorn"),
        "linalg.sinkhorn.ms": ms("linalg.sinkhorn"),
        "linalg.sinkhorn.residual": residual,
        "linalg.hungarian.calls": count("linalg.hungarian"),
        "linalg.hungarian.ms": ms("linalg.hungarian"),
        "solvers.probabilistic_solve.ms": ms("solvers.probabilistic_solve", excl),
        "solvers.probabilistic_solve.iterations": mean(iters),
        "solvers.probabilistic_solve.early_stop_ratio": ratio(early, solves),
        "solvers.probabilistic_solve.spmv_calls":
            ratio(spmv_by_solver["solvers.probabilistic_solve"], solves),
        "solvers.trace_record.ms": ms("solvers.trace_record"),
    }
    for solver in SOLVERS[1:]:
        m[f"{solver}.ms"] = ms(solver, excl)
        m[f"{solver}.spmv_calls"] = ratio(spmv_by_solver[solver], calls.get(solver, 0))
    m.update({
        "predictor.learned_affinity.ms": ms("predictor.learned_affinity"),
        "predictor.learned_affinity.calls": count("predictor.learned_affinity"),
        "predictor.predictor_forward.ms": ms("predictor.predictor_forward"),
        "predictor.solve_tape.ms": ms("predictor.solve_tape"),
        "predictor.sinkhorn_tape.ms": ms("predictor.sinkhorn_tape"),
        "predictor.balanced_ce_loss.ms": ms("predictor.balanced_ce_loss"),
        "autodiff.tensors": tensors * per,
        "autodiff.backward.ms": ms("autodiff.backward"),
        "autodiff.adam_step.ms": ms("autodiff.adam_step"),
        "autodiff.gather.ms": ms("autodiff.gather"),
        "autodiff.scatter_add.ms": ms("autodiff.scatter_add"),
        "bench.self.ms": sum(v for k, v in excl.items() if k.startswith("bench."))
                         * 1e3 * per,
    })
    return {k: (v if math.isfinite(v) else 0.0) for k, v in m.items()}
