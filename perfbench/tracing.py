"""Outside-in tracing: spans and counters around the public functions of
each mplkit module, installed only for a traced pass.

Nothing inside the library changes.  A wrapper replaces a function in its
defining module and in every other mplkit module that bound the same
object by name (symalg imports choose_cutoff and series_value_batch, cli
imports reduce_li, the package re-exports most names), and the originals
are put back when the pass ends.

Spans are kept in memory as (name, start_ns, end_ns, parent index) and
written out at the end of the run; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from mplkit import coalgebra, linalg, numeval, reduction, serialize, symalg, verify

# (metric prefix, module, attribute) of every wrapped function
SPANS = (
    ("numeval.eval_li", numeval, "eval_li"),
    ("numeval.kernel", numeval, "series_value_batch"),
    ("numeval.cutoff", numeval, "choose_cutoff"),
    ("reduction.generate", reduction, "reduce_li"),
    ("reduction.weighted_sum", reduction, "build_weighted_sum"),
    ("symalg.eval", symalg, "eval_expr_batch"),
    ("coalgebra.construct", coalgebra, "construct_preimage"),
    ("coalgebra.image", coalgebra, "cobracket_image"),
    ("coalgebra.contract", coalgebra, "tensor_distribution_contract"),
    ("linalg.solve", linalg, "solve_exact"),
    ("verify.identity", verify, "verify_identity"),
    ("verify.sample", verify, "sample_points"),
    ("verify.convergence", verify, "check_convergence"),
    ("serialize.identity_dumps", serialize, "identity_dumps"),
    ("serialize.report_dumps", serialize, "report_dumps"),
    ("serialize.generator_combination_dumps", serialize, "generator_combination_dumps"),
)
OUTERMOST_ONLY = {"coalgebra.image"}  # cobracket_image recurses on combinations
COUNTED_ONLY = (("numeval.tail_bound", numeval, "tail_bound"),)
METHOD_SPANS = (("symalg.instantiate", symalg.ArgMonomial, "instantiate"),)


def _mplkit_modules():
    return [m for n, m in list(sys.modules.items()) if n == "mplkit" or n.startswith("mplkit.")]


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.max_cutoff = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Counts taken from the arguments and result of one call."""
        c = self.counts
        if name == "numeval.kernel":
            indices, argmat, cutoff = args[:3]
            c["numeval.kernel_steps"] += cutoff * indices.depth * argmat.shape[1]
        elif name == "numeval.cutoff":
            self.max_cutoff = max(self.max_cutoff, result)
        elif name == "reduction.generate":
            c["reduction.rhs_terms"] += len(result.rhs.terms)
        elif name == "symalg.eval":
            c["symalg.factor_evals"] += sum(len(t.factors) for t in args[0].terms)
        elif name == "coalgebra.construct":
            c["coalgebra.preimage_terms"] += len(result.terms)
        elif name == "coalgebra.image":
            c["coalgebra.image_words"] += len(result.terms)
        elif name.startswith("serialize."):
            c["serialize.bytes"] += len(result.encode())

    def _span_wrapper(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        outermost = name in OUTERMOST_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                active[name] -= 1
                spans[index][2] = clock()
            self.counts[name + "_calls"] += 1
            self._observe(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _mplkit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for name, module, attr in SPANS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._span_wrapper(name, original))
        for name, module, attr in COUNTED_ONLY:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._count_wrapper(name, original))
        for name, cls, attr in METHOD_SPANS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._span_wrapper(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e-9
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += (end - start) * 1e-9
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass, in the units of BENCHMARK.json."""
        total, own, c = self.total_times(), self.self_times(), self.counts
        t = lambda name: total.get(name, 0.0)  # noqa: E731
        m = {
            "numeval.kernel_s": t("numeval.kernel"),
            "numeval.kernel_calls": c["numeval.kernel_calls"],
            "numeval.kernel_steps": c["numeval.kernel_steps"],
            "numeval.cutoff_s": t("numeval.cutoff"),
            "numeval.cutoff_calls": c["numeval.cutoff_calls"],
            "numeval.tail_bound_calls": c["numeval.tail_bound_calls"],
            "numeval.max_cutoff": self.max_cutoff,
            "numeval.cutoff_calls_per_kernel_call": (
                c["numeval.cutoff_calls"] / c["numeval.kernel_calls"]
                if c["numeval.kernel_calls"] else 0.0
            ),
            "numeval.eval_self_s": own.get("numeval.eval_li", 0.0),
            "reduction.generate_s": t("reduction.generate"),
            "reduction.weighted_sum_s": t("reduction.weighted_sum"),
            "reduction.rhs_terms": c["reduction.rhs_terms"],
            "symalg.eval_s": t("symalg.eval"),
            "symalg.assembly_s": own.get("symalg.eval", 0.0),
            "symalg.instantiate_s": t("symalg.instantiate"),
            "symalg.instantiate_calls": c["symalg.instantiate_calls"],
            "symalg.factor_evals": c["symalg.factor_evals"],
            "coalgebra.construct_s": t("coalgebra.construct"),
            "coalgebra.image_s": t("coalgebra.image"),
            "coalgebra.contract_s": t("coalgebra.contract"),
            "coalgebra.preimage_terms": c["coalgebra.preimage_terms"],
            "coalgebra.image_words": c["coalgebra.image_words"],
            "linalg.solve_s": t("linalg.solve"),
            "linalg.solve_calls": c["linalg.solve_calls"],
            "verify.identity_s": t("verify.identity"),
            "verify.sample_s": t("verify.sample"),
            "verify.convergence_s": t("verify.convergence"),
            "serialize.dumps_s": sum(v for k, v in total.items() if k.startswith("serialize.")),
            "serialize.bytes": c["serialize.bytes"],
        }
        return {k: float(v) for k, v in m.items()}

    def dump(self) -> dict:
        """The spans and their self times, relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
            "self_s": self.self_times(),
            "total_s": self.total_times(),
        }
