"""Outside-in tracing of commfam's layers.

``Tracer.install`` replaces each traced function or method by a wrapper
wherever callers look it up: every ``commfam`` module attribute and every
class attribute bound to the original object (so ``poisson.poisson_bracket``,
``weyl.poisson_bracket`` and ``quantize.poisson_bracket`` are all wrapped,
and so are aliases such as ``MPoly.__rmul__``).  ``uninstall`` restores the
originals.  Nothing inside the program changes.

Each call records a span -- name, start, end, parent span and request id --
in memory; ``write_spans`` saves them when the run ends.  Self time is a
span's duration minus the time of its wrapped child spans; time spent
computing the size counters below is excluded from every span's self time.
The size counters use public attributes only (``term_count``, ``terms()``,
``rows``/``cols``/``data``, ``SampleOutcome.family``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from fractions import Fraction
from time import perf_counter


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


def _mpoly_mul_counts(acc: dict, args, result) -> None:
    a, b = args
    if not hasattr(b, "term_count"):  # scalar scaling: no convolution
        return
    acc["term_pairs"] += a.term_count * b.term_count
    acc["peak_terms"] = max(acc["peak_terms"], a.term_count, b.term_count,
                            result.term_count)
    acc["peak_coef_bits"] = max(acc["peak_coef_bits"],
                                max((_bits(c) for _, c in result.terms()), default=0))


def _qmatrix_mul_counts(acc: dict, args, result) -> None:
    a, b = args
    acc["max_dim"] = max(acc["max_dim"], a.rows, a.cols, b.cols)


def _inverse_counts(acc: dict, args, result) -> None:
    acc["peak_entry_bits"] = max(acc["peak_entry_bits"],
                                 max(map(_bits, result.data), default=0))


def _family_counts(acc: dict, args, result) -> None:
    acc["accepted"] += result.family is not None


# metric prefix -> (module, traced names, counter hook, counter names).
# Names are module attributes or ``Class.method``.  A prefix with several
# names sums over them.
LAYERS: dict[str, tuple] = {
    "exact.mpoly_mul": ("commfam.exact", ["MPoly.__mul__"], _mpoly_mul_counts,
                        ["term_pairs", "peak_terms", "peak_coef_bits"]),
    "exact.mpoly_add": ("commfam.exact", ["MPoly.__add__"], None, []),
    "exact.ratfunc_init": ("commfam.exact", ["RatFunc.__init__"], None, []),
    "exact.ratfunc_eq": ("commfam.exact", ["RatFunc.__eq__"], None, []),
    "exact.ratfunc_partial": ("commfam.exact", ["RatFunc.partial"], None, []),
    "exact.qmatrix_mul": ("commfam.exact", ["QMatrix.__mul__"], _qmatrix_mul_counts,
                          ["max_dim"]),
    "exact.mat_inverse": ("commfam.exact", ["mat_inverse"], _inverse_counts,
                          ["peak_entry_bits"]),
    "exact.kron": ("commfam.exact", ["kron"], None, []),
    "exact.rank": ("commfam.exact", ["rank"], None, []),
    "ncfam.sample_family": ("commfam.ncfam", ["sample_family"], _family_counts,
                            ["accepted"]),
    "ncfam.family_minors": ("commfam.ncfam", ["family_minors"], None, []),
    "ncfam.hamiltonians": ("commfam.ncfam", ["hamiltonians"], None, []),
    "ncfam.check_pairwise_commute": ("commfam.ncfam", ["check_pairwise_commute"],
                                     None, []),
    "ncfam.identity_checks": ("commfam.ncfam",
                              ["check_identity_2a", "check_identity_2b",
                               "check_main_id", "check_laplace_expansion"], None, []),
    "poisson.classical_hamiltonians": ("commfam.poisson", ["classical_hamiltonians"],
                                       None, []),
    "poisson.poisson_bracket": ("commfam.poisson", ["poisson_bracket"], None, []),
    "poisson.check_grassmann": ("commfam.poisson", ["check_grassmann"], None, []),
    "poisson.cone_bracket": ("commfam.poisson", ["cone_bracket"], None, []),
    "weyl.do_compose": ("commfam.weyl", ["do_compose"], None, []),
    "weyl.rational_hamiltonians": ("commfam.weyl", ["rational_hamiltonians"], None, []),
    "weyl.check_commute": ("commfam.weyl", ["check_commute"], None, []),
    "weyl.check_symbol_matches_classical": ("commfam.weyl",
                                            ["check_symbol_matches_classical"], None, []),
    "weyl.check_basis_matches_closed_form": ("commfam.weyl",
                                             ["check_basis_matches_closed_form"], None, []),
    "quantize.helem_mul": ("commfam.quantize", ["HElem.__mul__"], None, []),
    "quantize.localize_product": ("commfam.quantize", ["localize_product"], None, []),
    "quantize.h_inverse": ("commfam.quantize", ["h_inverse"], None, []),
    "quantize.dual_mul": ("commfam.quantize", ["dual_mul"], None, []),
    "cli.request": ("commfam.cli", ["run_scenario"], None, []),
    "reports.to_json": ("commfam.reports", ["Report.to_json"], None, []),
}


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names = list(LAYERS)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {prefix: dict.fromkeys(spec[3], 0)
                         for prefix, spec in LAYERS.items()}
        self.request = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self.spans = {"id": array("q"), "parent": array("q"), "name": array("h"),
                      "request": array("q"), "start": array("d"), "end": array("d")}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced name; returns the names that were not found."""
        missing = []
        for index, (prefix, (module_name, targets, hook, _)) in enumerate(LAYERS.items()):
            module = importlib.import_module(module_name)
            for target in targets:
                owner, _, attr = target.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, attr, None) if holder is not None else None
                if original is None:
                    missing.append(f"{module_name}.{target}")
                    continue
                wrapper = self._wrap(index, prefix, original, hook)
                holders = [holder] if owner else [
                    mod for name, mod in list(sys.modules.items())
                    if name == "commfam" or name.startswith("commfam.")]
                if not self._rebind(holders, original, wrapper):
                    missing.append(f"{module_name}.{target}")
        return missing

    def _rebind(self, holders, original, wrapper) -> int:
        """Point every attribute of ``holders`` bound to ``original`` at
        ``wrapper``; returns how many were rebound."""
        count = 0
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, original))
                    setattr(holder, key, wrapper)
                    count += 1
        return count

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, index: int, prefix: str, fn, hook):
        stack = self._stack
        spans = self.spans
        counters = self.counters[prefix]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_s[index] += duration - frame[1]
                spans["id"].append(span_id)
                spans["parent"].append(parent)
                spans["name"].append(index)
                spans["request"].append(self.request)
                spans["start"].append(start)
                spans["end"].append(end)
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(counters, args, result)
                if stack:  # keep counter time out of the parent's self time
                    stack[-1][1] += perf_counter() - end
            return result

        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``{metric: (value, unit)}`` for every traced layer."""
        out: dict[str, tuple[float, str]] = {}
        for index, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = (self.calls[index], "count")
            out[f"{prefix}.self_s"] = (self.self_s[index], "s")
            for key, value in self.counters[prefix].items():
                out[f"{prefix}.{key}"] = (value, "bits" if key.endswith("bits") else "count")
        accepted = self.counters["ncfam.sample_family"]["accepted"]
        inverses = self.calls[self.names.index("exact.mat_inverse")]
        out["ncfam.inverse_per_trial"] = (inverses / accepted if accepted else 0.0,
                                          "ratio")
        return out

    def write_spans(self, path) -> None:
        """Save the spans as compressed numpy arrays plus the name table."""
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names),
                            **{key: np.asarray(col) for key, col in self.spans.items()})
