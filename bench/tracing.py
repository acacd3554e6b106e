"""Spans and counts around the library's public functions, for the traced run.

`install` wraps each function in TRACED and rebinds the wrapper at every
module attribute of the package that binds the original, so calls made
through another module's globals (`recovery.simplex_project` inside the
solver, `cheb_t_table` imported into three modules) are seen too. Spans
(name, start, end, parent, job) stay in memory; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _add_iterations(prefix, flag, flag_name):
    def hook(counts, args, result):
        counts[f"{prefix}.iterations"] += result.iterations
        counts[f"{prefix}.{flag_name}"] += 0 if getattr(result, flag) else 1

    return hook


def _count_multi_iterations(counts, args, result):
    # dp_synthesize_multi runs the simplex solver without solve_weighted_qp,
    # so its iterations are counted from its public report
    counts["dpsynth.dp_synthesize_multi.iterations"] += result.report.iterations
    counts["dpsynth.dp_synthesize_multi.nonconverged"] += 0 if result.report.converged else 1


def _count_columns(counts, args, result):
    counts["sde.LinearOperator.apply_block.columns"] += args[1].shape[1]


def _count_matvecs(counts, args, result):
    counts["sde.matvecs"] += result.report.matvecs


def _count_em(counts, args, result):
    counts["popmle.iterations"] += result.iterations


def _bytes_read(counts, args, result):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, result):
    counts["fileio.bytes_written"] += os.path.getsize(args[1])


# module -> function (or Class.method) -> count hook
TRACED = {
    "recovery": {
        "solve_weighted_qp": _add_iterations("recovery.solve_weighted_qp", "converged", "nonconverged"),
        "simplex_project": None,
        "power_step_bound": None,
        "solve_moment_lp": _add_iterations("recovery.solve_moment_lp", "feasible", "infeasible"),
    },
    "chebyshev": {"cheb_t_table": None},
    "dpsynth": {
        "dp_synthesize": None,
        "dp_synthesize_multi": _count_multi_iterations,
        "synthesize_from_noisy_moments": None,
        "gaussian_noise_vector": None,
    },
    "sde": {
        "LinearOperator.apply_block": _count_columns,
        "power_method_bound": None,
        "hutchinson_cheb_moments": None,
        "estimate_spectral_density": _count_matvecs,
    },
    "popmle": {"npmle_em": _count_em, "fingerprint": None},
    "fileio": {
        "load_moments_csv": _bytes_read,
        "load_dataset_csv": _bytes_read,
        "save_distribution_csv": _bytes_written,
        "sha256_file": _bytes_read,
        "write_json_report": _bytes_written,
    },
    "cli": {"main": None},
    "distributions": {
        "cheb_moments": None,
        "w1_distance": None,
        "grid_round_indices": None,
        "round_to_grid": None,
    },
}

SPAN_NAMES = [f"{module}.{name}" for module, names in TRACED.items() for name in names]
COUNT_NAMES = [
    "recovery.solve_weighted_qp.iterations",
    "recovery.solve_weighted_qp.nonconverged",
    "recovery.solve_moment_lp.iterations",
    "recovery.solve_moment_lp.infeasible",
    "dpsynth.dp_synthesize_multi.iterations",
    "dpsynth.dp_synthesize_multi.nonconverged",
    "sde.LinearOperator.apply_block.columns",
    "sde.matvecs",
    "popmle.iterations",
    "fileio.bytes_read",
    "fileio.bytes_written",
]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job index)
        self.counts = defaultdict(int)
        self.job = -1
        self._stack = []

    def wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def layer_summary(self):
        """Self seconds per span name, and the recorded counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
        counts = {f"{name}.calls": 0 for name in SPAN_NAMES}
        counts.update(dict.fromkeys(COUNT_NAMES, 0))
        counts.update(self.counts)
        return self_s, counts

    def write(self, path):
        names = {name: i for i, name in enumerate(SPAN_NAMES)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": SPAN_NAMES,
                    "columns": ["name", "start", "end", "parent", "job"],
                    "spans": [[names[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                fh,
            )


def install(tracer):
    """Wrap every TRACED function of the imported package in place."""
    package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "momentforge"]
    for module_name, functions in TRACED.items():
        module = importlib.import_module(f"momentforge.{module_name}")
        for qualname, hook in functions.items():
            span_name = f"{module_name}.{qualname}"
            if "." in qualname:
                class_name, method = qualname.split(".")
                owner = getattr(module, class_name)
                setattr(owner, method, tracer.wrap(span_name, getattr(owner, method), hook))
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(span_name, original, hook)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
