"""Span tracing for the benchmark's traced run.

The program carries no instrumentation of its own, so the tracer wraps the
public functions listed in SPANS.  ssaforecast modules bind each other's
functions directly (``from .mlp import train``), so a wrapper is installed
under every name in every ssaforecast module that refers to the original
function, and removed again afterwards.

Each call records a span (run id, span id, parent span id, name, start, end)
in memory; ``write_spans`` writes them out once the run is over.  Busy time
(``*_s``) sums span durations, self time (``*_self_s``) subtracts the time
spent in directly nested spans, and counts are exact.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _observe_train(counts, args, result):
    best, trace = result
    counts["mlp.epochs"] += len(trace)
    counts["mlp.best_epochs"] += best.epoch


def _observe_predict(counts, args, result):
    counts["forecast.steps"] += len(result)


def _observe_write(counts, args, result):
    counts["jsonio.bytes_written"] += os.path.getsize(args[0])


# span name -> observer(counts, args, result) or None
SPANS = {
    "cli.cmd_decompose": None,
    "cli.cmd_train": None,
    "cli.cmd_predict": None,
    "cli.cmd_compare": None,
    "config.load_config": None,
    "series.load_csv": None,
    "series.build_embedding": None,
    "series.split_validation": None,
    "ssa.decompose": None,
    "ssa.lag_correlation": None,
    "ssa.eigendecompose": None,
    "ssa.principal_components": None,
    "ssa.partial_reconstruction": None,
    "mlp.train": _observe_train,
    "mlp.backprop_gradient": None,
    "mlp.gd_step": None,
    "mlp.forward_batch": None,
    "curriculum.curriculum_train": None,
    "curriculum.error_vs_pc_curve": None,
    "curriculum.compare_curriculum_baseline": None,
    "forecast.multi_step_predict": _observe_predict,
    "jsonio.write_csv": _observe_write,
    "jsonio.write_json": _observe_write,
}

PACKAGE = "ssaforecast"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (run_id, span_id, parent_id, name, start, end)
        self.run_hits: Counter = Counter()  # over the whole run, for the self-check
        self._stack: list[list] = []  # open spans: [span_id, child seconds]
        self._next_id = 0
        self._run_id = 0
        self._begin(0)

    def _begin(self, run_id: int) -> None:
        self._run_id = run_id
        self.total: defaultdict = defaultdict(float)
        self.own: defaultdict = defaultdict(float)
        self.hits: Counter = Counter()
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.total[name] += duration
                tracer.own[name] += duration - frame[1]
                tracer.hits[name] += 1
                tracer.spans.append((tracer._run_id, span_id, parent_id, name, start, end))
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, run_id: int):
        """Trace one iteration: wrappers are in place only inside the block."""
        self._begin(run_id)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        replaced = []
        try:
            for name, observe in SPANS.items():
                module_name, attr = name.split(".")
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                original = getattr(module, attr, None)
                if original is None:  # left unhit, which the self-check reports
                    continue
                wrapper = self._wrap(name, original, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            replaced.append((m, key, original))
            yield self
        finally:
            for m, key, original in reversed(replaced):
                setattr(m, key, original)
            self.run_hits.update(self.hits)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last traced iteration."""
        total, own, hits, counts = self.total, self.own, self.hits, self.counts
        epochs = counts["mlp.epochs"]
        steps = counts["forecast.steps"]
        return {
            "series.load_csv_s": total["series.load_csv"],
            "series.embed_split_s": total["series.build_embedding"]
            + total["series.split_validation"],
            "series.build_embedding_calls": hits["series.build_embedding"],
            "ssa.decompose_calls": hits["ssa.decompose"],
            "ssa.decompose_s": total["ssa.decompose"],
            "ssa.lag_correlation_s": total["ssa.lag_correlation"],
            "ssa.eigendecompose_s": total["ssa.eigendecompose"],
            "ssa.principal_components_s": total["ssa.principal_components"],
            "ssa.decompose_self_s": own["ssa.decompose"],
            "ssa.partial_reconstruction_s": total["ssa.partial_reconstruction"],
            "mlp.train_calls": hits["mlp.train"],
            "mlp.epochs": epochs,
            "mlp.train_s": total["mlp.train"],
            "mlp.epoch_us": 1e6 * total["mlp.train"] / epochs if epochs else 0.0,
            "mlp.backprop_gradient_s": total["mlp.backprop_gradient"],
            "mlp.gd_step_s": total["mlp.gd_step"],
            "mlp.forward_batch_s": total["mlp.forward_batch"],
            "mlp.forward_batch_calls": hits["mlp.forward_batch"],
            "mlp.train_self_s": own["mlp.train"],
            # epoch of the returned best state over epochs run
            "mlp.useful_epoch_ratio": counts["mlp.best_epochs"] / epochs if epochs else 0.0,
            "curriculum.curriculum_train_self_s": own["curriculum.curriculum_train"],
            "curriculum.error_vs_pc_curve_self_s": own["curriculum.error_vs_pc_curve"],
            "curriculum.compare_self_s": own["curriculum.compare_curriculum_baseline"],
            "forecast.multi_step_predict_s": total["forecast.multi_step_predict"],
            "forecast.steps": steps,
            "forecast.step_us": 1e6 * total["forecast.multi_step_predict"] / steps
            if steps else 0.0,
            "jsonio.write_csv_s": total["jsonio.write_csv"],
            "jsonio.write_json_s": total["jsonio.write_json"],
            "jsonio.bytes_written": counts["jsonio.bytes_written"],
            "config.load_config_s": total["config.load_config"],
            "cli.decompose_s": total["cli.cmd_decompose"],
            "cli.train_s": total["cli.cmd_train"],
            "cli.predict_s": total["cli.cmd_predict"],
            "cli.compare_s": total["cli.cmd_compare"],
        }

    def unhit(self, expected) -> list[str]:
        """Expected spans that no traced call reached (the self-check)."""
        return [name for name in expected if self.run_hits[name] == 0]

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span_id", "parent_id", "name", "start_s", "end_s"])
            writer.writerows(self.spans)
