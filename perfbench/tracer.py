"""Span tracer that measures the program from outside.

Each traced function is wrapped at the name its caller looks it up under
(``archadapt.orchestrator.train`` is what ``run_adaptation`` calls, for
instance), so no file of the program changes. A wrapper records a span
(id, name, start, end, parent id), a call count, inclusive and self time,
and whatever its hook reads off the arguments and result. Spans stay in
memory and are written out after the run.

The tracer guards itself: installing a wrapper for a name its consumer
module no longer has raises ``TracerError``, so a refactor that moves a
function cannot silently drop that layer's numbers.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class TracerError(RuntimeError):
    """A traced name is missing, or a layer predicted to run recorded nothing."""


def _decisions(arch) -> int:
    # One depth token per unit, then kernel and expansion per active layer.
    return len(arch.units) + 2 * sum(len(unit) for unit in arch.units)


def _rows(tracer, args, kwargs, result):
    tracer.extra["datagen.rows"] += result.features.shape[0]


def _fit_flops(tracer, args, kwargs, result):
    n, q = args[0].shape
    tracer.extra["gaussian.fit_flops"] += n * q * q


def _fired(tracer, args, kwargs, result):
    tracer.extra["gate.fired"] += bool(result)


def _distinct(tracer, args, kwargs, result):
    tracer.distinct.add((args[0], args[1]))


def _oracle_archs(tracer, args, kwargs, result):
    tracer.extra["evaluator.oracle_archs"] += len(result)


def _train_madds(tracer, args, kwargs, result):
    tracer.extra["controller.decisions"] += _decisions(args[0])


def _train(tracer, args, kwargs, result):
    params, trace = result
    prev_arch, shift, cfg = args[1], args[2], args[5]
    tracer.extra["controller.iters"] += len(trace)
    tracer.extra["controller.trajectories"] += len(trace) * cfg.batch_size
    # train() also prices the incumbent once; that call is not a trajectory.
    tracer.extra["controller.decisions"] -= _decisions(prev_arch)
    tracer.last_train = (params, prev_arch, shift, cfg)


def _bytes_written(tracer, args, kwargs, result):
    out = Path(args[1])
    tracer.extra["orchestrator.bytes_written"] += sum(
        p.stat().st_size for p in out.iterdir() if p.is_file()
    )


# (consumer module, attribute, span name, hook). The span name's prefix up
# to the first dot is the layer.
WRAPS = (
    ("archadapt.cli", "parse_config_file", "cli.parse_config_file", None),
    ("archadapt.cli", "build_run_config", "cli.build_run_config", None),
    ("archadapt.orchestrator", "run_adaptation", "orchestrator.run_adaptation", None),
    ("archadapt.orchestrator", "lambda_sweep", "orchestrator.lambda_sweep", None),
    ("archadapt.orchestrator", "compare_distance_metrics", "orchestrator.compare_distance_metrics", None),
    ("archadapt.orchestrator", "write_records", "orchestrator.write_records", _bytes_written),
    ("archadapt.orchestrator", "gen_snapshot", "datagen.gen_snapshot", _rows),
    ("archadapt.orchestrator", "fit_gaussian", "gaussian.fit_gaussian", _fit_flops),
    ("archadapt.orchestrator", "wasserstein2_gaussian", "gaussian.wasserstein2_gaussian", None),
    ("archadapt.orchestrator", "js_divergence_mc", "gaussian.js_divergence_mc", None),
    ("archadapt.orchestrator", "accuracy_drop", "gate.accuracy_drop", None),
    ("archadapt.orchestrator", "should_adapt", "gate.should_adapt", _fired),
    ("archadapt.orchestrator", "oracle_best", "evaluator.oracle_best", None),
    ("archadapt.evaluator", "surrogate_accuracy", "evaluator.surrogate_accuracy", _distinct),
    ("archadapt.evaluator", "enumerate_space", "search_space.enumerate_space", _oracle_archs),
    ("archadapt.evaluator", "madds", "search_space.madds", None),
    ("archadapt.controller", "madds", "search_space.madds", _train_madds),
    ("archadapt.orchestrator", "madds", "search_space.madds", None),
    ("archadapt.orchestrator", "init_params", "controller.init_params", None),
    ("archadapt.orchestrator", "train", "controller.train", _train),
    ("archadapt.orchestrator", "embed_state", "controller.embed_state", None),
    ("archadapt.orchestrator", "greedy_decode", "controller.greedy_decode", None),
)

LAYERS = ("cli", "datagen", "gaussian", "gate", "evaluator", "search_space", "controller", "orchestrator")


class Tracer:
    """Spans and counters of one traced workload run."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.distinct: set = set()
        self.last_train = None
        self._next_id = 1
        self._stack = [0]  # ids of open spans; 0 is the root
        self._child_time = [0.0]  # time covered by children, per open span

    def _enter(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        self._child_time.append(0.0)
        return sid, parent, time.perf_counter()

    def _exit(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        covered = self._child_time.pop()
        duration = end - start
        self._child_time[-1] += duration
        self.calls[name] += 1
        self.incl[name] += duration
        self.self_time[name] += duration - covered
        self.spans.append((sid, name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as a whole run."""
        sid, parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(name, sid, parent, start)

    def _wrap(self, original, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, start = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, start)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    raise TracerError(
                        f"{module_name}.{attr} is missing: the {name.split('.')[0]} "
                        "layer cannot be traced; update perfbench/tracer.py WRAPS"
                    )
                setattr(module, attr, self._wrap(original, name, hook))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, count in self.calls.items():
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += count
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV: id, name, start and end in seconds, parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with gzip.open(tmp, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent}\n")
        os.replace(tmp, path)
