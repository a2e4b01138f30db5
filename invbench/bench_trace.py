"""Span tracing of invattn from outside the library.

The tracer replaces public functions at every module attribute through which
the library calls them (``from .attention import as_grid`` makes a second
binding in each importing module; the tracer finds them all by identity) and
restores the originals afterwards.
Each span records its name, start, end, parent span and job; spans stay in
per-thread arrays until the run ends. ``as_grid`` validation is counted
rather than spanned, because it runs several times inside every branch call;
calls inside a branch call are counted apart from the rest.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> the "module:attribute" that defines the function; the tracer
# also wraps every other binding of that function in the loaded invattn modules
SPANS = {
    "attention.raw_response": "invattn.attention:raw_response",
    "attention.normalize_response": "invattn.attention:normalize_response",
    "attention.conv": "invattn.attention:apply_1x1_conv",
    "attention.branch": "invattn.attention:residual_branch",
    "attention.forward": "invattn.attention:residual_forward",
    "attention.squeeze": "invattn.attention:squeeze",
    "attention.unsqueeze": "invattn.attention:unsqueeze",
    "attention.build_block": "invattn.attention:build_block",
    "inversion.solve": "invattn.inversion:fixed_point_invert",
    "inversion.roundtrip": "invattn.inversion:roundtrip",
    "logdet.series": "invattn.logdet:logdet_series",
    "logdet.jvp": "invattn.logdet:jvp",
    "logdet.oracle": "invattn.logdet:brute_force_logdet",
    "linalg.power_iteration": "invattn.linalg:power_iteration",
    "linalg.lu_logabsdet": "invattn.linalg:lu_logabsdet",
    "kernels.ssim_mean": "invattn.kernels:ssim_mean",
    "kernels.lu_logabsdet": "invattn.kernels:lu_logabsdet_kernel",
    "harness.ssim": "invattn.harness.metrics:compute_ssim",
    "harness.ppm_load": "invattn.harness.ppm:load_ppm",
    "harness.ppm_write": "invattn.harness.ppm:save_ppm",
    "harness.block_save": "invattn.attention:save_block",
    "harness.records_write": "invattn.inversion:write_records",
}
# factories whose returned callable is the residual branch the solvers call
FACTORIES = {"attention.branch": "invattn.attention:make_residual_branch"}
# counted, not spanned; calls made inside an attention.branch span are also
# counted apart from the rest
COUNTERS = {"attention.as_grid": "invattn.attention:as_grid"}
BRANCH_SPAN = "attention.branch"
JOB_SPAN = "harness.job"
# A branch span is never nested in another: the branch closure and
# residual_branch are two names for one call.
_FLAT = {BRANCH_SPAN}


class _ThreadSpans:
    """Spans finished on one thread, as parallel arrays."""

    def __init__(self) -> None:
        self.stack: list[tuple[int, int]] = []  # open (span id, name code)
        self.tid = threading.get_ident()
        self.ids = array("q")
        self.parents = array("q")
        self.codes = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[tuple[int, bool], int] = {}  # (name code, in a branch) -> calls


class Tracer:
    """Installs span wrappers, records spans, and tabulates them."""

    def __init__(self) -> None:
        self.names = [JOB_SPAN, *SPANS, *COUNTERS]
        self._code = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._next_id = itertools.count(1).__next__
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # bindings absent from the library
        self.solves: list[tuple[int, bool]] = []  # (iterations, converged)
        self.job = -1
        self.job_span = 0

    # -- recording ---------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            return spans

    def _open(self, spans: _ThreadSpans, code: int) -> tuple[int, int]:
        sid = self._next_id()
        parent = spans.stack[-1][0] if spans.stack else self.job_span
        spans.stack.append((sid, code))
        return sid, parent

    def _close(self, spans: _ThreadSpans, sid: int, parent: int, code: int, start: float) -> None:
        end = perf_counter()
        spans.stack.pop()
        spans.ids.append(sid)
        spans.parents.append(parent)
        spans.codes.append(code)
        spans.jobs.append(self.job)
        spans.starts.append(start)
        spans.ends.append(end)

    def begin_job(self, job: int) -> None:
        sid, _ = self._open(self._spans(), self._code[JOB_SPAN])
        self.job, self.job_span = job, sid
        self._job_start = perf_counter()

    def end_job(self) -> None:
        spans = self._spans()
        self._close(spans, self.job_span, 0, self._code[JOB_SPAN], self._job_start)
        self.job_span = 0

    def _span(self, name: str, fn, observe=None):
        code = self._code[name]
        flat = name in _FLAT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            if flat and spans.stack and spans.stack[-1][1] == code:
                return fn(*args, **kwargs)
            sid, parent = self._open(spans, code)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if observe is not None:
                    observe(None, err)
                raise
            finally:
                self._close(spans, sid, parent, code, start)
            if observe is not None:
                observe(result, None)
            return result

        return traced

    def _factory(self, name: str, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self._span(name, factory(*args, **kwargs))

        return make

    def _counter(self, name: str, fn):
        code = self._code[name]
        branch = self._code[BRANCH_SPAN]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            spans = self._spans()
            key = (code, any(open_code == branch for _, open_code in spans.stack))
            spans.counts[key] = spans.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _observe_solve(self, result, err) -> None:
        if err is None:
            report = result[1]
            self.solves.append((report.iterations_used, bool(report.converged)))
        else:
            self.solves.append((getattr(err, "iteration", 0), False))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap each traced function at its definition and at every other
        attribute of a loaded invattn module bound to it (``from .attention
        import as_grid`` makes such a binding); remember the originals. A
        definition that is gone is listed in ``missing``."""
        groups = [(SPANS, self._span), (FACTORIES, self._factory), (COUNTERS, self._counter)]
        for table, make in groups:
            for name, binding in table.items():
                module_name, attr = binding.split(":")
                try:
                    original = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    self.missing.append(binding)
                    continue
                if name == "inversion.solve":
                    wrapper = make(name, original, self._observe_solve)
                else:
                    wrapper = make(name, original)
                modules = [m for n, m in list(sys.modules.items()) if n == "invattn" or n.startswith("invattn.")]
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, alias, original))
                            setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


class SpanTable:
    """All recorded spans as arrays, with self times and per-name totals."""

    def __init__(self, tracer: Tracer, workers: int) -> None:
        threads = tracer._threads
        self.names = tracer.names
        self.ids = np.concatenate([np.frombuffer(t.ids, dtype=np.int64) for t in threads])
        self.parents = np.concatenate([np.frombuffer(t.parents, dtype=np.int64) for t in threads])
        self.codes = np.concatenate([np.frombuffer(t.codes, dtype=np.int32) for t in threads])
        self.jobs = np.concatenate([np.frombuffer(t.jobs, dtype=np.int32) for t in threads])
        self.starts = np.concatenate([np.frombuffer(t.starts, dtype=np.float64) for t in threads])
        self.ends = np.concatenate([np.frombuffer(t.ends, dtype=np.float64) for t in threads])
        self.tids = np.concatenate([np.full(len(t.ids), t.tid, dtype=np.int64) for t in threads])
        self.counts = {name: {"total": 0, "in_branch": 0} for name in COUNTERS}
        for t in threads:
            for (code, in_branch), n in t.counts.items():
                row = self.counts[self.names[code]]
                row["total"] += n
                if in_branch:
                    row["in_branch"] += n
        self.solves = list(tracer.solves)
        self.missing = list(tracer.missing)
        self.workers = workers

        n = len(self.ids)
        index_of = np.full(int(self.ids.max()) + 1 if n else 1, -1, dtype=np.int64)
        index_of[self.ids] = np.arange(n)
        self.parent_index = index_of[self.parents]  # parent id 0 maps to -1
        self.durations = self.ends - self.starts
        has_parent = self.parent_index >= 0
        covered = np.bincount(
            self.parent_index[has_parent], weights=self.durations[has_parent], minlength=n
        )
        # children of a job span run on several threads at once: use the
        # union of their intervals instead of the sum
        job_code = self.names.index(JOB_SPAN)
        for j in np.flatnonzero(self.codes == job_code):
            kids = np.flatnonzero(self.parent_index == j)
            covered[j] = _union_length(self.starts[kids], self.ends[kids])
        self.self_times = self.durations - covered

    def _mask(self, name: str) -> np.ndarray:
        return self.codes == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.durations[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_times[self._mask(name)].sum())

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        target = self.names.index(ancestor)
        found = np.zeros(len(self.ids), dtype=bool)
        up = self.parent_index.copy()
        while (up >= 0).any():
            alive = up >= 0
            found[alive] |= self.codes[up[alive]] == target
            up[alive] = self.parent_index[up[alive]]
        return int((found & self._mask(name)).sum())

    def pool_busy_share(self) -> float:
        """Time worker threads spend inside a job over workers x job wall time."""
        job_mask = self._mask(JOB_SPAN)
        job_wall = float(self.durations[job_mask].sum())
        if job_wall == 0.0:
            return 0.0
        job_idx = np.flatnonzero(job_mask)
        in_job = np.isin(self.parent_index, job_idx)
        off_main = self.tids != self.tids[job_idx[0]]
        return float(self.durations[in_job & off_main].sum()) / (self.workers * job_wall)

    def layer_span_counts(self) -> dict[str, int]:
        layers: dict[str, int] = {}
        for name, row in self.per_name().items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0) + row["count"]
        return layers

    def per_name(self) -> dict[str, dict]:
        rows = {}
        for name in self.names:
            if name in COUNTERS:
                continue
            mask = self._mask(name)
            rows[name] = {
                "count": int(mask.sum()),
                "total_s": float(self.durations[mask].sum()),
                "self_s": float(self.self_times[mask].sum()),
            }
        return rows

    def write(self, stem: Path) -> None:
        """Spans to ``<stem>.npz``; per-name self times and counters to ``<stem>.json``."""
        np.savez(
            stem.with_suffix(".npz"),
            names=np.array(self.names),
            ids=self.ids,
            parents=self.parents,
            codes=self.codes,
            jobs=self.jobs,
            starts=self.starts,
            ends=self.ends,
            tids=self.tids,
        )
        summary = {"spans": self.per_name(), "counters": self.counts, "missing_bindings": self.missing}
        stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
