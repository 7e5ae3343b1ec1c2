"""Traced run: spans around the calls into each numrad layer, and probes.

`Tracer.install` replaces the public functions of each layer at every
reference a caller uses (``catalog.numerical_radius``,
``meansfuncs.herm_eigen``, ``cli.run_campaign``, ...) with a wrapper that
records a span (name, start, end, parent span, run id) in memory;
`Tracer.uninstall` puts the originals back.  matrixcore functions are
wrapped only where other modules call them, so a factorization counts once
as seen from its caller.  A span's self time is its duration minus that of
its direct children.

Per-layer metrics describe the workload's own traced operations.  For a
layer those operations never call, the metric is taken from the tiny
coverage operations (run ids "coverage:<workload>") instead, so that every
layer reports a measured value on every workload.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from numrad import catalog, cli, harness, matrixcore, meansfuncs, radii
from numrad.harness import CampaignConfig

import workloads

FACTORIZATIONS = ("herm_eigen", "abs_op", "polar", "apply_fn", "op_norm",
                  "general_eigenvalues")
EVALUATORS = ("check_classics", "check_mean_h", "check_mean_h_weighted",
              "check_omega_harmonic", "check_mox", "check_aluthge",
              "check_block", "check_symmetrized", "check_alpha")
MEANSFUNCS = ("mean", "psd_pow", "eval_fn", "spectrum_bounds")

# layer module -> public functions wrapped at their callers
TRACED = (
    (radii, ("numerical_radius", "spectral_radius")),
    (matrixcore, FACTORIZATIONS),
    (meansfuncs, MEANSFUNCS),
    (catalog, EVALUATORS + ("check_lemma", "evaluate_bound")),
    (harness, ("run_campaign", "doc_to_matrix", "replay_failure")),
    (cli, ("main",)),
)
# modules whose globals hold the references callers use (the benchmark
# itself calls cli.main, catalog.check_lemma and harness.replay_failure
# through these module attributes)
CALLERS = (radii, meansfuncs, catalog, harness, cli)
ROOT_SPAN = "bench.op"


def _group(run_id) -> str:
    return "coverage" if str(run_id).startswith("coverage:") else "workload"


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory spans of one traced run."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, run id)
        self.run = None
        self.radius_inputs = defaultdict(set)   # group -> input digests
        self._stack = []
        self._saved = []

    def _record(self, name, fn, /, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run)

    def op(self, run_id, fn, *args):
        """Run fn(*args) as the root span of one operation."""
        self.run = run_id
        return self._record(ROOT_SPAN, fn, *args)

    def _wrap(self, name, fn):
        if fn.__name__ == "check_lemma":
            @functools.wraps(fn)
            def traced(lemma_id, **inputs):
                return self._record(f"{name}.{lemma_id}", fn, lemma_id, **inputs)
        elif fn.__name__ == "numerical_radius":
            @functools.wraps(fn)
            def traced(a, *args, **kwargs):
                m = np.asarray(a, dtype=np.complex128)
                self.radius_inputs[_group(self.run)].add(
                    hashlib.blake2b(repr(m.shape).encode() + m.tobytes(),
                                    digest_size=16).digest())
                return self._record(name, fn, a, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._record(name, fn, *args, **kwargs)
        return traced

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for layer, names in TRACED:
            for fname in names:
                original = getattr(layer, fname)
                traced = self._wrap(f"{_short(layer)}.{fname}", original)
                for mod in CALLERS:
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, traced)
        for method in ("to_json", "to_csv"):
            original = getattr(harness.CampaignReport, method)
            self._patch(harness.CampaignReport, method,
                        self._wrap(f"harness.{method}", original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self):
        """{group: {name: [calls, total seconds, self seconds]}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for (name, start, end, _, run), c in zip(self.spans, child):
            t = out[_group(run)][name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - c
        return out

    def write(self, path: Path, header: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {**header, "names": names,
               "fields": ["name", "start_s", "end_s", "parent", "run"],
               "spans": [[index[n], s, e, p, r] for n, s, e, p, r in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_metrics(tracer: Tracer, verdicts: int) -> dict:
    """Per-layer metrics from the spans of a traced run; ``verdicts`` is the
    number the workload's traced operations produced."""
    totals = tracer.totals()

    def pick(name):
        """(group, [calls, total s, self s]) for span ``name``."""
        for group in ("workload", "coverage"):
            if totals[group][name][0]:
                return group, totals[group][name]
        return "workload", [0, 0.0, 0.0]

    group, nr = pick("radii.numerical_radius")
    fact = [totals["workload"][f"matrixcore.{f}"] for f in FACTORIZATIONS]
    m = {
        "radii.numerical_radius.calls": nr[0],
        "radii.numerical_radius.self_s": nr[2],
        "radii.numerical_radius.self_share": nr[2] / totals[group][ROOT_SPAN][1],
        "radii.numerical_radius.unique_ratio":
            len(tracer.radius_inputs[group]) / nr[0],
        "matrixcore.factorizations": sum(c[0] for c in fact),
        "matrixcore.factorizations.per_verdict": sum(c[0] for c in fact) / verdicts,
        "matrixcore.factorizations.self_s": sum(c[2] for c in fact),
    }
    calls_self = ["radii.spectral_radius"] + [f"meansfuncs.{f}" for f in MEANSFUNCS]
    self_only = ([f"catalog.{ev}" for ev in EVALUATORS]
                 + [f"catalog.check_lemma.{lid}" for lid in workloads.LEMMA_IDS]
                 + ["catalog.evaluate_bound", "harness.run_campaign",
                    "harness.doc_to_matrix", "cli.main"])
    for name in calls_self:
        t = pick(name)[1]
        m[f"{name}.calls"], m[f"{name}.self_s"] = t[0], t[2]
    for name in self_only:
        m[f"{name}.self_s"] = pick(name)[1][2]
    for name in ("harness.to_json", "harness.to_csv"):
        m[f"{name}.s"] = pick(name)[1][1]
    t = pick("harness.replay_failure")[1]
    m["harness.replay_failure.ms_per_call"] = 1e3 * t[1] / max(1, t[0])
    return m


def _median_call_us(fn, args_list) -> float:
    times = []
    for args in args_list:
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times)


def probe_metrics(dims, seed: int, tiny: bool) -> dict:
    """Untraced per-call and per-trial timings of single layers."""
    rng = np.random.default_rng([seed, 0xB0B])
    reps = {2: 40, 5: 30, 16: 10, 64: 3}
    m = {}
    for n, r in reps.items():
        mats = [workloads.ginibre(rng, n) for _ in range(1 if tiny else r)]
        m[f"radii.numerical_radius.us_per_call.n{n}"] = _median_call_us(
            radii.numerical_radius, [(a,) for a in mats])
    pds = [(workloads.pos_def(rng, 5), workloads.pos_def(rng, 5))
           for _ in range(2 if tiny else 100)]
    for kind in ("geom", "harm"):
        m[f"meansfuncs.mean.us_per_call.{kind}"] = _median_call_us(
            meansfuncs.mean, [(a, b, kind) for a, b in pds])
    # 16 trials per family at dims 2-5, 4 at dims 12-16: about 1.5 s in all
    trials = len(dims) if tiny else (16 if max(dims) <= 5 else 4)
    for fam, ids in workloads.FAMILIES.items():
        cfg = CampaignConfig(bounds=ids, trials=trials, dims=dims, seed=seed)
        t0 = perf_counter()
        harness.run_campaign(cfg)
        m[f"harness.family.{fam}.ms_per_trial"] = \
            1e3 * (perf_counter() - t0) / cfg.trials
    return m
