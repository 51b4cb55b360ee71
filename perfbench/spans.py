"""In-memory span tracing for the benchmark's traced run.

The program's source is not edited. Instead, ``install`` replaces the names
that ``cli``, ``defacing``, ``evaluation``, ``brain_extraction`` and
``registration`` look up (a function bound into their namespace, or a module
they call through) with wrappers that record one span per call: name, start,
end, parent span and subject id. ``uninstall`` puts every original back.

Spans stay in memory; ``layer_metrics`` turns one round's spans into the
per-layer figures and ``accounting_errors`` checks that each subject's span
is covered exactly by its own self time plus its direct children.
"""

import concurrent.futures
import functools
import itertools
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager

# Spans that stand for one subject's work; their children must not overlap.
SUBJECT_SPANS = ("cli._deface_one", "cli.main", "evaluation.qc_item")

LEVELS = 3  # the default pyramid (factors 4, 2, 1)


class _ModuleView:
    """Stand-in for a module inside one caller's namespace: the overridden
    names resolve to wrappers, every other name to the real module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name, subject=None, parent=None, **attrs):
        """Record a span around the body; parent and subject default to the
        innermost open span of this thread."""
        if not self.enabled:
            yield {}
            return
        outer = self.current()
        sp = {
            "id": next(self._ids),
            "name": name,
            "parent": parent if parent is not None else (outer["id"] if outer else None),
            "subject": subject or (outer["subject"] if outer else None),
            **attrs,
        }
        stack = self._stack()
        stack.append(sp)
        sp["start"] = time.perf_counter()
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, record=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if record:
                    record(sp, args, kwargs, result)
                return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from defacepipe import (
            brain_extraction,
            cli,
            defacing,
            evaluation,
            geometry,
            morphology,
            nifti,
            registration,
        )

        w = self.wrap

        def file_bytes(index):
            def record(sp, args, kwargs, _result):
                path = args[index] if len(args) > index else kwargs["path"]
                sp["bytes"] = os.path.getsize(path)

            return record

        read = w("nifti.read_nifti", nifti.read_nifti, file_bytes(0))
        write = w("nifti.write_nifti", nifti.write_nifti, file_bytes(2))
        write_mask = w("nifti.write_mask", nifti.write_mask, file_bytes(1))
        reorient = w("geometry.reorient_to_canonical", geometry.reorient_to_canonical)
        resample = w("geometry.resample", geometry.resample)
        dilate = w("morphology.dilate", morphology.dilate)
        fallback = w("brain_extraction.fallback_extract", brain_extraction.fallback_extract)
        extract = w("brain_extraction.extract_brain", brain_extraction.extract_brain)

        def record_levels(sp, _args, _kwargs, result):
            levels = result[1].get("levels", [])
            sp["levels"] = [(int(lv["iterations"]), float(lv["mi"])) for lv in levels]

        # cli
        self._patch(cli, "nifti", _ModuleView(
            nifti, read_nifti=read, write_nifti=write, write_mask=write_mask))
        self._patch(cli, "geometry", _ModuleView(
            geometry, save_transform=w("geometry.save_transform", geometry.save_transform)))
        self._patch(cli, "concurrent", _ModuleView(
            concurrent, futures=_ModuleView(
                concurrent.futures, ThreadPoolExecutor=self._pool_class())))
        self._patch(cli, "_load_pack", w("cli._load_pack", cli._load_pack))
        self._patch(cli, "_deface_one", self._subject_job(cli._deface_one))
        self._patch(cli, "deface", w("defacing.deface", cli.deface))
        self._patch(cli, "quickshear", w("defacing.quickshear", cli.quickshear))
        self._patch(cli, "make_template_pack",
                    w("defacing.make_template_pack", cli.make_template_pack))
        self._patch(cli, "qc_report", self._qc_report(cli.qc_report))
        # defacing
        self._patch(defacing, "geometry", _ModuleView(
            geometry, reorient_to_canonical=reorient, resample=resample))
        self._patch(defacing, "extract_brain", extract)
        self._patch(defacing, "fallback_extract", fallback)
        self._patch(defacing, "dilate", dilate)
        self._patch(defacing, "register_affine", w(
            "registration.register_affine", defacing.register_affine, record_levels))
        # brain_extraction
        self._patch(brain_extraction, "morphology", _ModuleView(
            morphology,
            dilate=dilate,
            erode=w("morphology.erode", morphology.erode),
            largest_connected_component=w(
                "morphology.largest_connected_component",
                morphology.largest_connected_component),
            fill_holes=w("morphology.fill_holes", morphology.fill_holes),
        ))
        self._patch(brain_extraction, "nifti", _ModuleView(nifti, read_nifti=read))
        self._patch(brain_extraction, "reorient_to_canonical", reorient)
        self._patch(brain_extraction, "fallback_extract", fallback)
        # evaluation
        self._patch(evaluation, "reorient_to_canonical", reorient)
        self._patch(evaluation, "extract_brain", extract)
        self._patch(evaluation, "dice", w("evaluation.dice", evaluation.dice))
        # registration -> scipy.optimize
        self._patch(registration, "optimize", _ModuleView(
            registration.optimize, minimize=self._minimize(registration.optimize.minimize)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- special wrappers ------------------------------------------------

    def _pool_class(self):
        """Thread pool that hands each job its submit time and the span that
        submitted it, so queue wait and the cross-thread parent are known."""
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                outer = tracer.current()
                pending = (outer["id"] if outer else None, time.perf_counter())

                def job(*a, **k):
                    tracer._local.pending = pending
                    return fn(*a, **k)

                return super().submit(job, *args, **kwargs)

        return TracedPool

    def _subject_job(self, fn):
        @functools.wraps(fn)
        def wrapper(input_path, *args, **kwargs):
            if not self.enabled:
                return fn(input_path, *args, **kwargs)
            parent, submitted = getattr(self._local, "pending", None) or (None, None)
            self._local.pending = None
            subject = _stem(input_path)
            with self.span("cli._deface_one", subject=subject, parent=parent) as sp:
                if submitted is not None:
                    sp["queue_wait"] = sp["start"] - submitted
                return fn(input_path, *args, **kwargs)

        return wrapper

    def _qc_report(self, fn):
        """qc_report loops over its items; a span per item is opened when the
        loop takes the item and closed when it asks for the next one."""
        tracer = self

        class Items(list):
            def __iter__(self):
                for item in list.__iter__(self):
                    with tracer.span("evaluation.qc_item", subject=str(item[0])):
                        yield item

        @functools.wraps(fn)
        def wrapper(items, *args, **kwargs):
            if not self.enabled:
                return fn(items, *args, **kwargs)
            with self.span("evaluation.qc_report"):
                return fn(Items(items), *args, **kwargs)

        return wrapper

    def _minimize(self, fn):
        @functools.wraps(fn)
        def wrapper(fun, x0, *args, **kwargs):
            if not self.enabled:
                return fn(fun, x0, *args, **kwargs)
            first = []

            def counted(x, *a):
                value = fun(x, *a)
                if not first:
                    first.append(float(value))
                return value

            with self.span("registration.minimize") as sp:
                res = fn(counted, x0, *args, **kwargs)
                sp.update(
                    nfev=int(res.nfev),
                    nit=int(res.nit),
                    status=int(res.status),
                    start_cost=first[0] if first else math.nan,
                    end_cost=float(res.fun),
                )
                return res

        return wrapper


def _stem(path):
    name = os.path.basename(str(path))
    for ext in (".nii.gz", ".nii"):
        if name.endswith(ext):
            return name[: -len(ext)]
    return name


# ---------------------------------------------------------------------------
# Analysis


def _children(spans):
    kids = {}
    for sp in spans:
        kids.setdefault(sp["parent"], []).append(sp)
    return kids


def _covered(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    kids = _children(spans)
    out = {}
    for sp in spans:
        clipped = [
            (max(c["start"], sp["start"]), min(c["end"], sp["end"]))
            for c in kids.get(sp["id"], [])
        ]
        out[sp["id"]] = (sp["end"] - sp["start"]) - _covered(
            [(a, b) for a, b in clipped if b > a]
        )
    return out


def accounting_errors(spans, tol=1e-9):
    """For each subject span: its children lie inside it and do not overlap,
    so self time plus the children's durations equals its wall time."""
    kids = _children(spans)
    selfs = self_times(spans)
    errors = []
    for sp in spans:
        if sp["name"] not in SUBJECT_SPANS or not sp["subject"]:
            continue
        children = sorted(kids.get(sp["id"], []), key=lambda c: c["start"])
        dur = sp["end"] - sp["start"]
        total = selfs[sp["id"]] + sum(c["end"] - c["start"] for c in children)
        outside = [c for c in children
                   if c["start"] < sp["start"] - tol or c["end"] > sp["end"] + tol]
        overlap = any(b["start"] < a["end"] - tol for a, b in zip(children, children[1:]))
        if outside or overlap or abs(total - dur) > tol + 1e-9 * dur:
            errors.append(
                f"{sp['name']} {sp['subject']}: wall {dur:.6f} s, "
                f"self + children {total:.6f} s"
            )
    return errors


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _levels_of(calls, levels):
    """Pyramid level of each optimizer call of one registration, matched to
    the per-level iteration totals the registration reports."""
    out, k, acc = [], 0, 0
    for call in calls:
        if k >= len(levels):
            return None
        out.append(k)
        acc += call["nit"]
        if acc == levels[k][0]:
            k, acc = k + 1, 0
    return out if k == len(levels) else None


def layer_metrics(spans, jobs, wall_s, convergence_tol):
    """Per-layer figures for one round of the timed phase.

    Times are seconds summed over the round's spans (with --jobs 2 two
    subjects run at once, so a sum may exceed the round's wall time);
    ``cli.*_s`` and ``registration.levelN.mi`` are medians over subjects.
    """
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
    selfs = self_times(spans)
    kids = _children(spans)

    def dur(name):
        return sum(sp["end"] - sp["start"] for sp in by_name.get(name, []))

    def self_of(*names):
        return sum(selfs[sp["id"]] for n in names for sp in by_name.get(n, []))

    def total_bytes(name):
        return sum(sp.get("bytes", 0) for sp in by_name.get(name, [])) / 1e6

    subjects = by_name.get("cli._deface_one", [])
    subject_s = [sp["end"] - sp["start"] for sp in subjects]
    calls = by_name.get("registration.minimize", [])
    nfev = sum(c["nfev"] for c in calls)
    improving = sum(
        1 for c in calls if (c["start_cost"] - c["end_cost"]) > convergence_tol
    )

    level_s = [0.0] * LEVELS
    level_evals = [0] * LEVELS
    level_mi = [[] for _ in range(LEVELS)]
    for reg in by_name.get("registration.register_affine", []):
        levels = reg.get("levels", [])
        mine = sorted(
            (c for c in kids.get(reg["id"], []) if c["name"] == "registration.minimize"),
            key=lambda c: c["start"],
        )
        for call, level in zip(mine, _levels_of(mine, levels) or []):
            if level < LEVELS:
                level_s[level] += call["end"] - call["start"]
                level_evals[level] += call["nfev"]
        for level, (_iters, mi) in enumerate(levels[:LEVELS]):
            level_mi[level].append(mi)

    subject_spans = [sp for sp in spans if sp["name"] in SUBJECT_SPANS and sp["subject"]]
    m = {
        "cli.load_pack_s": _median([sp["end"] - sp["start"]
                                    for sp in by_name.get("cli._load_pack", [])]),
        "cli.subject_s": _median(subject_s),
        "cli.queue_wait_s": _median([sp["queue_wait"] for sp in subjects
                                     if "queue_wait" in sp]),
        "cli.worker_busy": sum(subject_s) / (jobs * wall_s) if subjects else 0.0,
        "registration.s": dur("registration.register_affine"),
        "registration.prep_s": self_of("registration.register_affine"),
        "registration.cost_evals": nfev,
        "registration.s_per_eval": dur("registration.minimize") / nfev if nfev else 0.0,
    }
    for level in range(LEVELS):
        m[f"registration.level{level}.s"] = level_s[level]
        m[f"registration.level{level}.cost_evals"] = level_evals[level]
        m[f"registration.level{level}.mi"] = _median(level_mi[level])
    m.update({
        "registration.restarts": len(calls),
        "registration.restarts_at_maxiter": sum(1 for c in calls if c["status"] == 2),
        "registration.restarts_improving": improving / len(calls) if calls else 0.0,
        "morphology.dilate_s": dur("morphology.dilate"),
        "morphology.dilate_calls": len(by_name.get("morphology.dilate", [])),
        "morphology.erode_s": dur("morphology.erode"),
        "morphology.components_s": dur("morphology.largest_connected_component")
        + dur("morphology.fill_holes"),
        "brain_extraction.self_s": self_of(
            "brain_extraction.extract_brain", "brain_extraction.fallback_extract"),
        "geometry.reorient_s": dur("geometry.reorient_to_canonical"),
        "geometry.resample_s": dur("geometry.resample"),
        "nifti.read_s": dur("nifti.read_nifti"),
        "nifti.read_mb": total_bytes("nifti.read_nifti"),
        "nifti.write_s": dur("nifti.write_nifti") + dur("nifti.write_mask"),
        "nifti.write_mb": total_bytes("nifti.write_nifti") + total_bytes("nifti.write_mask"),
        "defacing.deface_self_s": self_of("defacing.deface"),
        "defacing.quickshear_s": dur("defacing.quickshear"),
        "evaluation.qc_report_self_s": self_of("evaluation.qc_report", "evaluation.qc_item"),
        "evaluation.dice_s": dur("evaluation.dice"),
        "trace.spans": len(spans),
        "trace.subject_self_share": _median([
            selfs[sp["id"]] / (sp["end"] - sp["start"])
            for sp in subject_spans if sp["end"] > sp["start"]
        ]),
    })
    return m
