"""Span recorder for the traced run, installed from the benchmark's side.

Each call into a wrapped library function records one span: name, start,
end, the span that was open when it began (its parent), the operation id
shared by every span of one benchmark operation, whether it raised, and
an optional work count. Spans stay in memory and are written out when the
run ends.

The library is not edited. install() rebinds each wrapped function in
every namespace that holds it -- the package, each module that imported
it by name, and dicts such as checks.SUITES that store it -- because a
patch on the defining module alone misses calls made through those other
bindings. Classes are traced by wrapping their __init__, methods by
rebinding them on the class.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from functools import partial

MODULES = ("spectral", "gaussian", "conditioning", "oracle", "regression", "checks", "io", "cli")
# Traced beyond the modules' public functions: the certificate-heavy
# classes, the cached decomposition, and the PSD clamp that conditioning
# imports by name despite its underscore.
EXTRA = {
    "spectral.Projector": ("spectral", "Projector", "__init__"),
    "gaussian.Gaussian": ("gaussian", "Gaussian", "__init__"),
    "spectral.decomposition": ("spectral", "SymOperator", "decomposition"),
    "gaussian._psd_clamped": ("gaussian", "_psd_clamped", None),
}

# Span record fields.
NAME, START, END, PARENT, OP, FAILED, WORK = range(7)


def _work(name: str, args) -> int:
    """The span's work count: n^3 for eig_sym on an n x n operator, else 0."""
    if name != "spectral.eig_sym":
        return 0
    dim = getattr(args[0], "dim", None)
    return (int(dim) if dim is not None else len(args[0])) ** 3


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op, False, _work(name, args)]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()


def _wrapper(recorder: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


def install(recorder: Recorder):
    """Wrap the library's layers; returns a function that undoes every rebinding."""
    package = importlib.import_module("gausscond")
    modules = {m: importlib.import_module(f"gausscond.{m}") for m in MODULES}
    undo = []

    def rebind(namespace, key, value):
        if isinstance(namespace, dict):
            undo.append((namespace.__setitem__, key, namespace[key]))
            namespace[key] = value
        else:
            undo.append((partial(setattr, namespace), key, getattr(namespace, key)))
            setattr(namespace, key, value)

    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[obj] = _wrapper(recorder, f"{short}.{attr}", obj)
    for name, (short, owner, method) in EXTRA.items():
        obj = getattr(modules[short], owner)
        if method is None:
            wrappers[obj] = _wrapper(recorder, name, obj)
        else:
            rebind(obj, method, _wrapper(recorder, name, getattr(obj, method)))

    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                rebind(namespace, attr, wrappers[obj])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        rebind(obj, key, wrappers[value])

    def uninstall():
        for setter, key, original in reversed(undo):
            setter(key, original)

    return uninstall


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration minus the part of [start, end] covered by the children's intervals."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def aggregate(spans: list[list], ops=None) -> dict[str, dict[str, float]]:
    """Per-name totals over the spans whose operation id is in ops (all when None).

    Each name gets calls, busy_s (summed durations), self_s, failed, work,
    and hits: the calls with no spectral.eig_sym child, which for
    spectral.decomposition are exactly its cache hits.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(rec)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0, "work": 0, "hits": 0}
    )
    for idx, rec in enumerate(spans):
        if ops is not None and rec[OP] not in ops:
            continue
        kids = children.get(idx, [])
        row = out[rec[NAME]]
        row["calls"] += 1
        row["busy_s"] += rec[END] - rec[START]
        row["self_s"] += self_time(rec[START], rec[END], [(k[START], k[END]) for k in kids])
        row["failed"] += int(rec[FAILED])
        row["work"] += rec[WORK]
        row["hits"] += int(not any(k[NAME] == "spectral.eig_sym" for k in kids))
    return dict(out)
