"""Span recording around the program's public functions (traced runs).

The recorder never edits the program: it replaces a function on its
class or module with a wrapper for the length of a traced segment and
puts the original back afterwards. Two kinds of wrapper:

* a **span** wrapper opens one span per call. A span has a run-wide id,
  its parent span, the root span of its tree, a name, a start and an
  end (``perf_counter_ns``) and optional attributes.
* a **leaf** wrapper is for functions called many times per epoch
  (metrics instruments, flight records, page-store operations). A span
  per call would cost more than most of these calls, so a leaf call
  adds its time and a call count to the innermost open span instead.
  Time of a leaf called inside another leaf stays with the outer one,
  so no nanosecond is counted twice.

A span's self time is its duration minus its child spans' durations and
the leaf time recorded directly inside it. Each thread keeps its own
span stack. Spans stay in memory until :meth:`Recorder.write_jsonl`.
"""

import collections
import functools
import itertools
import json
import threading
import time

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end",
                 "attrs", "leaf_ns", "leaf_calls", "measured")

    def duration_ns(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "id": self.id, "parent": self.parent, "root": self.root,
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "measured": self.measured, "attrs": self.attrs,
            "leaf_ns": self.leaf_ns, "leaf_calls": self.leaf_calls,
        }


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        #: Root spans opened while this is True count as measured work;
        #: their trees are what the per-epoch figures are made of.
        self.measuring = False
        #: Attributes for the next measured root span (e.g. its round).
        self.next_root_attrs = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.in_leaf = False
        return local

    def open(self, name):
        stack = self._state().stack
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.attrs = None
        span.leaf_ns = None
        span.leaf_calls = None
        if stack:
            parent = stack[-1]
            span.parent = parent.id
            span.root = parent.root
            span.measured = parent.measured
        else:
            span.parent = None
            span.root = span.id
            span.measured = self.measuring
            if self.measuring and self.next_root_attrs is not None:
                span.attrs = self.next_root_attrs
                self.next_root_attrs = None
        stack.append(span)
        span.start = _now()
        return span

    def close(self, span):
        span.end = _now()
        stack = self._state().stack
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def leaf_call(self, layer, key, fn, args, kwargs):
        state = self._state()
        top = state.stack[-1] if state.stack else None
        if top is not None:
            calls = top.leaf_calls
            if calls is None:
                calls = top.leaf_calls = {}
            calls[key] = calls.get(key, 0) + 1
        if state.in_leaf:
            return fn(*args, **kwargs)
        state.in_leaf = True
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _now() - start
            state.in_leaf = False
            if top is not None:
                spent = top.leaf_ns
                if spent is None:
                    spent = top.leaf_ns = {}
                spent[layer] = spent.get(layer, 0) + elapsed

    # -- patching ----------------------------------------------------------

    def replace(self, owner, attr, wrapper):
        """Swap ``owner.attr`` for ``wrapper(original)`` until unpatched.

        ``owner`` is a module or a class; for a class the wrapper goes on
        the class in its MRO that defines ``attr``.
        """
        if isinstance(owner, type):
            owner = defining_class(owner, attr)
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper(original))
        self._patches.append((owner, attr, original))

    def span(self, owner, attr, name, before=None, after=None):
        """Open a span around every call of ``owner.attr``.

        ``name`` is a string or a function of the call's arguments.
        ``before(args)`` runs ahead of the call and its value is passed
        to ``after(span, args, result, token)``, which may set span
        attributes from the call's result.
        """
        recorder = self

        def wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                token = before(args) if before is not None else None
                span = recorder.open(name if isinstance(name, str)
                                     else name(args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder.close(span)
                if after is not None:
                    after(span, args, result, token)
                return result
            return traced

        self.replace(owner, attr, wrapper)

    def leaf(self, cls, attr, layer):
        """Charge every call of ``cls.attr`` to ``layer`` as a leaf."""
        key = "%s.%s" % (defining_class(cls, attr).__name__, attr)
        recorder = self

        def wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return recorder.leaf_call(layer, key, fn, args, kwargs)
            return traced

        self.replace(cls, attr, wrapper)

    def leaf_context(self, cls, attr, layer):
        """Leaf-time a context-manager factory: the call, enter and exit.

        The block inside the ``with`` is not the factory's work, so only
        the three calls are charged to ``layer``.
        """
        key = "%s.%s" % (defining_class(cls, attr).__name__, attr)
        recorder = self

        def wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                manager = recorder.leaf_call(layer, key, fn, args, kwargs)
                return _TimedContext(recorder, layer, key, manager)
            return traced

        self.replace(cls, attr, wrapper)

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")


class _TimedContext:
    __slots__ = ("_recorder", "_layer", "_key", "_manager")

    def __init__(self, recorder, layer, key, manager):
        self._recorder = recorder
        self._layer = layer
        self._key = key
        self._manager = manager

    def __enter__(self):
        return self._recorder.leaf_call(
            self._layer, self._key, self._manager.__enter__, (), {})

    def __exit__(self, exc_type, exc, tb):
        return self._recorder.leaf_call(
            self._layer, self._key, self._manager.__exit__,
            (exc_type, exc, tb), {})


def defining_class(cls, attr):
    """The class in ``cls``'s MRO whose own namespace defines ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError("%s has no attribute %r" % (cls.__name__, attr))


class SpanTable:
    """Self times and per-name groupings of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        child_ns = collections.defaultdict(int)
        for span in spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration_ns()
        self.self_ns = {}
        for span in spans:
            leaf = sum(span.leaf_ns.values()) if span.leaf_ns else 0
            self.self_ns[span.id] = (span.duration_ns() - child_ns[span.id]
                                     - leaf)
        self.by_name = collections.defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def named(self, name, measured=True):
        return [span for span in self.by_name.get(name, ())
                if span.measured == measured]

    def self_ms(self, names, measured=True):
        """Total self time (ms) of the spans with one of ``names``."""
        return sum(self.self_ns[span.id]
                   for name in names for span in self.named(name, measured)
                   ) / 1e6

    def leaf_ms(self, layer, measured=True):
        return sum(span.leaf_ns.get(layer, 0) for span in self.spans
                   if span.measured == measured and span.leaf_ns) / 1e6

    def leaf_calls(self, keys, measured=True):
        return sum(span.leaf_calls.get(key, 0) for span in self.spans
                   if span.measured == measured and span.leaf_calls
                   for key in keys)

    def self_sum_ms(self, measured=True):
        """Self time plus leaf time over every measured span (ms)."""
        total = 0
        for span in self.spans:
            if span.measured != measured:
                continue
            total += self.self_ns[span.id]
            if span.leaf_ns:
                total += sum(span.leaf_ns.values())
        return total / 1e6
