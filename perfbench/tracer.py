"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every permfact module from the
outside.  Each call becomes one span: name, start, end, parent span and the
request (CLI command or session query) it belongs to.  Spans live in flat
typed arrays while the run goes on and are written out once at the end.

Names are bound at import sites (`from .charkit import character` makes
`countcore.character` a second reference), so a wrapper is installed on
every module attribute that refers to a wrapped function, not only on the
defining module.  Otherwise calls made through those names would be lost.
"""

import json
import sys
import time
from array import array

# Methods are not module attributes; these are the ones the metrics need.
TRACED_METHODS = (("dimred", "Database", "lookup"), ("dimred", "Database", "save"))

SETUP_REQUEST = 0


class SpanRecorder:
    """In-memory spans in parallel arrays; span i is one wrapped call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_request = SETUP_REQUEST
        self._stack = [-1]

    def __len__(self):
        return len(self.start)

    def intern(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name, func):
        """Return a function that records a span around each call of func."""
        nid = self.intern(name)
        clock = self.clock
        stack = self._stack
        name_append = self.name_id.append
        parent_append = self.parent.append
        request_append = self.request.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        recorder = self

        def traced(*args, **kwargs):
            idx = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            request_append(recorder.current_request)
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.traced_original = func  # lets counters reach cache_info()
        return traced

    def add(self, name, start, end, parent=-1, request=SETUP_REQUEST):
        """Append a finished span directly."""
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.request.append(request)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def write(self, path):
        """Write all spans: one JSON header line, then the raw field arrays.

        The header names the fields in file order with their array type
        codes; each array holds len(self) native-endian items.
        """
        fields = ["name_id", "parent", "request", "start", "end"]
        header = {
            "names": self.names,
            "count": len(self),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def self_times(recorder):
    """Self time of every span: duration minus the union of its children.

    Spans are appended when they start, so the children of a span appear
    in start order and their union can be merged in one pass.
    """
    count = len(recorder)
    starts, ends, parents = recorder.start, recorder.end, recorder.parent
    covered = [0.0] * count
    reach = [float("-inf")] * count  # end of the merged child run so far
    for i in range(count):
        p = parents[i]
        if p < 0:
            continue
        s, e = starts[i], ends[i]
        r = reach[p]
        if e <= r:
            continue
        covered[p] += e - max(s, r)
        reach[p] = e
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def layer_of(name):
    """Layer (module) of a span name such as 'countcore.w_number'."""
    return name.split(".", 1)[0]


def summarize(recorder):
    """Per-layer self seconds, per-name call counts and per-name total seconds."""
    own = self_times(recorder)
    self_s, calls, total_s = {}, {}, {}
    names = recorder.names
    for i, nid in enumerate(recorder.name_id):
        name = names[nid]
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + recorder.end[i] - recorder.start[i]
    return {"self_s": self_s, "calls": calls, "total_s": total_s}


def _package_modules(package):
    prefix = package + "."
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    }


def install(recorder, package="permfact", methods=TRACED_METHODS):
    """Wrap every public function of the package's modules at every import site.

    `methods` lists (module, class, method) triples to wrap as well.
    Returns a function that puts the original objects back.
    """
    modules = _package_modules(package)
    wrappers = {}
    for modname, mod in modules.items():
        layer = modname.rsplit(".", 1)[-1]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) != modname:
                continue  # re-exported from elsewhere, e.g. math.factorial
            wrappers[id(value)] = (value, recorder.wrap(f"{layer}.{attr}", value))
    undo = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    for layer, cls_name, meth in methods:
        cls = getattr(modules[f"{package}.{layer}"], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, recorder.wrap(f"{layer}.{cls_name}.{meth}", original))
        undo.append((cls, meth, original))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
