"""Spans around the public functions of each cpmonoid layer.

``Tracer.install`` replaces every public function of a layer module, in
every module namespace that binds it (``invert.reduce``, ``cli.reduce``,
``ucp.mul`` and the defining module itself), with one wrapper per
function.  Primitives that work on one word, one node or one term are
left alone: they run once per leaf or per pair of words, so a span each
would cost more than the work, and their time counts to their caller.  A wrapper records a span only while an operation is active; a
function that recurses through its own module global gets one span per
outermost call.  Spans (name, start, end, parent, operation id, two sizes)
stay in memory until the pass ends; ``per_layer`` then turns them into
the per-layer metrics and ``write`` saves them.

Sizes (leaf counts, text lengths) are measured after a span closes, and
the time spent measuring them is taken off the span clock, so it shows in
the overhead ratio but in no span.
"""

from __future__ import annotations

import inspect
from time import perf_counter

LAYERS = ("words", "tmagma", "ucp", "branch", "invert", "dcp", "cli")

OP_SPAN = "bench.op"  # the harness span around each operation

RENDER = frozenset(("cli.render", "cli.render_sexpr", "cli.render_ascii", "cli.render_dot"))
EVAL = frozenset(("cli.eval_t", "cli.eval_u", "cli.eval_expr"))
MAIN = frozenset(("cli.main", "cli.build_parser", "cli.entry_point"))
PRIMITIVES = frozenset(
    ("words.is_left_multiple", "words.concat", "tmagma.act", "tmagma.sigma",
     "ucp.from_word", "branch.term_mul")
)
INVERT = frozenset(
    ("invert.is_unit", "invert.unit_inverse", "invert.left_inverse",
     "invert.right_inverse", "invert.unit_order")
)

# (metric name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(f"words.{f}.{m}", u, "lower")
     for f in ("family_left_cofinite", "family_left_dependent", "family_classify")
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("words.Word.created", "count", "lower"),
       ("tmagma.mul.calls", "count", "lower"),
       ("tmagma.mul.self_s", "s", "lower"),
       ("tmagma.mul.out_leaves", "count", "lower"),
       ("tmagma.power.calls", "count", "lower"),
       ("tmagma.power.self_s", "s", "lower"),
       ("tmagma.leaf_listing.self_s", "s", "lower"),
       ("ucp.reduce.calls", "count", "lower"),
       ("ucp.reduce.self_s", "s", "lower"),
       ("ucp.reduce.in_leaves", "count", "lower"),
       ("ucp.reduce.out_leaves", "count", "lower"),
       ("ucp.reduce.retract_ratio", "ratio", "lower"),
       ("ucp.mul_U.calls", "count", "lower"),
       ("ucp.mul_U.self_s", "s", "lower"),
       ("ucp.sigma_U.calls", "count", "lower"),
       ("ucp.sigma_U.self_s", "s", "lower"),
       ("ucp.power_U.self_s", "s", "lower"),
       ("ucp.UElem.eq.calls", "count", "lower"),
       ("ucp.UElem.eq.self_s", "s", "lower"),
       ("ucp.UElem.hash.calls", "count", "lower"),
       ("ucp.UElem.hash.self_s", "s", "lower"),
       ("branch.beta.calls", "count", "lower"),
       ("branch.beta.self_s", "s", "lower"),
       ("branch.beta.terms", "count", "lower")]
    + [(f"{name}.{m}", u, "lower")
       for name in sorted(INVERT)
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("invert.built_leaves", "count", "lower"),
       ("invert.result_leaves", "count", "lower"),
       ("invert.build_efficiency", "ratio", "higher")]
    + [(f"dcp.{f}.{m}", u, "lower")
       for f in ("embed_finite_monoid", "validate_finite_monoid", "endo_antihom")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("dcp.embed.verify_mul_calls", "count", "lower"),
       ("cli.parse.calls", "count", "lower"),
       ("cli.parse.self_s", "s", "lower"),
       ("cli.parse.chars", "count", "lower"),
       ("cli.eval.self_s", "s", "lower"),
       ("cli.render.self_s", "s", "lower"),
       ("cli.render.bytes", "bytes", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)

# Span fields.
NAME, START, END, PARENT, OP, SIZE_IN, SIZE_OUT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.excluded = 0.0
        self.words_created = 0
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return perf_counter() - self.excluded

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op, 0, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self.stack.pop()

    def measure(self, idx: int, sizer, args, result) -> None:
        t0 = perf_counter()
        op, self.op = self.op, None  # the sizer's own calls make no spans
        self.spans[idx][SIZE_IN], self.spans[idx][SIZE_OUT] = sizer(args, result)
        self.op = op
        self.excluded += perf_counter() - t0

    def wrap(self, name: str, fn, sizer=None):
        tracer = self
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if tracer.op is None or active:
                return fn(*args, **kwargs)
            active = True
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                active = False
            if sizer is not None:
                tracer.measure(idx, sizer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer of the package."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        degree = modules["tmagma"].degree
        sizers = {
            "tmagma.mul": lambda args, out: (0, degree(out)),
            "ucp.reduce": lambda args, out: (degree(args[0]), degree(out.tree)),
            "branch.beta": lambda args, out: (0, len(out)),
            "cli.parse": lambda args, out: (len(args[0]), 0),
        }
        for name in RENDER:
            sizers[name] = lambda args, out: (0, len(out))
        wrappers = {}
        for module in modules.values():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"{package.__name__}.{home}" or home not in LAYERS:
                    continue
                name = f"{home}.{obj.__name__}"
                if name not in PRIMITIVES and obj not in wrappers:
                    wrappers[obj] = self.wrap(name, obj, sizers.get(name))
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

        uelem = modules["ucp"].UElem
        self._patch(uelem, "__eq__", self.wrap("ucp.UElem.eq", uelem.__eq__))
        self._patch(uelem, "__hash__", self.wrap("ucp.UElem.hash", uelem.__hash__))
        word = modules["words"].Word
        init = word.__init__

        def counting_init(obj, *args, **kwargs):
            if self.op is not None:
                self.words_created += 1
            init(obj, *args, **kwargs)

        self._patch(word, "__init__", counting_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def take(self) -> tuple[list[list], int]:
        """Hand over the recorded spans and Word count, and start afresh."""
        spans, created = self.spans, self.words_created
        self.spans, self.words_created = [], 0
        return spans, created


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_spans(spans: list[list], selfs: list[float], wall: float) -> str | None:
    """Why the spans are inconsistent, or None.

    Children must nest inside their parents, and the self times must add
    up to ``wall``, the traced time the harness measured around each
    operation; the harness's own bookkeeping (about a microsecond per
    operation) is the only gap allowed.
    """
    eps = 1e-6
    for s in spans:
        p = s[PARENT]
        if p >= 0 and (s[START] < spans[p][START] - eps or s[END] > spans[p][END] + eps):
            return f"span {s[NAME]} lies outside its parent {spans[p][NAME]}"
    if any(x < -eps for x in selfs):
        return "negative self time"
    total = sum(selfs)
    if abs(total - wall) > 0.01 * wall:
        return f"self times sum to {total:.6f} s, traced wall time is {wall:.6f} s"
    return None


def per_layer(spans: list[list], selfs: list[float], words_created: int) -> dict[str, float]:
    """Per-layer counts and times of one traced pass; ``ratios`` adds the rest."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    size_in: dict[str, int] = {}
    size_out: dict[str, int] = {}
    built = result = verify_mul = 0
    under_embed = [False] * len(spans)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        size_in[name] = size_in.get(name, 0) + s[SIZE_IN]
        size_out[name] = size_out.get(name, 0) + s[SIZE_OUT]
        p = s[PARENT]
        parent = spans[p][NAME] if p >= 0 else None
        if name == "ucp.reduce" and parent in INVERT:
            built += s[SIZE_IN]
            result += s[SIZE_OUT]
        # A parent is stored before its children.
        under_embed[i] = p >= 0 and (under_embed[p] or parent == "dcp.embed_finite_monoid")
        if name == "ucp.mul_U" and under_embed[i]:
            verify_mul += 1

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    m: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls.get(base, 0)
        elif kind == "self_s" and base not in ("cli.eval", "cli.render", "cli.main"):
            m[name] = self_s.get(base, 0.0)
    m["words.Word.created"] = words_created
    m["tmagma.mul.out_leaves"] = size_out.get("tmagma.mul", 0)
    m["ucp.reduce.in_leaves"] = size_in.get("ucp.reduce", 0)
    m["ucp.reduce.out_leaves"] = size_out.get("ucp.reduce", 0)
    m["branch.beta.terms"] = size_out.get("branch.beta", 0)
    m["invert.built_leaves"] = built
    m["invert.result_leaves"] = result
    m["dcp.embed.verify_mul_calls"] = verify_mul
    m["cli.parse.chars"] = size_in.get("cli.parse", 0)
    m["cli.eval.self_s"] = total(self_s, EVAL)
    m["cli.render.self_s"] = total(self_s, RENDER)
    m["cli.render.bytes"] = sum(
        s[SIZE_OUT] for s in spans
        if s[NAME] in RENDER and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in RENDER)
    )
    m["cli.main.self_s"] = total(self_s, MAIN)
    return m


def ratios(m: dict[str, float], traced_s: float, untraced_s: float) -> None:
    """Add the ratio metrics, computed from the (averaged) counts they divide."""
    built, inp = m["invert.built_leaves"], m["ucp.reduce.in_leaves"]
    m["ucp.reduce.retract_ratio"] = 1 - m["ucp.reduce.out_leaves"] / inp if inp else 0.0
    m["invert.build_efficiency"] = m["invert.result_leaves"] / built if built else 0.0
    m["trace.overhead_ratio"] = traced_s / untraced_s


def write(spans: list[list], fh) -> None:
    """One tab-separated line per span: op, id, parent, name, start, end."""
    for i, s in enumerate(spans):
        fh.write(f"{s[OP]}\t{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\n")
