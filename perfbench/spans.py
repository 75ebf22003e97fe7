"""In-memory tracing of calls into the modrabi layers, from outside the package.

Wrappers are installed on module attributes, where the calling module looks a
function up (``modrabi.scenarios.rotated_hamiltonian``, not only
``modrabi.hamiltonians.rotated_hamiltonian``), so the package itself is not
edited.  Two kinds of wrapper exist:

* a *span* records (name, start, end, parent, op id) for each call; it is
  used for coarse calls (CLI entry, scenario runner, builders, propagators,
  ``solve_ivp``, file writers, protocol functions);
* a *tally* only counts calls and sums their time, for hot leaf calls that
  happen thousands of times per operation (``H.evaluate``, Bessel
  evaluations, ``hilbert`` constructors, ``fidelity``).  Within one layer only
  the outermost call is counted, so a layer calling itself is not counted
  twice.  A tally's time counts as covered time of the span it ran in.

A span's self time is its duration minus the part of that interval covered
by its child spans and by the tallies that ran directly inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "modrabi"
MODULES = ("cli", "scenarios", "applications", "dynamics", "hamiltonians",
           "modulation", "hilbert", "bessel")
TALLY_LAYERS = ("hilbert", "bessel", "modulation")
TALLY_FUNCTIONS = ("dynamics.fidelity",)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None
    tallies: dict = dataclasses.field(default_factory=dict)  # name -> seconds


class Tracer:
    """Records spans and tallies of one process, in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.tallies: dict[str, list] = {}    # name -> [calls, seconds]
        self.layer_depth: dict[str, int] = {}
        self.tally_depth = 0
        self.spans_inside_tallies = 0
        self.op: int | None = None

    def open(self, name: str) -> int:
        if self.tally_depth:
            self.spans_inside_tallies += 1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.op))
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, calls: int = 0, seconds: float = 0.0):
        entry = self.tallies.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds

    def _tally_done(self, name: str, seconds: float):
        self.count(name, 1, seconds)
        if self.tally_depth == 0 and self.stack:
            under = self.spans[self.stack[-1]].tallies
            under[name] = under.get(name, 0.0) + seconds

    def span_wrapper(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return post(result) if post is not None else result
        return wrapper

    def tally_wrapper(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.layer_depth.get(layer):
                return fn(*args, **kwargs)
            self.layer_depth[layer] = 1
            self.tally_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.layer_depth[layer] = 0
                self.tally_depth -= 1
                self._tally_done(name, dt)
        return wrapper

    def dump(self) -> dict:
        return {"spans": [dataclasses.asdict(s) for s in self.spans],
                "tallies": {k: list(v) for k, v in self.tallies.items()},
                "spans_inside_tallies": self.spans_inside_tallies}


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of child-span intervals and direct tallies."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        ivs = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                     for c in children.get(i, ()))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        covered += sum(s.tallies.values())
        out.append((s.end - s.start) - covered)
    return out


class Hooks:
    """Installs wrappers on the package's module attributes and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple] = []
        self.installed: set[str] = set()
        self.notes: list[str] = []

    def _set(self, module, attr: str, value):
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError as err:
                self.notes.append(f"module {PACKAGE}.{short} not importable ({err})")
        tdh = getattr(mods.get("hamiltonians"), "TimeDependentHamiltonian", None)
        if tdh is None:
            self.notes.append("hamiltonians.TimeDependentHamiltonian not found; "
                              "H.evaluate is not traced")

        def wrap_evaluate(result):
            if tdh is not None and isinstance(result, tdh):
                return dataclasses.replace(result, evaluate=self.tracer.tally_wrapper(
                    "hamiltonians.evaluate", "hamiltonians.evaluate", result.evaluate))
            return result

        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith(PACKAGE + "."):
                    continue
                layer = owner.split(".")[1]
                name = f"{layer}.{obj.__name__}"
                if layer in TALLY_LAYERS or name in TALLY_FUNCTIONS:
                    wrapped = self.tracer.tally_wrapper(name, layer, obj)
                else:
                    post = wrap_evaluate if layer == "hamiltonians" else None
                    wrapped = self.tracer.span_wrapper(name, obj, post)
                self._set(mod, attr, wrapped)
                self.installed.add(name)
                if tdh is not None and layer == "hamiltonians":
                    self.installed.add("hamiltonians.evaluate")

        dyn = mods.get("dynamics")
        if dyn is not None and hasattr(dyn, "solve_ivp"):
            tracer = self.tracer

            def count_nfev(result):
                tracer.count("dynamics.rk45_nfev", int(getattr(result, "nfev", 0)))
                return result
            self._set(dyn, "solve_ivp", self.tracer.span_wrapper(
                "dynamics.rk45", dyn.solve_ivp, count_nfev))
            self.installed.add("dynamics.rk45")
        else:
            self.notes.append("dynamics.solve_ivp not found; RK45 is not traced")

    def uninstall(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def note(text: str):
    print(f"perfbench: {text}", file=sys.stderr)
