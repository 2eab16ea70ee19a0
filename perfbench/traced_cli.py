"""Run the schubvanish CLI in-process with every batch-path layer traced.

    python3 perfbench/traced_cli.py REPORT.json -- PROBLEMS --stable ...

The arguments after ``--`` go to ``schubvanish.cli.main`` unchanged, and its
output goes to this process's stdout, so the result can be compared byte
for byte with an untraced ``python -m schubvanish`` run.  Wrappers are set on
module and class attributes from this file; nothing under ``src/`` changes.
Each wrapped name is looked up when tracing starts, and a name the package
no longer has is reported as absent.

A span opens and closes around each wrapped call.  Stacks are kept per
thread, because the CLI may run problems on a thread pool.  When a span
closes, its self time (duration minus the time its child spans cover) is
added to the root span it belongs to: one root per ``cli.run_problem``,
``cli.parse`` or ``cli.emit`` call.  Everything stays in memory and is
written once, to REPORT.json, when the CLI returns.

A span costs a few microseconds, which lands in the spans around it.  Where
a layer is called thousands of times per problem from one place, the span
is left out there (see UNTIMED_UNDER) and its time stays in the caller's.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

# (module under schubvanish, attribute path, span name)
SPANS = (
    ("cli", "run_problem", "cli.run_problem"),
    ("cli", "parse_problem_line", "cli.parse"),
    ("cli", "emit_records", "cli.emit"),
    ("permcore", "rothe_diagram", "permcore.diagram"),
    ("permcore", "concat_diagrams", "permcore.diagram"),
    ("permcore", "common_embed", "permcore.embed"),
    ("schubitope", "lp_feasible", "schubitope.decide"),
    ("schubitope", "SchubitopeInequalities.__init__", "schubitope.theta_table"),
    ("schubitope", "schubitope_membership", "schubitope.membership"),
    ("exactlp", "solve_feasibility", "exactlp.solve"),
    ("vanishing", "symmetric_test", "vanishing.test"),
    ("vanishing", "asymmetric_test", "vanishing.test"),
    ("vanishing", "vanishing_certificate", "vanishing.certificate"),
    ("vanishing", "flexible_test_sampled", "vanishing.flexible"),
    ("vanishing", "flexible_test", "vanishing.flexible"),
    ("vanishing", "sample_schubitope_point", "vanishing.sample"),
    ("rivals", "bruhat_vanishing_test", "rivals.bruhat"),
    ("rivals", "dc_test", "rivals.dc"),
    ("rivals", "dc_class", "rivals.dc"),
    ("rivals", "root_game_test", "rivals.root_game"),
    ("schubpoly", "intersection_number", "schubpoly.oracle"),
    ("schubpoly", "asymmetric_coefficient", "schubpoly.oracle"),
)

# (module, attribute path, counter): counted per call, no span
COUNTED_CALLS = (
    ("rivals", "Triple.__post_init__", "rivals.triples_built"),
    ("schubpoly", "divided_difference", "schubpoly.divided_differences"),
)

# (module, attribute path, counter): generator functions, counted per item
COUNTED_ITEMS = (("rivals", "upper_order_filters", "rivals.filters_scanned"),)

ROOTS = ("cli.run_problem", "cli.parse", "cli.emit")

# span -> parent spans under which it is not timed.  Descent cycling builds
# about 4000 Triples per problem, each embedding its words once; timing each
# of those embeds made tracing add 25 % to the wall time of cross-check.
UNTIMED_UNDER = {"permcore.embed": ("rivals.dc",)}


def _observe_solve(counts, args, kwargs, result):
    counts["exactlp.solve_calls"] += 1
    counts["exactlp.lp_vars"] += args[0] if args else kwargs.get("nvars", 0)
    rows = args[2] if len(args) > 2 else kwargs.get("rows", ())
    counts["exactlp.lp_rows"] += len(rows)


def _observe_theta_table(counts, args, kwargs, result):
    counts["schubitope.theta_table_entries"] += len(getattr(args[0], "table", ()))


def _observe_certificate(counts, args, kwargs, result):
    counts[f"vanishing.certificates.{type(result).__name__}"] += 1


def _observe_flexible(counts, args, kwargs, result):
    counts["vanishing.flexible_contents_tried"] += 1
    if getattr(result.outcome, "value", None) == "VANISHES":
        counts["vanishing.flexible_vanished"] += 1


def _observe_dc_class(counts, args, kwargs, result):
    counts["rivals.dc_classes"] += 1
    counts["rivals.dc_class_members"] += len(result)


OBSERVERS = {
    ("exactlp", "solve_feasibility"): _observe_solve,
    ("schubitope", "SchubitopeInequalities.__init__"): _observe_theta_table,
    ("vanishing", "vanishing_certificate"): _observe_certificate,
    ("vanishing", "flexible_test"): _observe_flexible,
    ("rivals", "dc_class"): _observe_dc_class,
}


class _Frame:
    __slots__ = ("name", "root", "start", "child", "self_ms", "counts")

    def __init__(self, name: str, root: "_Frame | None"):
        self.name = name
        self.root = root if root is not None else self
        self.child = 0.0
        if root is None:
            self.self_ms: dict[str, float] = collections.defaultdict(float)
            self.counts: collections.Counter = collections.Counter()


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.roots: list[dict] = []
        self.counts: collections.Counter = collections.Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _counts(self, state: _ThreadState) -> collections.Counter:
        return state.stack[-1].root.counts if state.stack else state.counts

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe):
        tracer = self
        untimed_under = UNTIMED_UNDER.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack and stack[-1].name in untimed_under:
                return fn(*args, **kwargs)
            frame = _Frame(name, stack[-1].root if stack else None)
            stack.append(frame)
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame.start
                stack.pop()
                frame.root.self_ms[name] += (elapsed - frame.child) * 1e3
                if stack:
                    stack[-1].child += elapsed
                else:
                    state.roots.append(
                        {
                            "name": name,
                            "ms": elapsed * 1e3,
                            "self_ms": dict(frame.self_ms),
                            "counts": dict(frame.counts),
                        }
                    )
            if observe is not None:
                counts = tracer._counts(state)
                try:
                    observe(counts, args, kwargs, result)
                except Exception:  # a reshaped result must not break the CLI
                    counts[f"trace.unobserved.{name}"] += 1
            return result

        return wrapper

    def _call_counter(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._counts(tracer._state())[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _item_counter(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer._counts(tracer._state())[counter] += 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def _resolve(self, module: str, path: str):
        """(owner, attribute, value) or None when the package lacks the name."""
        try:
            owner = importlib.import_module(f"schubvanish.{module}")
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        # a class attribute must be the class's own, not inherited
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if found is None:
            return None
        return owner, attr, found

    def install(self) -> None:
        plans = [(m, p, lambda fn, n=n, m=m, p=p: self._span(n, fn, OBSERVERS.get((m, p))))
                 for m, p, n in SPANS]
        plans += [(m, p, lambda fn, c=c: self._call_counter(c, fn)) for m, p, c in COUNTED_CALLS]
        plans += [(m, p, lambda fn, c=c: self._item_counter(c, fn)) for m, p, c in COUNTED_ITEMS]
        for module, path, make in plans:
            found = self._resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, make(fn))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def report(self) -> dict:
        with self._lock:
            states = list(self._states)
        counts: collections.Counter = collections.Counter()
        roots = []
        for state in states:
            counts.update(state.counts)
            roots.extend(state.roots)
        return {"roots": roots, "counts": dict(counts), "absent": self.absent}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py REPORT.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    report_path, cli_args = argv[0], argv[2:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("schubvanish.cli")
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
