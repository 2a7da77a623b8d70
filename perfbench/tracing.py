"""In-memory spans around the public functions of the measured layers.

:func:`install` replaces each function or method named in
:data:`TARGETS` by a wrapper that records a span: name, start, end,
parent span and the op id of the request it belongs to.  The wrappers
are installed from outside the program, in the process that runs it,
after its modules are imported; a function bound by name into another
module (``from m import f``) is replaced there as well.  Spans stay in
memory and are written out by :func:`dump`.

Op ids are set per thread with :func:`set_op`; the traced server
launcher sets it from the ``X-Bench-Op`` request header.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: (span name, module, attribute path, layer module) for every wrapped
#: callable.  The span name is what the layer report shows.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("http.do_POST", "repro.server.http", "_Handler.do_POST", "server.http"),
    ("service.answers", "repro.server.service", "QueryService.answers", "server.service"),
    ("service.answers_batch", "repro.server.service", "QueryService.answers_batch", "server.service"),
    ("service.apply_updates", "repro.server.service", "QueryService.apply_updates", "server.service"),
    ("wire.parse_formula", "repro.server.wire", "parse_formula", "server.wire"),
    ("wire.to_wire", "repro.server.service", "AnswerPage.to_wire", "server.wire"),
    ("wire.structure_digest", "repro.server.wire", "structure_digest", "server.wire"),
    ("fallback.answers", "repro.resilience.fallback", "FallbackChain.answers", "resilience.fallback"),
    ("engine.answers", "repro.engine.engine", "Engine.answers", "engine.engine"),
    ("engine.answers_batch", "repro.engine.engine", "Engine.answers_batch", "engine.engine"),
    ("engine.profile", "repro.engine.engine", "Engine.profile", "engine.engine"),
    ("engine.evaluate", "repro.engine.engine", "Engine.evaluate", "engine.engine"),
    ("engine.enumerate", "repro.engine.engine", "Engine.enumerate", "incremental.enumeration"),
    ("engine.maintained_changed", "repro.engine.engine", "Engine.maintained_changed", "incremental.answers"),
    ("planner.normalize", "repro.engine.normalize", "normalize", "engine.planner"),
    ("planner.plan", "repro.engine.planner", "Planner.plan", "engine.planner"),
    ("executor.tuple", "repro.engine.executor", "Executor.run", "engine.executor"),
    ("executor.columnar", "repro.engine.columnar.executor", "ColumnarExecutor.run", "engine.columnar"),
    ("columnar.codec_for", "repro.engine.columnar.codec", "codec_for", "engine.columnar"),
    ("columnar.apply_deltas", "repro.engine.columnar.codec", "DomainCodec.apply_deltas", "engine.columnar"),
    ("incremental.patch", "repro.incremental.answers", "AnswerIndex.patch", "incremental.answers"),
    ("eval.evaluate", "repro.eval.evaluator", "evaluate", "eval.evaluator"),
    ("structure.check_update", "repro.structures.structure", "Structure.check_update", "structures.structure"),
    ("structure.insert", "repro.structures.structure", "Structure.insert", "structures.structure"),
    ("structure.delete", "repro.structures.structure", "Structure.delete", "structures.structure"),
    ("gaifman.ball", "repro.structures.gaifman", "ball", "structures.gaifman"),
    ("gaifman.neighborhood", "repro.structures.gaifman", "neighborhood", "structures.gaifman"),
    ("locality.census", "repro.locality.neighborhoods", "neighborhood_census", "locality.neighborhoods"),
)

#: Layer module of each span name.
LAYER_OF = {name: layer for name, _, _, layer in TARGETS}

#: Span fields: name, start ns, end ns, parent record, op id, result tag.
_spans: list[list] = []
_local = threading.local()


def set_op(op_id: str | None) -> None:
    """Tag the spans this thread records from now on with ``op_id``."""
    _local.op = op_id


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _wrap(function, name: str):
    clock = time.perf_counter_ns

    @functools.wraps(function)
    def traced(*args, **kwargs):
        stack = _stack()
        record = [name, clock(), 0, stack[-1] if stack else None, getattr(_local, "op", None), None]
        _spans.append(record)
        stack.append(record)
        try:
            result = function(*args, **kwargs)
            if result is None:
                record[5] = "none"
            return result
        finally:
            record[2] = clock()
            stack.pop()

    return traced


def install() -> int:
    """Wrap every target; return how many bindings were replaced."""
    replaced = 0
    for name, module_name, path, _ in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attribute)
        wrapper = _wrap(original, name)
        setattr(owner, attribute, wrapper)
        replaced += 1
        if owner_name:
            continue
        # Module-level functions are also bound by name elsewhere.
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
                    replaced += 1
    return replaced


def spans() -> list[dict]:
    """The recorded spans as dicts with integer parent indexes."""
    index = {id(record): i for i, record in enumerate(_spans)}
    return [
        {
            "name": name,
            "start": start,
            "end": end,
            "parent": index.get(id(parent)) if parent is not None else None,
            "op": op,
            "result": result,
        }
        for name, start, end, parent, op, result in _spans
    ]


def dump(path: str) -> None:
    with open(path, "w") as handle:
        json.dump(spans(), handle)
