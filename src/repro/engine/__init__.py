"""The query engine (S3+): planned, cached, locality-aware FO evaluation.

``repro.engine`` is the production path for answering FO queries —
normalize → statistics → cost-based plan → columnar execution — with an
LRU plan cache, a per-structure answer cache, and a bounded-degree fast
path that realizes Theorem 3.11 inside the engine. The naive evaluator
(:mod:`repro.eval.evaluator`) remains as the reference oracle; the
Hypothesis equivalence suite keeps the two in lockstep.

>>> from repro.engine import Engine
>>> from repro.logic.parser import parse
>>> from repro.structures.builders import directed_cycle
>>> Engine().evaluate(directed_cycle(5), parse("forall x exists y E(x, y)"))
True
"""

from repro.engine.cache import LRUCache
from repro.engine.columnar import ColumnarExecutor
from repro.engine.engine import Engine, EngineStats, Explanation, ProfiledExplanation
from repro.engine.executor import ExecutionStats, Executor, NodeActuals
from repro.engine.normalize import miniscope, normalize
from repro.engine.plan import Plan, explain_plan
from repro.engine.planner import Planner
from repro.engine.stats import StructureStats, collect_stats

__all__ = [
    "ColumnarExecutor",
    "Engine",
    "EngineStats",
    "Explanation",
    "Executor",
    "ExecutionStats",
    "LRUCache",
    "NodeActuals",
    "Plan",
    "Planner",
    "ProfiledExplanation",
    "StructureStats",
    "collect_stats",
    "default_engine",
    "engine_answers",
    "engine_evaluate",
    "explain_plan",
    "miniscope",
    "normalize",
]

_default: Engine | None = None


def default_engine() -> Engine:
    """The process-wide shared engine (lazily constructed).

    Library call sites (e.g. :mod:`repro.queries.zoo`) evaluate through
    this instance so plan and answer caches are shared across the whole
    process.
    """
    global _default
    if _default is None:
        _default = Engine()
    return _default


def engine_answers(structure, formula, free_order=None):
    """``default_engine().answers(...)`` — drop-in for the naive ``answers``."""
    return default_engine().answers(structure, formula, free_order)


def engine_evaluate(structure, formula, assignment=None):
    """``default_engine().evaluate(...)`` — drop-in for the naive ``evaluate``."""
    return default_engine().evaluate(structure, formula, assignment)
