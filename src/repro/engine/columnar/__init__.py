"""The columnar executor tier: integer-coded relations + generated kernels.

Three layers (see DESIGN S20):

* :mod:`~repro.engine.columnar.codec` — one element ↔ dense-int-id
  bijection per (structure, quantification domain), with relations
  materialized as parallel ``array('q')`` columns and, for packable
  arities, as cached sets of mixed-radix composite keys;
* :mod:`~repro.engine.columnar.kernels` — per-shape generated sources
  (fastconj-style specialization) for scan/join/semijoin/antijoin/
  project/extend/complement/union over those keys;
* :mod:`~repro.engine.columnar.compile` + ``executor`` — plan trees
  compiled bottom-up into pipelines of kernel closures (σπ fused into
  scans, π fused into join probe loops), cached on the structure for the
  lifetime of their plan, and interpreted by :class:`ColumnarExecutor`
  with per-step actuals, row budgets and semijoin filtering.

This is the engine's only executor: :class:`repro.engine.engine.Engine`
runs every plan here, including :meth:`~repro.engine.engine.Engine.profile`
(EXPLAIN ANALYZE). :class:`repro.engine.executor.Executor` is kept as a
reference interpreter for tests and benchmarks.
"""

from repro.engine.columnar.codec import (
    PACK_KEY_LIMIT,
    PACK_MAX_ARITY,
    DomainCodec,
    codec_for,
)
from repro.engine.columnar.compile import CompiledPlan, PipelineNode, compile_plan
from repro.engine.columnar.executor import ColumnarExecutor

__all__ = [
    "ColumnarExecutor",
    "CompiledPlan",
    "DomainCodec",
    "PipelineNode",
    "PACK_KEY_LIMIT",
    "PACK_MAX_ARITY",
    "codec_for",
    "compile_plan",
]
