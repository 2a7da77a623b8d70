"""DomainCodec epoch maintenance: stale columns are never served.

The codec caches columnar materializations (int columns, packed key
sets) of every base relation on the structure itself.  Before updates
existed the cache could never go stale; with ``insert``/``delete`` a
codec built at epoch k holds wrong columns at epoch k+1.  Since ISSUE
10 the memo *survives* updates and ``codec_for`` patches the codec
forward from the structure's delta log (O(delta) instead of a full
re-encode); a rebuild happens only when the log no longer covers the
gap, the codec belongs to another structure, or the domain differs.
This file is the regression suite for both paths, plus the pipeline
leaf invalidation that rides on them.
"""

from __future__ import annotations

from repro.engine.columnar.codec import codec_for, codec_stats
from repro.engine.engine import Engine
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.structures.builders import directed_cycle, random_graph
from repro.structures.structure import DELTA_LOG_LIMIT


def test_codec_is_patched_in_place_after_an_update():
    structure = directed_cycle(5)
    domain = structure.universe
    before = codec_for(structure, domain)
    assert codec_for(structure, domain) is before  # cached while current
    stale_rows = before.packed_relation("E")  # materialize the epoch-0 columns
    patched_before = codec_stats["patched"]
    structure.insert("E", (0, 2))
    after = codec_for(structure, domain)
    assert after is before  # same codec object, patched forward
    assert after.epoch == structure.epoch
    assert after.packed_relation("E") != stale_rows
    assert after.packed_relation("E") == stale_rows | {before.encode_row((0, 2))}
    assert codec_stats["patched"] == patched_before + 1


def test_codec_columns_are_patched_in_place():
    structure = directed_cycle(6)
    codec = codec_for(structure, structure.universe)
    columns = codec.columns("E")  # the tuple closures capture
    assert len(columns[0]) == 6
    structure.insert("E", (0, 3))
    assert codec_for(structure, structure.universe) is codec
    # The *same* array objects grew — captured references stay valid.
    assert codec.columns("E") is columns
    assert len(columns[0]) == 7
    structure.delete("E", (0, 3))
    structure.delete("E", (0, 1))
    codec_for(structure, structure.universe)
    assert len(columns[0]) == 5
    assert sorted(zip(columns[0], columns[1])) == sorted(
        (codec.encode(a), codec.encode(b)) for a, b in structure.tuples("E")
    )


def test_codec_outrun_by_the_delta_log_is_rebuilt():
    structure = directed_cycle(5)
    domain = structure.universe
    stale = codec_for(structure, domain)
    rebuilt_before = codec_stats["rebuilt"]
    for step in range(DELTA_LOG_LIMIT + 1):
        a, b = step % 5, (step * 3 + 1) % 5
        if not structure.insert("E", (a, b)):
            structure.delete("E", (a, b))
    assert structure.deltas_since(stale.epoch) is None
    served = codec_for(structure, domain)
    assert served is not stale
    assert served.epoch == structure.epoch
    assert codec_stats["rebuilt"] == rebuilt_before + 1


def test_resurrected_stale_codec_is_patched_not_served_stale():
    """A stale codec reappearing in the memo is never served as-is:
    ``codec_for`` patches it forward to the current epoch first."""
    structure = directed_cycle(5)
    domain = structure.universe
    stale = codec_for(structure, domain)
    stale.packed_relation("E")
    structure.insert("E", (0, 2))
    # Adversarially re-install the stale codec where the memo keeps it.
    structure._cache[("columnar-codec", domain)] = stale
    served = codec_for(structure, domain)
    assert served.epoch == structure.epoch
    assert served.packed_relation("E") == frozenset(
        served.encode_row(row) for row in structure.tuples("E")
    )


def test_foreign_structures_codec_is_rebuilt_not_patched():
    """A codec adopted from a different structure object (same universe,
    same epoch counter) must not be patched with the adoptive
    structure's deltas — its columns describe the donor's relations."""
    donor = directed_cycle(5)
    adoptive = random_graph(5, 0.5, seed=9)
    domain = adoptive.universe
    foreign = codec_for(donor, donor.universe)
    adoptive.insert("E", (0, 0))
    adoptive._cache[("columnar-codec", domain)] = foreign
    served = codec_for(adoptive, domain)
    assert served is not foreign
    assert served.packed_relation("E") == frozenset(
        served.encode_row(row) for row in adoptive.tuples("E")
    )


def test_columnar_answers_correct_across_updates():
    engine = Engine()
    formula = parse("E(x, y) & E(y, z)")
    structure = random_graph(10, 0.3, seed=5)
    assert engine.answers(structure, formula) == naive_answers(structure, formula)
    rebuilt_before = codec_stats["rebuilt"]
    for step in range(12):
        a, b = step % 10, (step * 3 + 1) % 10
        if not structure.insert("E", (a, b)):
            structure.delete("E", (a, b))
        assert engine.answers(structure, formula) == naive_answers(structure, formula)
    # The whole update run re-used one codec: patches only, no rebuild.
    assert codec_stats["rebuilt"] == rebuilt_before


def test_quantified_columnar_answers_correct_across_updates():
    engine = Engine()
    formula = parse("exists z. (E(x, z) & ~E(z, y))")
    structure = random_graph(8, 0.4, seed=13)
    for step in range(10):
        a, b = (step * 5 + 2) % 8, step % 8
        if not structure.insert("E", (a, b)):
            structure.delete("E", (a, b))
        assert engine.answers(structure, formula) == naive_answers(structure, formula)
