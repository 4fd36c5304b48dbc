"""Property tests for the columnar-encoding maintenance contract and kernels.

The columnar encoding the executor runs under the plan's columnar verdict
(:meth:`repro.relational.database.Relation.columnar`) follows the same
contract as every other lazy cache on :class:`Relation`: built lazily,
maintained *in place* by point mutations and ``apply_delta`` streams
(including undo round-trips), dropped wholesale by bulk mutations, and
honest about unsupported data — a mixed-type or unencodable column marks the
encoding dead so the tuple-set path stays the semantic reference.

Two pinned properties:

* after any random interleaving of point mutations, multi-modification
  deltas, undos and bulk mutations, every maintained encoding holds exactly
  the live rows, decoded *bit-exactly* (``bool`` never comes back as ``int``,
  ``1`` never as ``1.0``) — compared canonically, because swap-removal makes
  the internal order maintenance-history dependent;
* the kernels (:meth:`select`, :meth:`match_rows`) agree with a
  brute-force Python evaluation of the same predicates on every surviving
  row set, across all encodable families.

Every case runs twice: on the NumPy kernels and, with the module's ``_np``
patched to ``None``, on the pure-Python fallback every kernel keeps.
"""

from __future__ import annotations

import operator
import random

import pytest

from repro.relational import columnar
from repro.relational.columnar import ColumnarRelation, value_family
from repro.relational.database import Database, Relation
from repro.relational.schema import RelationSchema

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
}

#: Per-family value pools for the randomised suites.
_POOLS = {
    "int": tuple(range(-3, 9)),
    "float": (-2.5, -0.5, 0.0, 0.25, 1.5, 3.75, 7.125),
    "bool": (False, True),
    "str": ("a", "b", "c", "delta", "echo", ""),
}


@pytest.fixture(autouse=True, params=["numpy", "python"])
def kernel_backend(request, monkeypatch):
    """Every case runs on the NumPy kernels and on their pure-Python fallbacks."""
    if request.param == "python":
        monkeypatch.setattr(columnar, "_np", None)
    elif columnar._np is None:
        pytest.skip("NumPy is not installed")
    return request.param


def _canonical(rows):
    """Rows as an order-insensitive multiset (sorted by repr for mixed types)."""
    return sorted(rows, key=repr)


def _random_row(rng, families):
    return tuple(rng.choice(_POOLS[family]) for family in families)


class TestEncodingRoundTrip:
    def test_families_are_exact_types(self):
        assert value_family(True) == "bool"
        assert value_family(1) == "int"
        assert value_family(1.0) == "float"
        assert value_family("1") == "str"
        assert value_family(2 ** 63) is None  # outside int64
        assert value_family(-(2 ** 63) - 1) is None
        assert value_family((1, 2)) is None
        assert value_family(None) is None

    def test_round_trip_preserves_exact_types(self):
        rows = [(True, 1, 1.0, "x"), (False, -7, 0.5, "")]
        encoding = ColumnarRelation(4, rows)
        assert encoding.ok
        decoded = _canonical(encoding.decoded_rows())
        assert decoded == _canonical(rows)
        for row in decoded:
            assert [type(v) for v in row] == [bool, int, float, str]

    def test_int64_boundaries_encode_exactly(self):
        rows = [(-(2 ** 63),), (2 ** 63 - 1,), (0,)]
        encoding = ColumnarRelation(1, rows)
        assert encoding.ok
        assert _canonical(encoding.decoded_rows()) == _canonical(rows)


class TestMaintenance:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_interleavings_match_fresh_builds(self, seed):
        """Point mutations, deltas, undos and bulk mutations never desync."""
        rng = random.Random(seed)
        families = [rng.choice(list(_POOLS)) for _ in range(3)]
        database = Database()
        relation = database.create_relation(
            "r",
            ["a", "b", "c"],
            {_random_row(rng, families) for _ in range(rng.randint(0, 10))},
        )
        relation.columnar()

        undo_stack = []
        for _ in range(60):
            action = rng.randrange(6)
            if action == 0:
                relation.add(_random_row(rng, families))
            elif action == 1 and len(relation):
                relation.discard(rng.choice(sorted(relation.rows(), key=repr)))
            elif action == 2:
                token = database.apply_delta(
                    [
                        (rng.choice(["insert", "delete"]), "r", _random_row(rng, families))
                        for _ in range(rng.randint(1, 3))
                    ]
                )
                undo_stack.append(token)
            elif action == 3 and undo_stack:
                undo_stack.pop().undo()
            elif action == 4 and rng.random() < 0.15:
                # A bulk mutation drops the encoding; rebuild lazily below.
                relation.replace_rows(
                    {_random_row(rng, families) for _ in range(rng.randint(0, 6))}
                )
                undo_stack.clear()  # tokens across a bulk rewrite are stale
            maintained = relation.columnar()
            assert maintained is not None and maintained.ok
            fresh = ColumnarRelation(3, relation.rows())
            assert _canonical(maintained.decoded_rows()) == _canonical(
                fresh.decoded_rows()
            ), "maintained encoding diverged from a fresh build"
            assert _canonical(maintained.decoded_rows()) == _canonical(relation.rows())
            if len(relation):
                # (A drained encoding keeps stale family metadata until the
                # next add re-fixes it; with rows present they must agree.)
                assert maintained.families() == fresh.families()

    def test_undo_round_trip_restores_the_exact_contents(self):
        database = Database()
        relation = database.create_relation("r", ["a", "b"], [(1, 2), (3, 4)])
        encoding = relation.columnar()
        before = _canonical(encoding.decoded_rows())
        token = database.apply_delta(
            [("insert", "r", (5, 6)), ("delete", "r", (1, 2)), ("insert", "r", (1, 9))]
        )
        assert _canonical(encoding.decoded_rows()) == _canonical(relation.rows())
        token.undo()
        assert _canonical(encoding.decoded_rows()) == before
        # Maintenance kept the very same object alive across the round-trip.
        assert relation.columnar() is encoding

    def test_bulk_mutation_drops_and_rebuilds(self):
        relation = Relation(RelationSchema("r", ["a"]), [(1,), (2,)])
        first = relation.columnar()
        relation.replace_rows({(9,)})
        rebuilt = relation.columnar()
        assert rebuilt is not first
        assert _canonical(rebuilt.decoded_rows()) == [(9,)]

    def test_emptied_encoding_refixes_families_like_a_fresh_build(self):
        """Draining all rows must forget the old families, not pin them."""
        relation = Relation(RelationSchema("r", ["a"]), [(1,)])
        encoding = relation.columnar()
        assert encoding.families() == ("int",)
        relation.discard((1,))
        relation.add(("now-a-string",))
        maintained = relation.columnar()
        assert maintained is not None and maintained.ok
        assert maintained.families() == ("str",)
        assert _canonical(maintained.decoded_rows()) == [("now-a-string",)]


class TestDecline:
    def test_mixed_type_column_declines(self):
        relation = Relation(RelationSchema("r", ["a", "b"]), [(1, 2), ("x", 3)])
        assert relation.columnar() is None

    def test_cross_numeric_families_decline(self):
        """Exact round-trip forbids mixing bool/int/float in one column."""
        for rows in ([(1,), (1.0,)], [(True,), (1,)], [(0.5,), (False,)]):
            assert ColumnarRelation(1, rows).ok is False

    def test_unencodable_value_declines(self):
        assert ColumnarRelation(1, [((1, 2),)]).ok is False
        assert ColumnarRelation(1, [(2 ** 70,)]).ok is False

    def test_nullary_relation_declines(self):
        assert ColumnarRelation(0, [()]).ok is False

    def test_unsupported_value_during_maintenance_kills_cleanly(self):
        relation = Relation(RelationSchema("r", ["a"]), [(1,)])
        encoding = relation.columnar()
        assert encoding.ok
        relation.add((1.5,))  # cross-family: exact round-trip impossible
        assert not encoding.ok
        assert relation.columnar() is None
        # Dead encodings ignore further maintenance instead of corrupting,
        # and the dead object stays cached (the decline is not re-derived).
        relation.add((7,))
        relation.discard((1,))
        assert relation.columnar() is None
        # A bulk mutation drops the dead encoding; clean rows rebuild live.
        relation.replace_rows({(5,), (6,)})
        rebuilt = relation.columnar()
        assert rebuilt is not None and rebuilt.ok

    def test_dead_encoding_kernels_decline(self):
        encoding = ColumnarRelation(1, [(1,), ("x",)])
        assert not encoding.ok
        assert encoding.select([(0, "=", 1)]) is None
        assert encoding.match_rows([(0, 1)], []) is None


class TestSelectKernel:
    @pytest.mark.parametrize("seed", range(15))
    def test_select_matches_bruteforce_on_same_family_predicates(self, seed):
        rng = random.Random(100 + seed)
        families = [rng.choice(list(_POOLS)) for _ in range(2)]
        rows = list({_random_row(rng, families) for _ in range(rng.randint(0, 40))})
        encoding = ColumnarRelation(2, rows)
        assert encoding.ok
        for _ in range(10):
            position = rng.randrange(2)
            op_symbol = rng.choice(list(_OPS))
            bound = rng.choice(_POOLS[families[position]])
            predicates = [(position, op_symbol, bound)]
            expected = [r for r in rows if _OPS[op_symbol](r[position], bound)]
            got = encoding.select(predicates)
            assert got is not None
            assert _canonical(got) == _canonical(expected)

    def test_conjunction_of_predicates(self):
        rows = [(i, float(i % 5)) for i in range(50)]
        encoding = ColumnarRelation(2, rows)
        got = encoding.select([(0, ">=", 10), (0, "<", 30), (1, "=", 2.0)])
        expected = [r for r in rows if 10 <= r[0] < 30 and r[1] == 2.0]
        assert _canonical(got) == _canonical(expected)

    def test_family_mismatched_predicate_is_skipped_not_applied(self):
        """Superset honesty: an inapplicable predicate must not filter."""
        rows = [(1,), (2,), (3,)]
        encoding = ColumnarRelation(1, rows)
        # float bound on an int column: Python semantics (1 < 2.5) are not
        # the kernel's to decide — the full row set comes back and the
        # executor's comparison schedule stays responsible.
        assert _canonical(encoding.select([(0, "<", 2.5)])) == _canonical(rows)
        # str bound on an int column would raise under a scan: still skipped,
        # never silently filtered.
        assert _canonical(encoding.select([(0, "<", "x")])) == _canonical(rows)

    def test_select_yields_the_original_row_objects(self):
        rows = [("a", 1), ("b", 2)]
        encoding = ColumnarRelation(2, rows)
        (row,) = encoding.select([(1, "=", 2)])
        assert row is rows[1]


class TestMatchRowsKernel:
    @pytest.mark.parametrize("seed", range(15))
    def test_match_rows_agrees_with_bruteforce_or_declines(self, seed):
        rng = random.Random(200 + seed)
        families = [rng.choice(list(_POOLS)) for _ in range(3)]
        rows = list({_random_row(rng, families) for _ in range(rng.randint(0, 40))})
        encoding = ColumnarRelation(3, rows)
        for _ in range(10):
            const_eqs = [
                (p, rng.choice(_POOLS[rng.choice(list(_POOLS))]))
                for p in rng.sample(range(3), rng.randint(0, 2))
            ]
            pair_eqs = (
                [tuple(rng.sample(range(3), 2))] if rng.random() < 0.5 else []
            )
            got = encoding.match_rows(const_eqs, pair_eqs)
            if got is None:
                continue  # an honest decline is always allowed
            expected = [
                row
                for row in rows
                if all(row[p] == v for p, v in const_eqs)
                and all(row[a] == row[b] for a, b in pair_eqs)
            ]
            assert _canonical(got) == _canonical(expected)

    def test_cross_numeric_constant_declines(self):
        """1.0 == 1 in Python: the kernel must not decide it in int64 space."""
        encoding = ColumnarRelation(1, [(1,), (2,)])
        assert encoding.match_rows([(0, 1.0)], []) is None
        assert encoding.match_rows([(0, True)], []) is None

    def test_disjoint_family_constant_matches_nothing(self):
        encoding = ColumnarRelation(1, [(1,), (2,)])
        assert encoding.match_rows([(0, "x")], []) == ()

    def test_str_pair_equality_translates_dictionary_codes(self):
        """Per-column dictionaries assign codes independently — equality must
        compare values, never raw codes."""
        rows = [("a", "a"), ("a", "b"), ("b", "b"), ("c", "a")]
        encoding = ColumnarRelation(2, rows)
        got = encoding.match_rows([], [(0, 1)])
        assert _canonical(got) == _canonical([("a", "a"), ("b", "b")])

    def test_cross_family_pair_equality_declines(self):
        encoding = ColumnarRelation(2, [(1, 1.0), (2, 2.5)])
        assert encoding.match_rows([], [(0, 1)]) is None
