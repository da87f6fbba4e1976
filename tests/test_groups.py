import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from passdown.errors import ConsistencyError, FixtureError
from passdown.groups import TRIVIAL, GroupRef, GroupTable

from oracles import declared_equal_oracle, leq_oracle

SRC = Path(__file__).resolve().parents[1] / "src"


def _ids(table):
    return sorted(table.ids())


class TestDeclaredOrder:
    """``GroupTable.leq`` (parent index and memo) against a fresh parent
    walk, on seeded tables that interleave insertions, copies and queries."""

    @pytest.mark.parametrize("seed", range(40))
    def test_memo_matches_parent_walk(self, seed):
        rng = random.Random(seed)
        table, extra = GroupTable(), set()
        live = [(table, extra)]  # every table made so far, each with its own containments
        asked = 0
        for step in range(rng.randint(20, 120)):
            table, extra = rng.choice(live)
            ids = _ids(table)
            op = rng.random()
            if op < 0.15:
                sups = frozenset(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
                table.add(GroupRef(f"g{seed}.{step}", declared_supergroups=sups))
            elif op < 0.3:
                table.mint("m", supergroups=rng.sample(ids, rng.randint(0, min(2, len(ids)))))
            elif op < 0.45:
                sub, sup = rng.choice(ids), rng.choice(ids)
                table.declare_leq(sub, sup)
                extra.add((sub, sup))
            elif op < 0.5:
                live.append((table.copy(), set(extra)))
            else:
                a = rng.choice(ids)
                b = rng.choice(ids + ["unknown"])
                assert table.leq(a, b) == leq_oracle(table, extra, a, b), (a, b)
                asked += 1
            # every table, the ones not just touched included, still agrees
            for other, other_extra in live:
                ids = _ids(other)
                a, b = rng.choice(ids), rng.choice(ids)
                assert other.leq(a, b) == leq_oracle(other, other_extra, a, b), (a, b)
        assert asked

    def test_declaration_in_a_copy_stays_there(self):
        table = GroupTable([GroupRef("A"), GroupRef("B"), GroupRef("C", declared_supergroups=frozenset({"A"}))])
        assert not table.leq("C", "B")  # a negative answer is now memoised
        copy = table.copy()
        copy.declare_leq("A", "B")
        assert copy.leq("C", "B") and copy.leq("A", "B")
        assert not table.leq("C", "B") and not table.leq("A", "B")
        table.declare_leq("B", "C")
        assert table.leq("B", "A")
        assert not copy.leq("B", "A")
        minted = copy.mint("m", supergroups={"C"})
        assert copy.leq(minted.id, "B") and minted.id not in table

    def test_a_negative_answer_is_dropped_by_an_insertion(self):
        table = GroupTable([GroupRef("A"), GroupRef("B")])
        assert not table.leq("A", "B")
        table.declare_leq("A", "B")
        assert table.leq("A", "B")
        assert not table.leq("A", "Z")
        table.add(GroupRef("Z"))
        table.add(GroupRef("Y", declared_supergroups=frozenset({"Z"})))
        table.declare_leq("B", "Y")
        assert table.leq("A", "Z")

    def test_unknown_ids_raise_as_before(self):
        table = GroupTable([GroupRef("A", declared_supergroups=frozenset({"ghost"}))])
        assert table.leq("A", "ghost")
        with pytest.raises(FixtureError, match="unknown group id 'nope'"):
            table.leq("nope", "A")
        with pytest.raises(FixtureError, match="unknown group id 'ghost'"):
            table.leq("A", "B")
        with pytest.raises(FixtureError, match="unknown group id 'nope'"):
            table.declare_leq("nope", "A")
        assert table.leq(TRIVIAL, "nope")


UNKNOWN_ABOVE = """
from oracles import leq_oracle
from passdown.errors import ConsistencyError, FixtureError
from passdown.groups import GroupRef, GroupTable

table = GroupTable([
    GroupRef("A", declared_supergroups=frozenset({"ghost", "C"})),
    GroupRef("C", declared_supergroups=frozenset({"B"})),
    GroupRef("B"),
])
for leq in (table.leq, lambda a, b: leq_oracle(table, set(), a, b)):
    try:
        print(leq("A", "B"))
    except FixtureError as exc:
        print(f"FixtureError: {exc}")
"""


@pytest.mark.parametrize("hashseed", ["0", "1", "2", "3", "4", "5"])
def test_an_unknown_id_above_raises_under_every_hash_seed(hashseed):
    """The walk from A meets both B (through C) and the unknown 'ghost';
    the answer must not depend on the iteration order of string sets, in
    the table or in its oracle."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", UNKNOWN_ABOVE], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "FixtureError: unknown group id 'ghost'\n" * 2


FLAG_MISMATCHES = """
from passdown.errors import ConsistencyError
from passdown.groups import GroupRef, GroupTable

slender = [GroupRef("Gc", is_slender=True), GroupRef("Gd", is_slender=True)]
equal = [GroupRef(g, is_slender=True, declared_supergroups=frozenset({"B"})) for g in ("A", "C")]
for table in (
    GroupTable(slender + [GroupRef("Gcd", declared_supergroups=frozenset({"Gc", "Gd"}))]),
    GroupTable([GroupRef("B", is_slender=True, is_finite=True, declared_supergroups=frozenset({"A", "C"}))] + equal),
):
    try:
        table.validate()
    except ConsistencyError as exc:
        print(exc)
"""


@pytest.mark.parametrize("hashseed", ["1", "2", "3", "4"])
def test_a_flag_mismatch_names_one_supergroup_under_every_hash_seed(hashseed):
    """A group below two slender groups, and a group declared equal to two
    others, each with a flag that does not match: the error names the
    least supergroup whatever the iteration order of string sets."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FLAG_MISMATCHES], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "group 'Gcd' is declared inside slender 'Gc' but not flagged slender\n"
        "declared-equal groups 'B', 'A' disagree on flags\n"
    )


class TestValidate:
    """``GroupTable.validate`` compares flags of declared-equal groups
    through the strongly connected components of the declared order, with
    ``oracles.declared_equal_oracle`` (one ``leq`` per containment) as the
    definition."""

    def test_a_long_chain_validates_without_a_walk(self, monkeypatch):
        n = 2000
        table = GroupTable(
            GroupRef(f"g{i}", is_slender=True, declared_supergroups=frozenset({f"g{i + 1}"}) if i + 1 < n else frozenset())
            for i in range(n)
        )

        def no_walk(self, a, b):
            raise AssertionError(f"walked from {a!r} to {b!r}")

        monkeypatch.setattr(GroupTable, "_walk_leq", no_walk)
        table.validate()

    def test_a_flag_mismatch_on_a_cycle_names_the_first_pair(self):
        # A < B < C < A, all slender; only A is finite, a flag closure does
        # not pass down, so only the declared-equal check catches it
        table = GroupTable(
            [
                GroupRef("A", is_slender=True, is_finite=True, declared_supergroups=frozenset({"B"})),
                GroupRef("B", is_slender=True, declared_supergroups=frozenset({"C"})),
                GroupRef("C", is_slender=True, declared_supergroups=frozenset({"A"})),
            ]
        )
        message = "declared-equal groups 'A', 'B' disagree on flags"
        with pytest.raises(ConsistencyError, match=message):
            declared_equal_oracle(table)
        with pytest.raises(ConsistencyError, match=message):
            table.validate()

    def test_an_unknown_supergroup_raises_first(self):
        table = GroupTable(
            [
                GroupRef("A", is_slender=True, is_finite=True, declared_supergroups=frozenset({"B"})),
                GroupRef("B", is_slender=True, declared_supergroups=frozenset({"A"})),
                GroupRef("C", declared_supergroups=frozenset({"ghost"})),
            ]
        )
        with pytest.raises(FixtureError, match="group 'C': unknown supergroup 'ghost'"):
            table.validate()

    @pytest.mark.parametrize("seed", range(30))
    def test_random_orders_match_the_definition(self, seed):
        # every group slender and elliptic on every level, so the flag
        # closure holds and only the finite flag can tell declared-equal
        # groups apart; about half the tables are refused
        rng = random.Random(seed)
        ids = [f"g{i}" for i in range(rng.randint(2, 12))]
        table = GroupTable(
            GroupRef(
                gid,
                is_slender=True,
                is_h_elliptic=True,
                is_finite=rng.random() < 0.2,
                declared_supergroups=frozenset(rng.sample(ids + [TRIVIAL], rng.randint(0, 2))),
            )
            for gid in ids
        )
        outcomes = []
        for check in (declared_equal_oracle, GroupTable.validate):
            try:
                check(table)
                outcomes.append(None)
            except ConsistencyError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
