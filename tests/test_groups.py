import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from passdown.errors import FixtureError
from passdown.groups import TRIVIAL, GroupRef, GroupTable

from oracles import leq_oracle

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
from passdown.errors import FixtureError
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
