"""The fixture writer and the reader agree.

``fixtures.write`` writes a ``FixtureSet`` as text and ``parse_text``
reads it back.  Writing what was read back gives the same text, and each
pipeline of the text read back reports as the original does: the same
exit code and report, or the same error.  The inputs are every committed
fixture, the grammar's every-form fixture with every flag, every benchmark operation of
seeds 1-3, and generated splitting fixtures and depth-bound triples.
The writer sorts the sets it writes, so its text does not depend on the
string-hash seed; CI runs this file under three seeds.
"""

import hashlib
import os
import random
from pathlib import Path

import pytest

from passdown.complexes import make_complex
from passdown.errors import FixtureError, PassdownError
from passdown.fixtures import GRAMMAR, FixtureSet, PipelineConfig, parse_text, write
from passdown.hierarchy import jsj_depth_bound
from passdown.pipeline import run_pipeline

from bench_ops import workloads
from generators import DepthBoundGenerator, splitting_fixture
from test_grammar import EVERY_FORM

FIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
GOLDEN = Path(__file__).resolve().parent / "golden"


# the every-form fixture with each flag and key that it leaves out, but
# for the three inert ones, which nothing stores; with a multi-node
# hierarchy and a group of two action descriptors
EVERY_FLAG = (
    EVERY_FORM.replace("  group A\n", "  group A\n  group F finite sub-of=A\n")
    .replace("gog H\n", "gog H reduced\n")
    .replace("  vertex v1 A\n", "  vertex v1 A flexible\n")
    .replace("  elliptic A fix=x0\n", "  elliptic A fix=x0\n  elliptic A fix=x0,x1\n")
    .replace("ends=p,q", "ends=p,q swaps")
    .replace("horizon=2", "horizon=2 relative=A")
    .replace("  node r A\n", "  node r A action=G\n  node c A parent=r at=v0\n  node d A parent=r at=v1\n")
    .replace("attach r", "attach c")
    .replace("  node w0 tree=T\n", "  node w0 tree=T\n  node w1 parent=w0 orbit=x0 repeat=w0\n")
)
INERT = {"no-dinfty", "link-cap", "seed"}


def contents(fx):
    """What a fixture set holds, as values that compare equal when the
    sets hold the same."""
    groups = {gid: (fx.groups[gid], fx.groups.up[gid]) for gid in fx.groups.ids()}
    actions = {name: (table.descriptors, table.parabolic) for name, table in fx.actions.items()}
    return (groups, fx.complexes, fx.trees, actions, fx.gogs, fx.hierarchies, fx.structures,
            fx.restrictions.entries, fx.config, fx.pipelines)


def read_back(text):
    """``text`` read, written and read again: the two fixture sets, once
    they hold the same and writing what was read back gives the same text."""
    fx = parse_text(text)
    written = write(fx)
    back = parse_text(written)
    assert contents(back) == contents(fx)
    assert write(back) == written
    return fx, back


def pipeline_report(fx, name):
    """What ``passdown pipeline`` prints for ``name`` once ``fx`` is read:
    the exit code and the report, or the error line."""
    try:
        report = run_pipeline(fx, name)
    except PassdownError as exc:
        return exc.exit_code, f"error: {exc}"
    return report.exit_code, report.render()


def test_the_writer_writes_every_flag_and_key_that_the_reader_keeps():
    tokens = {token.split("=", 1)[0] for token in write(parse_text(EVERY_FLAG)).split()}
    read = set().union(*(form.flags | form.keys for form in GRAMMAR.values()))
    assert sorted(read - INERT - tokens) == []


@pytest.mark.parametrize("name", ["every flag", *sorted(os.listdir(FIX))])
def test_a_committed_fixture_reads_back_and_reports_alike(name):
    if name == "every flag":
        text = EVERY_FLAG
    else:
        with open(os.path.join(FIX, name), encoding="utf-8") as fh:
            text = fh.read()
    fx, back = read_back(text)
    for pipeline in fx.pipelines:
        assert pipeline_report(back, pipeline) == pipeline_report(fx, pipeline)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_benchmark_ops_read_back_and_report_as_pinned(seed):
    """Each operation's pipeline, run on the text read back, hashes to the
    digest that ``test_bench_reports`` pins for the original text."""
    pinned = {}
    for line in (GOLDEN / f"bench_ops_seed{seed}.sha256").read_text().splitlines():
        digest, key = line.split("  ", 1)
        pinned[key] = digest
    for workload in sorted(workloads.WORKLOADS):
        for op in workloads.generate(workload, seed):
            _fx, back = read_back(op.text)
            code, out = pipeline_report(back, op.pipeline)
            assert hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest() == pinned[f"{workload}: {op.label}"]


def test_splitting_fixtures_read_back_equal():
    made = 0
    for seed in range(40):
        fixture = splitting_fixture(random.Random(seed))
        if fixture is None:
            continue
        x, t, _res = fixture
        text = write(FixtureSet(complexes={"X": x}, trees={"T": t}))
        fx = parse_text(text)
        assert (fx.complexes["X"], fx.trees["T"]) == (x, t)
        assert write(fx) == text
        made += 1
    assert made >= 30


def test_depth_bound_triples_read_back_equal():
    """Multi-node hierarchies and ``restrict`` lines: the hierarchies, gogs
    and restriction table of generated (H, K, table) triples come back
    equal, and the depth bound reports alike on what was read back."""
    gen = DepthBoundGenerator(random.Random(1234))
    pairs = [gen.pair(depth) for depth in [0, 1, 1, 2, 2, 3] * 2]
    hierarchies = {h.name: h for pair in pairs for h in pair}
    gogs = {n.action.name: n.action for h in hierarchies.values() for n in h.nodes.values() if n.action is not None}
    fx = FixtureSet(groups=gen.groups, gogs=gogs, hierarchies=hierarchies, restrictions=gen.tables)
    text = write(fx)
    back = parse_text(text)
    assert write(back) == text
    assert back.hierarchies == fx.hierarchies
    assert back.gogs == fx.gogs
    assert back.restrictions.entries == fx.restrictions.entries
    assert {gid: back.groups.up[gid] for gid in back.groups.ids()} == fx.groups.up
    for h, k in pairs:
        bound = jsj_depth_bound(h, k, fx.restrictions, fx.groups)
        assert jsj_depth_bound(back.hierarchies[h.name], back.hierarchies[k.name], back.restrictions, back.groups) == bound
    # the parse branches under test are drawn
    assert any("parent=" in line and " at=" in line for line in text.splitlines())
    assert sum(line.startswith("restrict ") for line in text.splitlines()) >= 5


def test_a_block_with_nothing_to_say_is_left_out():
    assert write(FixtureSet()) == ""
    assert write(FixtureSet(config=PipelineConfig(horizon=6))) == ""
    assert write(FixtureSet(config=PipelineConfig(horizon=3))) == "config\n  horizon=3\nend\n"


@pytest.mark.parametrize(
    "vertex, message",
    [
        ("a b", "bad complex line: 'vertex a b stab=1 orbit=a b'"),
        ("a=b", "bad complex line: 'vertex a=b stab=1 orbit=a=b'"),
        ("a#b", "cannot write 'vertex a#b stab=1 orbit=a#b' as a complex line"),
        ("marked", "bad complex line: 'vertex marked stab=1 orbit=marked'"),
    ],
)
def test_an_id_the_reader_would_refuse_or_misread_is_not_written(vertex, message):
    with pytest.raises(FixtureError) as info:
        write(FixtureSet(complexes={"X": make_complex([vertex], {}, {})}))
    assert str(info.value) == message
