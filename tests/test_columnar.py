"""Differential fuzz suite for the columnar data plane.

The contract of :mod:`repro.datalog.columns` is *bit-identical
semantics*: for every program and database, the columnar backend must
return exactly the :class:`~repro.datalog.engine.EvaluationResult` --
``idb`` rows, ``stages``, ``fixpoint`` -- of the interpretive
reference, across naive/semi-naive/stage-bounded execution.  Randomly
generated programs (seed-deterministic, from
:mod:`repro.workloads.generators`) are crossed with chain / grid /
random EDB families and both backends are compared on every cell.

Also covers the storage substrate itself: packed-key round-trips, the
unique-key index specialization, the cached EDB image lifecycle (and
its registration with the shared-cache registry), the Database fast
paths (bare-value storage, bulk ingest, cached constant views, bulk
merge/restrict/copy), and the lazy result surface (id-column count and
checksum, un-interning only on demand).
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instances import clear_shared_caches
from repro.datalog import result as result_module
from repro.datalog.columns import (
    ColumnStore,
    _IMAGES_TABLE,
    _pack,
    _unpack,
    edb_image,
)
from repro.datalog.database import Database
from repro.datalog.engine import Engine, EngineConfig
from repro.datalog.errors import ArityError
from repro.datalog.magic import derived_fact_count, magic_query, magic_rewrite
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.programs.library import plain_transitive_closure
from repro.session import Session, current_session, rows_checksum
from repro.workloads import generators as gen
from repro.workloads.scenarios import (
    REGISTRY,
    LazyExpected,
    get_scenario,
)

SRC = str(Path(result_module.__file__).resolve().parents[2])
COLUMNAR = Engine(EngineConfig())
INTERPRETIVE = Engine(EngineConfig(compiled=False))
ENGINES = [COLUMNAR, INTERPRETIVE]


def assert_identical(program, database, max_stages=None):
    """Both backends agree on idb rows, stages, and fixpoint."""
    results = [engine.evaluate(program, database, max_stages=max_stages)
               for engine in ENGINES]
    first = results[0]
    for other in results[1:]:
        assert first.idb == other.idb
        assert first.stages == other.stages
        assert first.fixpoint == other.fixpoint
    return first


def edb_for(program, edges):
    """A database feeding *edges* to every (binary) EDB predicate of
    *program* -- random programs draw predicate names from a pool, so
    the fixture adapts to whatever the draw produced."""
    predicates = tuple(sorted(program.edb_predicates)) or ("e",)
    return gen.edges_database(edges, predicates)


EDB_FAMILIES = [
    ("chain", gen.chain_edges(12)),
    ("grid", gen.grid_edges(4, 4)),
    ("random", gen.random_graph_edges(15, 40, seed=3)),
]


# ----------------------------------------------------------------------
# The fuzz matrix: random programs x EDB families x backends.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("family", [name for name, _ in EDB_FAMILIES])
def test_random_program_differential(seed, family):
    edges = dict(EDB_FAMILIES)[family]
    program = gen.random_program(seed)
    database = edb_for(program, edges)
    result = assert_identical(program, database)
    # Stage-bounded (naive rounds) agreement, including mid-fixpoint.
    assert_identical(program, database, max_stages=1)
    assert_identical(program, database, max_stages=2)
    assert result.fixpoint


@pytest.mark.parametrize("strategy", ["naive", "seminaive"])
def test_forced_strategy_differential(strategy):
    program = gen.random_program(5)
    database = edb_for(program, gen.chain_edges(8))
    result = Engine(EngineConfig(strategy=strategy,
                                 compiled=True)).evaluate(program, database)
    interp = Engine(EngineConfig(strategy=strategy,
                                 compiled=False)).evaluate(program, database)
    assert result.idb == interp.idb
    assert result.stages == interp.stages
    assert result.fixpoint == interp.fixpoint


def test_random_programs_deterministic():
    from repro.datalog.printer import program_to_source

    for seed in range(8):
        assert program_to_source(gen.random_program(seed)) == \
            program_to_source(gen.random_program(seed))


# ----------------------------------------------------------------------
# Structured workloads: scale-shape programs, unsafe rules, constants,
# magic rewritings.
# ----------------------------------------------------------------------

def test_two_hop_matches_oracle():
    edges = gen.chain_edges(60)
    result = assert_identical(gen.two_hop_program(), edb_for(
        gen.two_hop_program(), edges))
    expected = {tuple(map(str, pair)) for pair in gen.two_hop_pairs(edges)}
    got = {tuple(c.value for c in row) for row in result.facts("p")}
    assert got == expected


def test_reach_matches_oracle():
    edges = gen.random_graph_edges(30, 70, seed=9)
    database = gen.edges_database(edges, ("e",))
    database.add("src", ("u0",))
    result = assert_identical(gen.single_source_reach(), database)
    got = {row[0].value for row in result.facts("r")}
    assert got == gen.reachable_from(edges, "u0")


def test_unsafe_rule_and_constants_differential():
    program = parse_program(
        """
        p(X, Y) :- e(X, Y).
        p(X, Y) :- q(X).
        q(X) :- e(X, v1).
        r(X, X) :- e(v0, X).
        """
    )
    database = gen.edges_database(gen.chain_edges(5), ("e",))
    assert_identical(program, database)
    assert_identical(program, database, max_stages=1)


def test_empty_database_and_missing_predicates():
    program = gen.single_source_reach()
    assert_identical(program, Database())
    lonely = Database.from_facts([("src", ("a",))])
    result = assert_identical(program, lonely)
    assert result.facts("r") == frozenset({(next(iter(
        lonely.relation("src")))[0],)})


def test_magic_rewriting_differential():
    program = plain_transitive_closure()
    database = gen.edges_database(gen.star_edges(4, 6), ("e",))
    answers = [magic_query(program, database, "p", "bf", ("r0_0",),
                           engine=engine) for engine in ENGINES]
    assert answers[0] == answers[1]
    counts = [derived_fact_count(program, database, "p", "bf", ("r0_0",),
                                 engine=engine) for engine in ENGINES]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("cfg", [COLUMNAR.config], ids=["columnar"])
def test_scale_smoke_scenario_ground_truth(cfg):
    result = Session(engine=cfg).run_scenario(
        get_scenario("scale_chain_2hop_5k"))
    assert result["ok"], result["verdict"]


# ----------------------------------------------------------------------
# Storage substrate.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("arity", [0, 1, 2, 3, 4, 5])
def test_packed_keys_round_trip(arity):
    base = 11
    rows = [tuple((i * (j + 3)) % base for j in range(arity))
            for i in range(7)]
    cols = [list(col) for col in zip(*rows)] if arity else []
    keys = _pack(cols, len(rows), base)
    assert len(keys) == len(rows)
    back = _unpack(keys, arity, base, range(base))
    assert [tuple(col[i] for col in back) for i in range(len(rows))] == rows


def test_unique_index_specialization():
    db = gen.edges_database(gen.chain_edges(5), ("e",))  # unique source col
    image = edb_image(db)
    index, unique = image.index("e", 0)
    assert unique and all(isinstance(v, int) for v in index.values())
    fan = Database.from_facts([("f", ("a", "b")), ("f", ("a", "c")),
                               ("f", ("b", "c"))])
    index, unique = edb_image(fan).index("f", 0)
    assert not unique and all(isinstance(v, list) for v in index.values())


def test_derived_index_extends_when_probed():
    """An index on a derived relation takes in the rows added since
    its last probe when probed again; inserts leave it alone."""
    db = gen.edges_database(gen.chain_edges(3), ("e",))
    store = ColumnStore(db, {"p"})
    store.seal()
    a, b, c = (store.resolve(Constant(v)) for v in ("v0", "v1", "v2"))
    base = store.base
    index, unique = store.index("p", 0)
    assert (index, unique) == ({}, False)
    fresh = {a * base + b, a * base + c}
    store.add_keys("p", fresh, 2)
    assert store.keyset("p") is fresh  # the first batch's set
    assert index == {}  # untouched until the next probe
    for batch in ({b * base + c}, {c * base + a, c * base + b}):
        assert store.index("p", 0)[0] is index
        expected: dict = {}
        for row_id, value in enumerate(store.cols("p")[0]):
            expected.setdefault(value, []).append(row_id)
        assert index == expected
        store.add_keys("p", batch, 2)
    assert sorted(map(len, index.values())) == [1, 2]


@pytest.mark.parametrize("strategy", ["naive", "seminaive"])
def test_batches_are_deduplicated_once(strategy, monkeypatch):
    """``execute_batch_fused`` subtracts the keyset and ``add_keys``
    trusts it: every batch it is handed is fresh."""
    handed = []
    original = ColumnStore.add_keys

    def spy(self, predicate, fresh, arity):
        handed.append(not fresh & self.keyset(predicate))
        return original(self, predicate, fresh, arity)

    monkeypatch.setattr(ColumnStore, "add_keys", spy)
    program = parse_program("p(X, Y) :- e(X, Y).\n"
                            "p(X, Y) :- p(X, Z), p(Z, Y).\n"
                            "p(X, Y) :- e(X, Z), p(Z, Y).")
    database = gen.edges_database(gen.chain_edges(9), ("e",))
    # The stage bound stops a fixpoint that re-derives old rows.
    result = Engine(EngineConfig(strategy=strategy)).evaluate(
        program, database, max_stages=20)
    assert result.fixpoint and result.count("p") == 45
    assert handed and all(handed)
    assert result.idb == INTERPRETIVE.evaluate(program, database).idb


def test_edb_image_cache_and_invalidation():
    current_session().clear_caches()
    db = gen.edges_database(gen.chain_edges(4), ("e",))
    first = edb_image(db)
    assert edb_image(db) is first  # cached by identity + version
    db.add("e", ("x", "y"))
    second = edb_image(db)
    assert second is not first  # version moved -> rebuilt
    assert second.counts["e"] == first.counts["e"] + 1


def test_image_cache_registered_with_shared_caches():
    db = gen.edges_database(gen.chain_edges(3), ("e",))
    edb_image(db)
    images = current_session().caches.table(_IMAGES_TABLE)
    assert images
    clear_shared_caches()  # the cold-start hook
    assert not images


def test_column_store_seed_rows_are_private():
    # IDB relations with extensional seed rows (magic-style) must not
    # leak derived rows back into the shared image.
    db = Database.from_facts([("p", ("a", "b")), ("e", ("b", "c"))])
    program = parse_program("p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).")
    image_rows = edb_image(db).counts["p"]
    result = assert_identical(program, db)
    assert len(result.facts("p")) > image_rows
    assert edb_image(db).counts["p"] == image_rows


def test_column_store_duck_types_plan_resolution():
    program = parse_program("p(X) :- e(v0, X).")
    db = gen.edges_database(gen.chain_edges(3), ("e",))
    store = ColumnStore(db, idb=program.idb_predicates)
    from repro.datalog.plan import PlanCache

    rplan = PlanCache().plan(program.rules[0], None).resolve(store)
    store.seal()
    assert store.base > 0
    assert rplan.nregs >= 1


# ----------------------------------------------------------------------
# Database fast paths (satellite: cached views, bulk ops).
# ----------------------------------------------------------------------

def test_relation_view_cached_and_invalidated():
    db = gen.edges_database(gen.chain_edges(3), ("e",))
    view = db.relation("e")
    assert db.relation("e") is view  # cached frozen view
    db.add("e", ("x", "y"))
    fresh = db.relation("e")
    assert fresh is not view and len(fresh) == len(view) + 1
    assert db.version() > 0


def test_copy_merge_restrict_bulk_semantics():
    left = gen.edges_database(gen.chain_edges(4), ("e",))
    right = gen.edges_database([("x", "y")], ("e", "f"))
    merged = left.merge(right)
    assert merged.contains("e", ("x", "y"))
    assert merged.contains("e", ("v0", "v1"))
    assert merged.relation("f") == right.relation("f")
    assert not left.contains("e", ("x", "y"))  # merge did not mutate

    restricted = merged.restrict(["f"])
    assert restricted.predicates() == frozenset({"f"})
    assert restricted.relation("f") == right.relation("f")

    copied = left.copy()
    copied.add("e", ("q", "r"))
    assert not left.contains("e", ("q", "r"))
    assert left.relation("e") == Database.from_facts(
        (("e", row) for row in left.relation("e"))).relation("e")


def test_merge_arity_mismatch_still_raises():
    left = Database.from_facts([("e", ("a", "b"))])
    right = Database.from_facts([("e", ("a",))])
    with pytest.raises(ArityError):
        left.merge(right)


def test_lazy_expected_defers_the_thunk():
    calls = []

    def thunk():
        calls.append(1)
        return {"count": 3}

    lazy = LazyExpected(thunk)
    assert not calls  # registration is free
    assert dict(lazy) == {"count": 3}
    assert lazy["count"] == 3
    assert len(calls) == 1  # computed once, then cached


# ----------------------------------------------------------------------
# Bare-value storage and the lazy result surface.
# ----------------------------------------------------------------------

#: Every registry evaluation/magic scenario except the 10^5-fact scale
#: tier, whose smoke-size probe stands in for it.  The stress trace
#: checkers contribute an empty and a one-row 0-ary goal.
CHECKSUM_SCENARIOS = sorted(
    name for name, scenario in REGISTRY.items()
    if scenario.kind in ("evaluation", "magic")
    and ("scale" not in scenario.tags or "smoke" in scenario.tags))


def _assert_lazy_surface(program, result):
    for predicate in sorted(program.idb_predicates) + ["absent"]:
        # Ask the id columns first, before facts() caches the rows.
        checksum, count = result.checksum(predicate), result.count(predicate)
        rows = result.facts(predicate)
        assert checksum == rows_checksum(rows), predicate
        assert count == len(rows), predicate


@pytest.mark.parametrize("name", CHECKSUM_SCENARIOS)
def test_checksum_identity_registry(name):
    """The id-column digest is byte-identical to ``rows_checksum`` of
    the un-interned rows, on every IDB predicate; evaluation goals
    also match the structural ground truth, which no interner order
    (``PYTHONHASHSEED``) can move."""
    scenario = get_scenario(name)
    payload = scenario.build()
    program, database = payload["program"], payload["database"]
    result = COLUMNAR.evaluate(program, database)
    _assert_lazy_surface(program, result)
    if scenario.kind == "evaluation":
        expected = dict(scenario.expected)
        assert result.checksum(payload["goal"]) == expected["checksum"]
        assert result.count(payload["goal"]) == expected["count"]
    else:
        rewriting = magic_rewrite(program, payload["goal"],
                                  payload["adornment"], payload["bindings"])
        seeded = database.copy()
        seeded.add(rewriting.seed_predicate, rewriting.seed_row)
        _assert_lazy_surface(rewriting.program,
                             COLUMNAR.evaluate(rewriting.program, seeded))


def test_checksum_identity_zero_ary_and_empty():
    program = parse_program("c :- e(X, Y).\nz(X) :- e(X, X).\n"
                            "n :- e(X, X).\np(X, Y) :- e(X, Y).")
    database = gen.edges_database(gen.chain_edges(6), ("e",))
    for max_stages in (None, 0):
        result = COLUMNAR.evaluate(program, database, max_stages=max_stages)
        _assert_lazy_surface(program, result)
    result = COLUMNAR.evaluate(program, database)
    assert (result.count("c"), result.count("n"), result.count("z")) == (1, 0, 0)
    assert result.checksum("c") == rows_checksum([()])
    assert result.checksum("n") == result.checksum("z") == rows_checksum(())


#: One IDB predicate per checksum path: arities 0-3, empty relations,
#: int and str values in different columns, and head constants (``k``,
#: ``7``) that only the program holds, so they are interned after the
#: image was built.
MIXED_PROGRAM = """
z :- e(X, Y).
none :- e(X, X).
one(X) :- e(X, Y).
num(N) :- w(N, S).
kone(k) :- e(X, Y).
hollow(X) :- e(X, X).
two(N, S) :- w(N, S).
swap(S, N) :- w(N, S).
hollow2(X, Y) :- e(X, X), e(Y, Y).
three(X, k, N) :- e(X, Y), w(N, Y).
seven(N, 7, S) :- w(N, S).
"""


@pytest.mark.parametrize("strategy", ["naive", "seminaive"])
def test_checksum_identity_every_arity(strategy):
    program = parse_program(MIXED_PROGRAM)
    database = gen.edges_database(gen.chain_edges(5), ("e",))
    database.add_rows("w", [(1, "v1"), (2, "v2"), (3, "v2"), (10, "x")])
    image = edb_image(database)
    assert "k" not in image.ids and 7 not in image.ids
    result = Engine(EngineConfig(strategy=strategy)).evaluate(program,
                                                              database)
    assert {p: result.count(p) for p in program.idb_predicates} == {
        "z": 1, "none": 0, "one": 5, "num": 4, "kone": 1, "hollow": 0,
        "two": 4, "swap": 4, "hollow2": 0, "three": 3, "seven": 4}
    _assert_lazy_surface(program, result)
    assert result.checksum("kone") == rows_checksum([("k",)])
    assert result.idb == INTERPRETIVE.evaluate(program, database).idb


def test_checksum_identity_unsafe_head_on_a_cached_image():
    """An unsafe head ranges over the database's values and the
    program's own constants -- not over constants another program
    appended to the shared interner of the same cached image."""
    database = gen.edges_database(gen.chain_edges(3), ("e",))
    image = edb_image(database)
    other = parse_program("o(X) :- e(X, stray).\no(elsewhere) :- e(X, Y).")
    COLUMNAR.evaluate(other, database)
    assert {"stray", "elsewhere"} <= set(image.ids)
    unsafe = parse_program("u(X, Y) :- e(X, Z).\nu(own, own) :- e(X, Y).\n"
                           "s(Y) :- u(X, Y), e(Y, Z).")
    columnar = COLUMNAR.evaluate(unsafe, database)
    assert edb_image(database) is image
    interpretive = INTERPRETIVE.evaluate(unsafe, database)
    assert columnar.idb == interpretive.idb
    assert (columnar.stages, columnar.fixpoint) == (interpretive.stages,
                                                    interpretive.fixpoint)
    assert columnar.count("u") == 3 * 5 + 1  # 3 sources x {v0..v3, own}
    _assert_lazy_surface(unsafe, columnar)


#: Bare values the digest must write as ``repr`` does: negative ints,
#: and strs with quotes, backslashes, control and non-ASCII characters.
DIGEST_VALUES = st.one_of(st.integers(-10 ** 12, 10 ** 12),
                          st.text("ab'\"\\\n\t\u00e9", max_size=4))
#: A first column drawn from few values, so projections repeat it.
DIGEST_FIRST = st.one_of(st.sampled_from([-1, 0, "a", "'"]), DIGEST_VALUES)


def _projection_checksums(rows, arity):
    """The columnar digest of ``p``, the first *arity* columns of the
    ternary ``e``, and ``rows_checksum`` of the same projection."""
    head = ", ".join(f"X{i}" for i in range(arity))
    program = parse_program(f"p{f'({head})' if arity else ''} :- "
                            "e(X0, X1, X2).")
    database = Database()
    database.add_rows("e", rows)
    result = COLUMNAR.evaluate(program, database)
    return (result.checksum("p"),
            rows_checksum({row[:arity] for row in rows}))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(DIGEST_FIRST, DIGEST_VALUES, DIGEST_VALUES),
                     max_size=40),
       arity=st.integers(0, 3))
def test_checksum_identity_of_projections(rows, arity):
    digest, oracle = _projection_checksums(rows, arity)
    assert digest == oracle


@settings(max_examples=4, deadline=None)
@given(n=st.integers(4097, 9000), seed=st.integers(0, 2 ** 16),
       arity=st.integers(1, 3), spread=st.sampled_from([3, 10 ** 6]))
def test_checksum_identity_across_chunks(n, seed, arity, spread):
    """More rows than one digest chunk, with or without repeats in the
    first column."""
    rng = random.Random(seed)
    rows = [(rng.randrange(n // spread + 1) - 5, f"v{rng.randrange(n)}'",
             rng.randrange(-n, n)) for _ in range(n)]
    digest, oracle = _projection_checksums(rows, arity)
    assert digest == oracle


#: A handful of distinct values, ints and strs mixed.
FEW_VALUES = st.lists(st.one_of(st.integers(-3, 3), DIGEST_VALUES),
                      min_size=1, max_size=6, unique=True)


@settings(max_examples=80, deadline=None)
@given(pool=FEW_VALUES, data=st.data(), arity=st.integers(2, 3))
def test_checksum_identity_of_repeating_first_columns(pool, data, arity):
    """Projections whose first column repeats: every column mixes
    ints and strs over few values."""
    value = st.sampled_from(pool)
    rows = data.draw(st.lists(st.tuples(value, value, value), max_size=60))
    digest, oracle = _projection_checksums(rows, arity)
    assert digest == oracle


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 16), arity=st.integers(2, 3))
def test_checksum_identity_of_repeating_first_columns_across_chunks(seed,
                                                                     arity):
    """More rows than one digest chunk over 80 mixed values."""
    rng = random.Random(seed)
    pool = [value for i in range(40) for value in (i - 20, f"v{i}'")]
    rows = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(12000)]
    assert len({row[:arity] for row in rows}) > result_module._CHUNK
    digest, oracle = _projection_checksums(rows, arity)
    assert digest == oracle


@pytest.mark.parametrize("arity", [2, 3])
def test_checksum_identity_of_a_late_repeat(arity):
    """A first column whose values are distinct over the first 4,096
    rows and repeat later."""
    n = 2 * result_module._CHUNK
    first = [f"k{i}" for i in range(result_module._CHUNK)]
    first += [first[i % 7] for i in range(n - len(first))]
    # 7919 is prime to n: the second column is a permutation.
    rows = list(zip(first, [(i * 7919) % n - 99 for i in range(n)],
                    [f"v{i % 5}" for i in range(n)]))
    assert len({row[:arity] for row in rows}) == n
    digest, oracle = _projection_checksums(rows, arity)
    assert digest == oracle


#: An image over mixed ints and strs, printed as its interner: values
#: in id order, then each value's id.
INTERNER_PROBE = """
from repro.datalog.columns import edb_image
from repro.datalog.database import Database
database = Database()
database.add_rows("e", [(3, "b"), ("a", -1), (10, "b'"), ("B", 2)])
database.add_rows("f", [("zz",), (0,), ("a",)])
image = edb_image(database)
print(repr((image.values, [image.ids[value] for value in image.values])))
"""


def test_checksum_identity_interner_order():
    """An image numbers its values in value order, numbers first, the
    same under every ``PYTHONHASHSEED``."""
    values = [-1, 0, 2, 3, 10, "B", "a", "b", "b'", "zz"]
    expected = repr((values, list(range(len(values)))))
    printed = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       SRC, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", INTERNER_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        printed.add(done.stdout.strip())
    assert printed == {expected}
    image = edb_image(gen.edges_database(gen.chain_edges(40), ("e",)))
    assert image.values == sorted(image.values)
    assert image.ordered == len(image.domain) == len(image.values)


def _fallback_spy(monkeypatch):
    """The predicates whose digest fell back to ``rows_checksum``."""
    calls = []
    value_rows = ColumnStore.value_rows

    def spy(self, predicate):
        calls.append(predicate)
        return value_rows(self, predicate)

    monkeypatch.setattr(ColumnStore, "value_rows", spy)
    return calls


@pytest.mark.parametrize("strategy", ["naive", "seminaive"])
def test_checksum_identity_of_the_fallback_digest(monkeypatch, strategy):
    """A head constant the facts lack, and an image whose values do not
    sort together, take ``rows_checksum``; a head constant the facts
    hold does not."""
    calls = _fallback_spy(monkeypatch)
    engine = Engine(EngineConfig(strategy=strategy))
    # aa sorts between a and b but is numbered after every EDB value.
    program = parse_program("p(X, Y) :- e(X, Y).\np(aa, 0) :- e(X, Y).\n"
                            "q(X, Y) :- e(X, Y), e(Y, X).\n"
                            "held(X, a) :- e(X, Y).\n"
                            "t(X) :- f(X).")
    database = Database()
    database.add_rows("e", [(1, "a"), ("a", 1), (2, "b"), ("b", -3)])
    database.add_rows("f", [("a",), (7,)])

    def digests_agree(predicates):
        result = engine.evaluate(program, database)
        for predicate in predicates:
            rows = INTERPRETIVE.evaluate(program, database).facts(predicate)
            assert result.checksum(predicate) == rows_checksum(rows)

    digests_agree(["held", "p", "q", "t"])
    assert calls == ["p"]
    database.add_rows("g", [(None,)])  # None and ints do not compare
    assert edb_image(database).ordered == 0
    digests_agree(["q", "t"])
    assert calls == ["p", "q", "t"]


def test_no_benchmarked_evaluation_takes_the_fallback_digest(monkeypatch):
    """Every registry evaluation goal, and the served transitive
    closures of the service benchmark's eval shapes (random graphs of
    24 nodes/40 edges and 100/200, graphs 0-3, unique constants), is
    digested off its sorted packed keys."""
    calls = _fallback_spy(monkeypatch)
    names = [name for name, scenario in REGISTRY.items()
             if scenario.kind == "evaluation"]
    assert len(names) >= 9
    for name in names:
        decision = Session().run_scenario(name)
        assert decision.ok and decision.checksum, name
    program = parse_program("p(X, Y) :- e(X, Y).\n"
                            "p(X, Y) :- e(X, Z), p(Z, Y).")
    for nodes, edges in ((24, 40), (100, 200)):
        for graph in range(4):
            pairs = [(f"o{graph}{a}", f"o{graph}{b}")
                     for a, b in gen.random_graph_edges(nodes, edges,
                                                        seed=graph)]
            facts = "\n".join(f"e({a}, {b})." for a, b in pairs)
            decision = Session().evaluate(
                program, Database.from_source(facts), goal="p")
            assert decision.checksum == rows_checksum(
                gen.reachable_pairs(pairs))
    assert not calls


def test_checksum_identity_checks_the_deadline_per_chunk(monkeypatch):
    calls = []
    monkeypatch.setattr(result_module, "check_deadline",
                        lambda: calls.append(None))
    rows = [(i, -i, "x") for i in range(3 * result_module._CHUNK + 1)]
    digest, oracle = _projection_checksums(rows, 2)
    assert digest == oracle
    assert len(calls) >= 4  # one per chunk, at least


def test_count_and_checksum_never_unintern(monkeypatch):
    calls = []
    original = ColumnStore.unintern_rows

    def spy(self, predicate):
        calls.append(predicate)
        return original(self, predicate)

    monkeypatch.setattr(ColumnStore, "unintern_rows", spy)
    assert Session().run_scenario("eval_tc_chain_120").ok
    assert Session().run_scenario("scale_chain_2hop_5k").ok
    payload = get_scenario("eval_tc_grid_10x10").build()
    decision = Session().evaluate(payload["program"], payload["database"],
                                  goal="p")
    assert decision.verdict["count"] == decision.verdict["facts"] > 0
    assert not calls
    decision.certificate.facts("p")  # the spy does see un-interning
    assert calls == ["p"]


def test_database_stores_bare_values():
    mixed = Database.from_facts([("e", (Constant("a"), "b"))])
    assert mixed == Database.from_facts([("e", ("a", "b"))])
    assert dict(mixed.relations()) == {"e": {("a", "b")}}
    assert mixed.relation("e") == {(Constant("a"), Constant("b"))}
    assert mixed.contains("e", ("a", Constant("b")))
    assert mixed.active_domain() == {Constant("a"), Constant("b")}
    mixed.add("e", ("b", "c"))  # invalidates the cached domain view
    assert Constant("c") in mixed.active_domain()


def test_add_rows_rejects_mixed_and_mismatched_arities():
    db = Database()
    with pytest.raises(ArityError):
        db.add_rows("e", [("a", "b"), ("c",)])
    assert "e" not in db.predicates()  # nothing half-inserted
    db.add_rows("e", [("a", "b"), ("b", "c")])
    with pytest.raises(ArityError):
        db.add_rows("e", [("a", "b", "c")])
    db.add("f", ("a",))
    with pytest.raises(ArityError):
        db.add_rows("f", iter([("a", "b")]))
    db.add_rows("f", [])  # an empty batch declares nothing
    assert db == Database.from_facts(
        [("e", ("a", "b")), ("e", ("b", "c")), ("f", ("a",))])

