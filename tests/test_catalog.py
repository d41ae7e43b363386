import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistspec.errors import DefinitionError
from twistspec.catalog import (GroupDefinition, abelian, alternating, build,
                               cyclic, dihedral, direct_product, from_json_dict,
                               holomorph_cyclic, load, m9, metacyclic,
                               quaternion_dicyclic, save, shipped_catalog,
                               sl2, slug, symmetric, write_catalog)


# -- builders -------------------------------------------------------------------

@pytest.mark.parametrize("defn,order,k", [
    (cyclic(4), 4, 4),
    (cyclic(1), 1, 1),
    (symmetric(4), 24, 5),
    (symmetric(2), 2, 2),
    (alternating(5), 60, 5),
    (dihedral(4), 8, 5),
    (dihedral(5), 10, 4),
    (quaternion_dicyclic(2), 8, 5),
    (quaternion_dicyclic(3), 12, 6),
    (abelian(2, 6), 12, 12),
    (metacyclic(7, 3, 2), 21, 5),
    (holomorph_cyclic(5), 20, 5),
    (holomorph_cyclic(2), 2, 2),
    (m9(), 72, 6),
    (sl2(3), 24, 7),
    (sl2(5), 120, 9),
    (direct_product(symmetric(3), cyclic(2)), 12, 6),
    (symmetric(1), 1, 1),
    (alternating(1), 1, 1),
    (alternating(2), 1, 1),
    (alternating(3), 3, 3),
])
def test_builder_orders_and_class_numbers(defn, order, k):
    # ``build`` also holds the group to the definition's expected block.
    group = build(defn)
    assert group.order == order
    assert group.class_number() == k


def test_metacyclic_uses_small_degree_when_faithful():
    assert metacyclic(7, 3, 2).degree == 7
    # 2 has order 2 mod 3, so Z3 x| Z6 needs the regular action
    assert metacyclic(3, 6, 2).degree == 18
    assert build(metacyclic(3, 6, 2)).order == 18
    assert metacyclic(5, 1, 1).degree == 5     # n = 1: the trivial action
    assert metacyclic(5, 2, 1).degree == 10    # r = 1 has order 1, not 2
    assert metacyclic(9, 6, 2).degree == 9     # 2 has order exactly 6 mod 9
    # 2 has order 3 mod 7, a proper divisor of 6
    assert metacyclic(7, 6, 2).degree == 42


def test_invalid_builder_parameters():
    with pytest.raises(DefinitionError):
        metacyclic(7, 3, 3)  # 3^3 = 27 != 1 mod 7
    with pytest.raises(DefinitionError):
        metacyclic(6, 2, 2)  # r not a unit
    with pytest.raises(DefinitionError):
        dihedral(2)
    with pytest.raises(DefinitionError):
        quaternion_dicyclic(1)
    with pytest.raises(DefinitionError):
        sl2(2)
    with pytest.raises(DefinitionError):
        holomorph_cyclic(1)
    with pytest.raises(DefinitionError):
        abelian(1, 2)
    with pytest.raises(DefinitionError):
        cyclic(0)
    with pytest.raises(DefinitionError):
        symmetric(0)
    with pytest.raises(DefinitionError):
        alternating(0)
    with pytest.raises(DefinitionError):
        metacyclic(1, 2, 1)  # m < 2


def test_holomorph_generator_counts():
    # unit group of Z15 is not cyclic: needs two unit generators
    assert len(holomorph_cyclic(15).generators) == 3
    # 2 is the smallest primitive root mod 5
    assert len(holomorph_cyclic(5).generators) == 2
    assert build(holomorph_cyclic(9)).class_number() == 10


def test_expected_block_mismatch_fails_loudly():
    bad = cyclic(4)._replace(expected={"order": 5})
    with pytest.raises(DefinitionError):
        build(bad)
    bad = cyclic(4)._replace(expected={"order": 4, "class_number": 3})
    with pytest.raises(DefinitionError):
        build(bad)


# -- file format -------------------------------------------------------------------

def test_round_trip(tmp_path):
    defn = symmetric(4)
    path = tmp_path / "s4.json"
    save(defn, path)
    loaded = load(path)
    assert loaded == defn


def test_file_contents_are_stable(tmp_path):
    path = tmp_path / "z2.json"
    save(cyclic(2), path)
    doc = json.loads(path.read_text())
    assert doc == {
        "name": "Z2",
        "degree": 2,
        "generators": [[2, 1]],
        "expected": {"order": 2, "class_number": 2},
    }


@pytest.mark.parametrize("doc,fragment", [
    ({"name": "X", "degree": 3}, "missing field"),
    ({"name": "X", "degree": 3, "generators": [[1, 1, 2]]}, "generator 1"),
    ({"name": "X", "degree": 3, "generators": [[2, 1]]}, "degree"),
    ({"name": "", "degree": 3, "generators": []}, "name"),
    ({"name": "X", "degree": 0, "generators": []}, "degree"),
    ({"name": "X", "degree": 2, "generators": [[2, 1]],
      "expected": {"size": 2}}, "unknown expected"),
    ({"name": "X", "degree": 2, "generators": [[2, 1]],
      "expected": {"order": -1}}, "positive"),
    ([1, 2], "object"),
    ({"name": "X", "degree": 2, "generators": {"a": [2, 1]}},
     "'generators' must be a list"),
    ({"name": "X", "degree": 2, "generators": [[2, 1]], "expected": [2]},
     "'expected' must be an object"),
    ({"name": "X", "degree": 3, "generators": [[1, 3]]},
     "generator 1 has degree 2, expected 3"),
    ({"name": "X", "degree": 2, "generators": [[2, 1]],
      "expect": {"order": 4}}, "unknown keys ['expect']"),
])
def test_validation_diagnostics(doc, fragment):
    with pytest.raises(DefinitionError) as err:
        from_json_dict(doc)
    assert fragment in str(err.value)


def test_load_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DefinitionError) as err:
        load(path)
    assert "invalid JSON" in str(err.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(DefinitionError):
        load(tmp_path / "absent.json")


names = st.text(
    alphabet=st.sampled_from("ABCxyz123()_,"), min_size=1, max_size=12
)
definitions = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.builds(
        GroupDefinition,
        name=names,
        degree=st.just(n),
        generators=st.lists(
            st.permutations(list(range(1, n + 1))).map(list),
            min_size=0, max_size=3),
    )
)


@settings(max_examples=50, deadline=None)
@given(definitions, st.booleans())
def test_round_trip_random_definitions(tmp_path_factory, defn, with_expected):
    if with_expected:
        defn = defn._replace(expected={"order": build(defn).order})
    path = tmp_path_factory.mktemp("defs") / "g.json"
    save(defn, path)
    assert load(path) == defn


# -- shipped catalog -----------------------------------------------------------------

def test_shipped_catalog_shape(catalog_groups):
    defs = shipped_catalog()
    assert len(defs) == len(catalog_groups)
    assert len({d.name for d in defs}) == len(defs)
    for name, group in catalog_groups.items():
        assert group.order <= 120


def test_shipped_catalog_builds_with_expectations():
    # building asserts each expected block
    for defn in shipped_catalog():
        build(defn)


# The benchmark's frozen inputs, read only.
BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_shipped_catalog_matches_the_benchmark_inputs():
    # Each definition serializes to the bytes the benchmark was frozen with.
    frozen = json.loads((BENCH_DATA / "catalog.json").read_text("utf-8"))
    assert [defn.to_json_dict() for defn in shipped_catalog()] == frozen


# sha256 of each definition's JSON, pinned beyond the catalog's parameters.
PINNED = [
    (quaternion_dicyclic(5),
     "16c594447273ddfade7bb246f721e527b5c5c5dda3161887a77c2821b367c519"),
    (metacyclic(7, 6, 2),  # regular action, 42 points
     "21960fe3063408641075f3e20cd50dbef7d468939bfaa600b52421baa7fd47cd"),
    (metacyclic(9, 6, 2),  # faithful action, 9 points
     "34ecee6ead5cbd44fd14d403399d31136c12bbb6172bb2c9d99123d4606a2a68"),
    (metacyclic(5, 2, 1),
     "f08858c6a2917d45279ff1e275e2c36a573d3093118f6d2f0c183103e527be8e"),
    (sl2(7),
     "0d71a3cc2cce62bd07d8f8b403efe197b333f30173df561eb4428e67b4881fb3"),
    (sl2(11),
     "d4252fb6f94a366782b18bbe2450c331820ec1bf162cd8097212eab9b106e7a5"),
    (holomorph_cyclic(21),
     "dcdd5a4b8fcfb5a8a29c1e22fae92915206d6a069219619307405b30c60b6f71"),
]


@pytest.mark.parametrize("defn,digest", PINNED,
                         ids=[defn.name for defn, _ in PINNED])
def test_builders_serialize_to_pinned_bytes(defn, digest):
    raw = json.dumps(defn.to_json_dict()).encode()
    assert hashlib.sha256(raw).hexdigest() == digest


def test_ladder_inputs_are_the_named_builders():
    frozen = json.loads((BENCH_DATA / "ladder.json").read_text("utf-8"))
    assert frozen == [defn.to_json_dict() for defn in (
        symmetric(6), alternating(6), abelian(2, 2, 2, 2))]


def test_write_catalog(tmp_path):
    paths = write_catalog(tmp_path)
    assert len(paths) == len(shipped_catalog())
    assert all(p.exists() for p in paths)
    reloaded = sorted(load(p).name for p in paths)
    assert reloaded == sorted(d.name for d in shipped_catalog())


def test_slug():
    assert slug("Hol(Z15)") == "hol_z15"
    assert slug("SL(2,5)") == "sl_2_5"
    assert slug("Z2xZ4") == "z2xz4"
