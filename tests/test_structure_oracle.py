"""``structure_flags`` against ``oracles.structure_flags_by_closures``.

The flags read certificates the group already holds (the sign of a
generator, nilpotency, the centre, the class equation) before any normal
closure; the oracle decides them by normal closures alone.  They must agree
on the benchmark's input sets, the shipped catalog and S6, A6 and Z2^4,
under seeds 0-3 (a seed other than 0 draws new generators, so the signs and
the commutators that the certificates read change); on groups beyond the
catalog, simple, quasisimple and neither; and, in ``test_random_groups``,
on every draw of the three Hypothesis strategies.
"""

import importlib.util
from pathlib import Path

import pytest

import oracles
from test_psl2 import PRIMES, psl2
from twistspec.catalog import (GroupDefinition, alternating, build,
                               direct_product, from_json_dict, sl2, symmetric)

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "bench_inputs", ROOT / "perfbench" / "inputs.py")
BENCH_INPUTS = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(BENCH_INPUTS)

SEEDED = [(set_name, seed, doc) for set_name in ("catalog", "ladder")
          for seed in range(4)
          for doc in BENCH_INPUTS.seeded_definitions(set_name, seed)]

# M11 on 11 points, from the ATLAS generators.
M11 = GroupDefinition("M11", 11, [
    [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1],
    [1, 2, 7, 10, 6, 4, 11, 3, 9, 5, 8]], {"order": 7920})

# name: (definition, perfect, simple, quasisimple)
BEYOND = {
    "A7": (alternating(7), True, True, True),
    "S7": (symmetric(7), False, False, False),
    "M11": (M11, True, True, True),
    "SL(2,7)": (sl2(7), True, False, True),
    "SL(2,13)": (sl2(13), True, False, True),
    **{f"PSL(2,{p})": (psl2(p), True, True, True) for p in PRIMES},
    "A5xA5": (direct_product(alternating(5), alternating(5)),
              True, False, False),
    "SL(2,5)xA5": (direct_product(sl2(5), alternating(5)),
                   True, False, False),
}


@pytest.mark.parametrize("set_name, seed, doc", SEEDED,
                         ids=[f"{s}-{seed}-{doc['name']}"
                              for s, seed, doc in SEEDED])
def test_seeded_benchmark_inputs(set_name, seed, doc):
    oracles.assert_structure_flags(build(from_json_dict(doc)))


@pytest.mark.parametrize("name", BEYOND)
def test_groups_beyond_the_catalog(name):
    defn, perfect, simple, quasisimple = BEYOND[name]
    group = build(defn)
    assert group.order == defn.expected["order"]
    flags = oracles.assert_structure_flags(group)
    assert (flags["perfect"], flags["simple"], flags["quasisimple"]) == (
        perfect, simple, quasisimple)
