"""Seeded group-definition inputs for the benchmark workloads.

The base definitions are frozen in ``data/`` (written from the shipped
catalog by ``make_golden.py``), so a change to the program's catalog builders
does not silently change what the benchmark measures.

Seed 0 keeps the stored generators.  Any other seed replaces each group's
generators with a random generating set of the same size, drawn from the
seed.  Each new generator is drawn from the elements with the same order and
the same conjugacy-class size as the generator it replaces, so the group,
every checked answer and the sizes of the morphism search pools stay the
same, while the element numbering (breadth-first from the generators)
changes.  This module does its own permutation arithmetic and never imports
the program under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0
MAX_DRAWS = 2000


def load_definitions(set_name: str) -> list[dict]:
    """The stored definition documents of one input set (a JSON list)."""
    return json.loads((DATA / f"{set_name}.json").read_text(encoding="utf-8"))


def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[x] for x in q)


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _closure(gens: list[tuple]) -> list[tuple]:
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    elements = [identity]
    for p in elements:
        for g in gens:
            q = _compose(p, g)
            if q not in seen:
                seen.add(q)
                elements.append(q)
    return elements


def _order(p: tuple) -> int:
    n, acc, identity = 1, p, tuple(range(len(p)))
    while acc != identity:
        acc = _compose(acc, p)
        n += 1
    return n


def _class_sizes(elements: list[tuple], gens: list[tuple]) -> dict[tuple, int]:
    """Conjugacy-class size of every element: orbits of conjugation by gens."""
    inverses = [_inverse(g) for g in gens]
    size_of: dict[tuple, int] = {}
    for start in elements:
        if start in size_of:
            continue
        orbit = [start]
        members = {start}
        for x in orbit:
            for g, g_inv in zip(gens, inverses):
                y = _compose(_compose(g, x), g_inv)
                if y not in members:
                    members.add(y)
                    orbit.append(y)
        for x in orbit:
            size_of[x] = len(orbit)
    return size_of


def _reseed(doc: dict, rng: random.Random) -> dict:
    gens = [tuple(x - 1 for x in row) for row in doc["generators"]]
    if not gens:
        return doc
    elements = _closure(gens)
    sizes = _class_sizes(elements, gens)

    def kind(p: tuple) -> tuple[int, int]:
        return _order(p), sizes[p]

    kinds = {p: kind(p) for p in elements}
    pools = [[p for p in elements if kinds[p] == kinds[g]] for g in gens]
    for _ in range(MAX_DRAWS):
        draw = [rng.choice(pool) for pool in pools]
        if len(set(draw)) == len(draw) and len(_closure(draw)) == len(elements):
            break
    else:
        raise RuntimeError(f"no random generating set found for {doc['name']}")
    return {**doc, "generators": [[x + 1 for x in p] for p in draw]}


def seeded_definitions(set_name: str, seed: int) -> list[dict]:
    """The definitions of ``set_name`` with generators chosen by ``seed``."""
    docs = load_definitions(set_name)
    if seed == DEFAULT_SEED:
        return docs
    return [_reseed(doc, random.Random(f"{seed}:{doc['name']}")) for doc in docs]
