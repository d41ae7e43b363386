"""Slow reference definitions for the group layer, all quadratic in |G|.

Every answer here is computed from a product table built by composing
permutations (``idx[p * q]``), so none of it shares code with the
generator-action algorithms in ``twistspec``.  The suites compare the fast
paths with these on small groups.
"""

from __future__ import annotations


def product_table(group):
    """``table[i][j]`` is the index of ``elements[i] * elements[j]``."""
    idx = group.index_of
    return [[idx(p * q) for q in group.elements] for p in group.elements]


def inverses(table):
    return [row.index(0) for row in table]


def closure(table, seeds):
    """Indices of the subgroup generated by ``seeds``, sorted."""
    members = {0}
    frontier = {0}
    while frontier:
        frontier = {table[x][s] for x in frontier for s in seeds} - members
        members |= frontier
    return sorted(members)


def conjugacy_classes(table):
    """(class_of, representatives, sizes), conjugating by every element and
    numbering classes by their smallest member."""
    return twisted_classes(table, range(len(table)))


def center(table):
    n = len(table)
    return [i for i in range(n)
            if all(table[i][j] == table[j][i] for j in range(n))]


def commutator_subgroup(table, left, right):
    """The subgroup generated by ``[a, b]`` for all ``a`` in ``left`` and
    ``b`` in ``right``, as ``(ab)(ba)^-1``."""
    inv = inverses(table)
    return closure(table, {table[table[a][b]][inv[table[b][a]]]
                           for a in left for b in right})


def derived_subgroup(table):
    everything = range(len(table))
    return commutator_subgroup(table, everything, everything)


def is_nilpotent(table):
    """The lower central series, each term from all pairs, reaches 1."""
    everything = list(range(len(table)))
    current = everything
    while len(current) > 1:
        nxt = commutator_subgroup(table, everything, current)
        if len(nxt) == len(current):
            return False
        current = nxt
    return True


def is_simple(table, classes):
    """Every nontrivial class generates the whole group."""
    class_of, reps, _ = classes
    n = len(table)
    return n > 1 and all(
        len(closure(table, [x for x in range(n) if class_of[x] == c])) == n
        for c in range(1, len(reps)))


def is_subgroup(table, members):
    """Identity, inverses and every product of two members."""
    flags = set(members)
    inv = inverses(table)
    return (0 in flags and all(inv[a] in flags for a in flags)
            and all(table[a][b] in flags for a in flags for b in flags))


def twisted_classes(table, phi):
    """(class_of, representatives, sizes) of ``g ~ h g phi(h)^-1``, sweeping
    every ``h`` and numbering classes by their smallest member."""
    n = len(table)
    inv = inverses(table)
    class_of = [-1] * n
    reps, sizes = [], []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        reps.append(g)
        orbit = {table[table[h][g]][inv[phi[h]]] for h in range(n)}
        for c in orbit:
            class_of[c] = len(reps) - 1
        sizes.append(len(orbit))
    return class_of, reps, sizes


def left_cosets(table, members):
    """(coset_of, representatives): ``e`` starts a coset ``{e x : x in H}``
    unless an earlier one holds it."""
    n = len(table)
    coset_of = [-1] * n
    reps = []
    for e in range(n):
        if coset_of[e] < 0:
            reps.append(e)
            for x in members:
                coset_of[table[e][x]] = len(reps) - 1
    return coset_of, reps


def coset_permutations(table, members):
    """Each element's action on the left cosets of a normal subgroup:
    ``perm[e][i]`` is the coset of ``e * reps[i]``."""
    coset_of, reps = left_cosets(table, members)
    return [tuple(coset_of[row[r]] for r in reps) for row in table]


def inner_automorphism(table, c):
    """``g -> c g c^-1`` as an index table."""
    inv = inverses(table)
    return [table[table[c][g]][inv[c]] for g in range(len(table))]
