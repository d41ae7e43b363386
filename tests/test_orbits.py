"""``group.orbits``, the one orbit loop behind every class count in the
package, against a union-find oracle.

Hypothesis draws up to three permutations of ``range(n)``, n <= 40, each
moving a drawn set of points, and repeats some of them.  The orbits of the
group they generate are the connected components of the graph with an
edge from each x to its image under each map, which union-find joins
without a breadth-first search.  ``orbits`` must give the same label to
each point, number the orbits by their smallest members in ascending
order, with those minima as representatives, and give the same sizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from twistspec.group import orbits


def union_find_orbits(size, maps):
    """(class_of, representatives, sizes), the components of x ~ m[x]
    joined by union-find and numbered by their smallest members."""
    parent = list(range(size))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for image in maps:
        for x, y in enumerate(image):
            parent[root(x)] = root(y)
    label, class_of, reps, sizes = {}, [], [], []
    for x in range(size):
        r = root(x)
        if r not in label:
            label[r] = len(reps)
            reps.append(x)
            sizes.append(0)
        class_of.append(label[r])
        sizes[label[r]] += 1
    return tuple(class_of), tuple(reps), tuple(sizes)


@st.composite
def permutation_lists(draw):
    """A size n and 0-3 permutations of ``range(n)``, drawn from a pool of
    up to three, so a map may repeat; each moves a drawn set of points."""
    size = draw(st.integers(1, 40))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        moved = draw(st.lists(st.integers(0, size - 1), unique=True))
        image = list(range(size))
        for x, y in zip(moved, draw(st.permutations(moved))):
            image[x] = y
        pool.append(image)
    maps = draw(st.lists(st.sampled_from(pool), max_size=3))
    return size, maps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(permutation_lists())
def test_orbits_match_union_find(drawn):
    size, maps = drawn
    partition = orbits(size, maps)
    class_of, reps, sizes = union_find_orbits(size, maps)
    assert partition.class_of == class_of
    assert partition.representatives == reps
    assert partition.sizes == sizes
    assert partition.class_of[0] == 0
