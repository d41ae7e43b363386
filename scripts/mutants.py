#!/usr/bin/env python3
"""Mutation checks: each fast path must be caught by the tests that guard it.

Each entry of ``MUTANTS`` names a file under ``src/twistspec``, an exact
text that occurs once in it, the replacement, the test files that must
each fail once the edit is made, and why the edit is wrong.  The script
copies ``src/``, ``tests/``, ``scripts/``, ``perfbench/`` (whose frozen
inputs some tests read) and ``pyproject.toml`` to a temporary directory
and runs ``pytest -x -q`` on each listed file, once against the unmutated
copy (it must pass) and once with the edit made (it must fail).  A mutant
is killed when every one of its files fails.

    python3 scripts/mutants.py

runs every mutant, prints one line per mutant and exits 0 when every
mutant was killed, 1 when a file passed with the edit or failed without
it.  To re-aim one mutant, edit ``MUTANTS`` or run its test files by hand
on an edited copy.  A file takes 1-8 s, so the whole list takes a few
minutes; it is not part of the test suite, which only checks that each
text still occurs exactly once and that each mutated file compiles
(``tests/test_mutants.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str
    replacement: str
    tests: tuple[str, ...]
    reason: str


MUTANTS = [
    Mutant(
        "quotient-labels-shifted", "src/twistspec/group.py",
        "entry = self._quotients[members] = (sub, classes)",
        "entry = self._quotients[members] = (sub, classes._replace("
        "class_of=tuple(c and (c + 1) % classes.count "
        "for c in classes.class_of)))",
        ("tests/test_weighted_sweep.py", "tests/test_group_oracles.py"),
        "the classes of G/N outside N keep their members but lose their "
        "labels, so the count on G/N reads the wrong class of each image"),
    Mutant(
        "quotient-classes-unconjugated", "src/twistspec/group.py",
        "classes = self._normal_classes(sub.generators)",
        "classes = orbits(self.order, [*map(self.column, sub.generators)])",
        ("tests/test_weighted_sweep.py", "tests/test_group_oracles.py"),
        "the classes of G/N are built without conjugation, so every coset "
        "of N becomes a class of its own"),
    Mutant(
        "normal-closure-unconjugated", "src/twistspec/group.py",
        "[*seeded, *self._conjugation_columns()]",
        "seeded or self._conjugation_columns()",
        ("tests/test_group_oracles.py", "tests/test_structure_oracle.py"),
        "the partition builder conjugates only when it has no seeds, so a "
        "normal closure reads the subgroup its seeds generate"),
    Mutant(
        "quotient-identity-class-unchecked", "src/twistspec/group.py",
        "            if classes.sizes[0] != sub.order:\n",
        "            if False:\n",
        ("tests/test_tower_cache.py",),
        "a tower whose generators reach less than N, or an N that is not "
        "normal, goes unnoticed, so the classes of G/N come out finer or "
        "coarser than they are"),
    Mutant(
        "orbits-drops-last-map", "src/twistspec/group.py",
        "            for image in maps:\n",
        "            for image in maps[:-1]:\n",
        ("tests/test_orbits.py", "tests/test_twisted.py"),
        "the orbit loop skips the last map, so every orbit count in the "
        "package, conjugacy and twisted classes alike, comes out too fine"),
    Mutant(
        "battery-pass-drops-last-map", "src/twistspec/spectra.py",
        "group._twisted_maps(images))",
        "group._twisted_maps(images)[:-1])",
        ("tests/test_battery_oracle.py", "tests/test_weighted_sweep.py"),
        "the battery's orbit pass skips the last generator's twisted map, "
        "so its orbits are too small and R too large"),
    Mutant(
        "fixed-count-plus-one", "src/twistspec/twisted.py",
        "                   range(classes.count)))",
        "                   range(classes.count))) + 1",
        ("tests/test_spectra.py", "tests/test_battery_oracle.py"),
        "the fixed-class count is one too many for every endomorphism"),
    Mutant(
        "tower-one-squaring", "src/twistspec/morphism.py",
        "        table, zeros = squared, grown\n",
        "        table, zeros = squared, grown\n        break\n",
        ("tests/test_tower_cache.py", "tests/test_weighted_sweep.py"),
        "the kernel tower stops at ker phi^2, short of the union of the "
        "kernels when the chain is longer"),
    Mutant(
        "relative-order-minus-one", "src/twistspec/spectra.py",
        "value = group.order // (k_order * r)",
        "value = group.order // (k_order * max(r - 1, 1))",
        ("tests/test_abelian_count.py",),
        "the abelian count's last depth reads |<K, d>| as |K| (r - 1)"),
    Mutant(
        "closure-one-point-getter", "src/twistspec/group.py",
        "getters = [itemgetter(*g) if degree > 1 else tuple for g in "
        "generators]",
        "getters = [itemgetter(*g) for g in generators]",
        ("tests/test_closure_oracle.py", "tests/test_group_oracles.py"),
        "on one point an itemgetter returns the image, an int, so closure "
        "cannot build a group of degree 1"),
    Mutant(
        "product-one-point-guard", "src/twistspec/perm.py",
        "        if len(other) == 1:  # one point's itemgetter gives an int\n"
        "            return self\n",
        "",
        ("tests/test_perm.py", "tests/test_closure_oracle.py"),
        "p * q on one point wraps the int that itemgetter returns, so the "
        "product is no permutation"),
    Mutant(
        "inverses-skip-parent-inverse", "src/twistspec/group.py",
        "inv.append(rows[id(column)][inv[parent]])",
        "inv.append(rows[id(column)][parent])",
        ("tests/test_group_oracles.py", "tests/test_random_groups.py"),
        "x = p * s gets s^-1 * p as its inverse instead of s^-1 * p^-1"),
    Mutant(
        "element-order-longest-cycle", "src/twistspec/group.py",
        "orders = [self.elements[r].order() for r in reps]",
        "orders = [max(map(len, self.elements[r].cycles()), default=1) "
        "for r in reps]",
        ("tests/test_group_oracles.py", "tests/test_random_groups.py"),
        "an element's order is read as its longest cycle, not the lcm of "
        "its cycle lengths"),
    Mutant(
        "sign-any-even-cycle", "src/twistspec/group.py",
        "return any(sum(len(c) % 2 == 0 for c in g.cycles()) % 2\n",
        "return any(any(len(c) % 2 == 0 for c in g.cycles())\n",
        ("tests/test_group.py", "tests/test_structure_oracle.py"),
        "a generator with an even number of even-length cycles (SL(2,5)'s "
        "rotation has six 4-cycles) is read as odd, so a perfect group is "
        "not"),
    Mutant(
        "class-equation-base-without-n", "src/twistspec/group.py",
        "base = sub.order + sum(sizes[c] for c in seeded)",
        "base = sum(sizes[c] for c in seeded)",
        ("tests/test_structure_oracle.py", "tests/test_group_oracles.py"),
        "the class equation leaves N's classes out of |M|, so the orders "
        "it reaches are |N| too small and it misses proper normal "
        "subgroups: F21, F55 and M9 read as perfect"),
    Mutant(
        "class-equation-divisors-not-multiples", "src/twistspec/group.py",
        "if d % sub.order == 0 and base <= d < n]",
        "if d % sub.order and base <= d < n]",
        ("tests/test_structure_oracle.py", "tests/test_group.py"),
        "the proper divisors that |M| could be omit the multiples of |N|, "
        "which are the only ones it can be, so every seed generates G"),
    Mutant(
        "center-certificate-any-class", "src/twistspec/group.py",
        "any(size == 1 and sub.order * orders[x] < n",
        "any(sub.order * orders[x] < n",
        ("tests/test_structure_oracle.py", "tests/test_group.py"),
        "N<x> is read as the normal closure of every x, not only of a "
        "central one, so no group with an element of order below |G| is "
        "simple"),
    Mutant(
        "nilpotent-order-divides-p", "src/twistspec/group.py",
        "sum(part % o == 0 for o in orders) != part",
        "sum(p % o == 0 for o in orders) != part",
        ("tests/test_group_oracles.py", "tests/test_random_groups.py"),
        "the Sylow count takes the elements of order dividing p, not "
        "|G|_p, so a p-group with an element of order p^2 is not "
        "nilpotent"),
    Mutant(
        "simple-prime-rule-squares", "src/twistspec/group.py",
        "n % d for d in range(2, isqrt(n) + 1))",
        "n % d for d in range(2, isqrt(n)))",
        ("tests/test_group_oracles.py", "tests/test_random_groups.py"),
        "the prime test stops below isqrt(n), so an abelian group of order "
        "p^2 is simple"),
    Mutant(
        "abelian-every-candidate-bijective", "src/twistspec/spectra.py",
        "if r == orders[last])",
        "if r >= 1)",
        ("tests/test_abelian_count.py", "tests/test_random_groups.py"),
        "the abelian count's bijectivity mask keeps every candidate of the "
        "last pool, so endomorphisms that are not onto count in the "
        "spectrum"),
    Mutant(
        "search-no-orbit-minimum", "src/twistspec/morphism.py",
        "kept = [(x, sizes[class_of[x]]) for x in pools[depth]\n"
        "                    if reps[class_of[x]] == x]",
        "kept = [(x, sizes[class_of[x]]) for x in pools[depth]]",
        ("tests/test_weighted_sweep.py", "tests/test_spectra.py"),
        "the search keeps every image of an orbit, each with the orbit's "
        "size as its weight, so each Inn(G)-orbit counts many times"),
    Mutant(
        "search-weight-without-last-orbit", "src/twistspec/morphism.py",
        "yield table, weight * size, bijective",
        "yield table, weight, bijective",
        ("tests/test_weighted_sweep.py", "tests/test_spectra.py"),
        "the last generator's orbit size is left out of the weight, so "
        "the weights no longer sum to |End| or |Aut|"),
    Mutant(
        "tower-preimage-unchecked", "src/twistspec/morphism.py",
        "    if tuple(map(flags.__getitem__, table)) != flags:\n",
        "    if False:\n",
        ("tests/test_tower_cache.py", "tests/test_twisted.py"),
        "a tower that phi does not keep, or whose preimage under phi is "
        "larger than itself, goes unnoticed, so the count on G/N is that "
        "of no map or of a map that is not injective"),
    Mutant(
        "tower-invariance-unchecked", "src/twistspec/morphism.py",
        "    if tuple(map(flags.__getitem__, table)) != flags:\n",
        "    if sum(map(flags.__getitem__, table)) != sum(flags):\n",
        ("tests/test_tower_cache.py",),
        "the preimage check only asks that |phi^-1(N)| = |N|, so a tower "
        "that phi does not keep goes unnoticed, and phi induces no map on "
        "G/N"),
    Mutant(
        "quotient-preimage-unchecked", "src/twistspec/morphism.py",
        "    if tuple(map(flags.__getitem__, table)) != flags:\n",
        "    if any(f > flags[t] for t, f in zip(table, flags)):\n",
        ("tests/test_tower_cache.py", "tests/test_twisted.py"),
        "the preimage check only asks that phi keep N, so a tower whose "
        "preimage under phi is larger than itself goes unnoticed, and the "
        "count on G/N is that of a map that is not injective"),
    Mutant(
        "quotient-class-of-unmapped-rep", "src/twistspec/twisted.py",
        "mapping = [class_of[table[r]] for r in classes.representatives]",
        "mapping = [class_of[r] for r in classes.representatives]",
        ("tests/test_weighted_sweep.py", "tests/test_twisted.py"),
        "each class is read as the class of its own representative, not of "
        "its image, so every class, of G or of G/N, reads as fixed"),
    Mutant(
        "battery-identity-from-last-orbit", "src/twistspec/spectra.py",
        "twisted.count, twisted.identity_class_size()",
        "twisted.count, twisted.sizes[-1]",
        ("tests/test_battery_oracle.py", "tests/test_random_groups.py"),
        "the identity's twisted class is read from the last orbit found, "
        "not the first, which holds the identity"),
    Mutant(
        "once-recomputes", "src/twistspec/group.py",
        "            setattr(self, key, value)\n",
        "",
        ("tests/test_group.py",),
        "a cached accessor keeps nothing and recomputes on every call, so "
        "the structure flags build their normal closures again"),
    Mutant(
        "morphism-checks-generator-images-only", "src/twistspec/morphism.py",
        "_extension(group, images) != list(table)",
        "_extension(group, images) is None",
        ("tests/test_morphisms.py",),
        "a table whose generator images extend is accepted whatever its "
        "other entries, so a table that breaks the law passes as a "
        "Morphism"),
    Mutant(
        "extend-no-injectivity-prune", "src/twistspec/morphism.py",
        "            if injective and t == 0:\n"
        "                return False\n",
        "",
        ("tests/test_weighted_sweep.py", "tests/test_spectra.py"),
        "the automorphism search keeps candidates that map a non-identity "
        "element to the identity, so it reaches non-bijective tables"),
    Mutant(
        "aut-pools-any-class-size", "src/twistspec/morphism.py",
        "if orders[x] == orders[g] and size[x] == size[g]]",
        "if orders[x] == orders[g]]",
        ("tests/test_live_fold.py",),
        "the automorphism pools keep elements of the wrong class size; "
        "the answers stand, but the search tries and charges candidates "
        "no automorphism can take"),
    Mutant(
        "subgroup-adjoin-unmasked", "src/twistspec/group.py",
        "self._adjoin(found, reached, columns, self.column(y), flags)",
        "self._adjoin(found, reached, columns, self.column(y))",
        ("tests/test_group.py", "tests/test_group_oracles.py"),
        "subgroup() closes the given set without checking that products "
        "stay inside it, so a set that is no subgroup is accepted"),
    Mutant(
        "battery-pass-uncharged", "src/twistspec/spectra.py",
        "pass_cost = group.order * len(gens)",
        "pass_cost = 0",
        ("tests/test_battery_oracle.py", "tests/test_cli.py"),
        "the battery's orbit passes charge nothing, so the product budget "
        "no longer bounds verify"),
    Mutant(
        "abelian-scan-without-full-order-growth", "src/twistspec/group.py",
        "full = len(grown) == len(found) * orders[cand]",
        "full = True",
        ("tests/test_group_oracles.py", "tests/test_abelian_count.py"),
        "the scan accepts a candidate that meets the closure of the chosen "
        "elements, so an abelian group's search generators can be "
        "dependent and the abelian count's pools are wrong"),
    Mutant(
        "abelian-keeps-dependent-declared", "src/twistspec/group.py",
        "prod(map(self.element_order, declared)) == self.order if abelian",
        "True if abelian",
        ("tests/test_group_oracles.py", "tests/test_abelian_count.py"),
        "an abelian group keeps its declared generators even when they are "
        "dependent, so the abelian count runs on a set that is no basis"),
    Mutant(
        "search-phase-before-scan", "src/twistspec/morphism.py",
        "    gens = group.small_generating_set(tracker)\n"
        "    tracker.phase = phase or (_AUT_SWEEP if automorphisms else "
        "_END_SWEEP)\n",
        "    tracker.phase = phase or (_AUT_SWEEP if automorphisms else "
        "_END_SWEEP)\n"
        "    gens = group.small_generating_set(tracker)\n",
        ("tests/test_live_fold.py", "tests/test_cli.py"),
        "the search names its phase before the scan, which renames it, so "
        "a sweep that runs out blames the generating-set scan"),
    Mutant(
        "search-names-every-sweep-the-end-sweep", "src/twistspec/morphism.py",
        "phase or (_AUT_SWEEP if automorphisms else _END_SWEEP)",
        "phase or _END_SWEEP",
        ("tests/test_live_fold.py", "tests/test_cli.py"),
        "the search derives its phase without reading automorphisms, so an "
        "Aut sweep that runs out blames the End sweep"),
    Mutant(
        "battery-search-in-end-sweep-phase", "src/twistspec/spectra.py",
        "_search(group, False, tracker,\n"
        "                                               \"the battery\")",
        "_search(group, False, tracker)",
        ("tests/test_cli.py", "tests/test_spectra.py"),
        "the battery passes no phase, so its sweep runs in the End sweep's "
        "phase and its budget errors blame the End sweep"),
    Mutant(
        "battery-parity-unchecked", "src/twistspec/spectra.py",
        "        if value % 2 == 0:\n",
        "        if False:\n",
        ("tests/test_spectra.py",),
        "an even count in an odd-order group is never reported, so "
        "odd-order-parity passes whatever R reads"),
    Mutant(
        "battery-spectrum-k-minus-1-unchecked", "src/twistspec/spectra.py",
        "            if automorphism:\n"
        "                fail(\"spectrum-excludes-k-minus-1\",",
        "            if False:\n"
        "                fail(\"spectrum-excludes-k-minus-1\",",
        ("tests/test_spectra.py",),
        "an automorphism with R = k - 1 is never reported, so "
        "spectrum-excludes-k-minus-1 passes whatever the spectrum holds"),
    Mutant(
        "battery-extended-k-minus-1-unchecked", "src/twistspec/spectra.py",
        "            fail(\"extended-excludes-k-minus-1\",",
        "            None and fail(\"extended-excludes-k-minus-1\",",
        ("tests/test_spectra.py",),
        "an endomorphism with R = k - 1 is never reported, so "
        "extended-excludes-k-minus-1 passes whatever the extended spectrum "
        "holds"),
    Mutant(
        "battery-dichotomy-unchecked", "src/twistspec/spectra.py",
        "        if not automorphism and any(images):\n",
        "        if False:\n",
        ("tests/test_spectra.py",),
        "a map of a quasisimple group that is neither trivial nor bijective "
        "is never reported, so quasisimple-dichotomy always passes"),
    Mutant(
        "spectrum-reads-the-extended-counter", "src/twistspec/spectra.py",
        "_fold(group, True, _Budget(budget))[0]",
        "_fold(group, True, _Budget(budget))[1]",
        ("tests/test_spectra.py",),
        "spectrum() reads the fold's second counter, which an abelian "
        "group's count fills with End(G)'s, so Z2xZ2's spectrum counts "
        "all 16 endomorphisms"),
    Mutant(
        "battery-quotient-uncharged", "src/twistspec/spectra.py",
        "            tracker.charge(group.order)\n"
        "            if _quotient_count(group, table) != fixed_count:",
        "            if _quotient_count(group, table) != fixed_count:",
        ("tests/test_battery_oracle.py", "tests/test_cli.py"),
        "the battery's quotient counts charge nothing, so their squarings "
        "of phi's table run outside the product budget"),
    Mutant(
        "action-rows-zero-based", "src/twistspec/catalog.py",
        "index[fn(p)] + 1", "index[fn(p)]",
        ("tests/test_catalog.py",),
        "the point actions write 0-based rows, so every builder's generators "
        "name the wrong points and fail to load"),
    Mutant(
        "metacyclic-order-skips-one", "src/twistspec/catalog.py",
        "if all(pow(r, d, m) != 1 for d in range(1, n)):",
        "if all(pow(r, d, m) != 1 for d in range(2, n)):",
        ("tests/test_catalog.py",),
        "the faithful-action test skips r^1, so r = 1 with n = 2 takes the "
        "action on m points, which is not faithful"),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(source, dest / name)


def _passes(copy: Path, test: str) -> bool:
    """True when ``pytest -x -q`` passes the file ``test`` of ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         test], cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def run(mutant: Mutant, workdir: Path, clean: dict[str, bool]) -> str:
    """'killed', or the files that fail unmutated or pass mutated.
    ``clean`` caches each file's verdict on the unmutated copy, which is
    ``workdir / "clean"``."""
    for test in mutant.tests:
        if test not in clean:
            clean[test] = _passes(workdir / "clean", test)
    broken = [test for test in mutant.tests if not clean[test]]
    if broken:
        return "FAILS UNMUTATED " + " ".join(broken)
    copy = workdir / mutant.name
    _copy(copy)
    target = copy / mutant.path
    source = target.read_text(encoding="utf-8")
    if source.count(mutant.text) != 1:
        raise SystemExit(f"{mutant.name}: text does not occur exactly once "
                         f"in {mutant.path}")
    target.write_text(source.replace(mutant.text, mutant.replacement),
                      encoding="utf-8")
    survived = [test for test in mutant.tests if _passes(copy, test)]
    return "SURVIVED " + " ".join(survived) if survived else "killed"


def main() -> int:
    ok = True
    clean: dict[str, bool] = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        _copy(Path(workdir) / "clean")
        for mutant in MUTANTS:
            verdict = run(mutant, Path(workdir), clean)
            ok = ok and verdict == "killed"
            print(f"{mutant.name}: {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
