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
text still occurs exactly once (``tests/test_mutants.py``).
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
        "entry = self._cosets[members] = (sub, cosets, classes)",
        "entry = self._cosets[members] = (sub, cosets, classes._replace("
        "class_of=tuple((c + 1) % classes.count for c in classes.class_of)))",
        ("tests/test_weighted_sweep.py", "tests/test_group_oracles.py"),
        "the classes of G/N keep their members but lose their labels, so "
        "the count on G/N reads the wrong class of each image"),
    Mutant(
        "quotient-classes-unconjugated", "src/twistspec/group.py",
        "[label[conj[r]] for r in reps]",
        "[label[r] for r in reps]",
        ("tests/test_weighted_sweep.py", "tests/test_group_oracles.py"),
        "every coset of N becomes a class of G/N of its own"),
    Mutant(
        "twisted-pass-drops-last-map", "src/twistspec/twisted.py",
        "            for image in maps:\n",
        "            for image in maps[:-1]:\n",
        ("tests/test_battery_oracle.py", "tests/test_weighted_sweep.py"),
        "the orbit pass skips the last generator's twisted map, so its "
        "orbits are too small and R too large"),
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
        "tower-invariance-unchecked", "src/twistspec/morphism.py",
        "    if not all(flags[table[x]] for x in sub.indices):\n",
        "    if False:\n",
        ("tests/test_tower_cache.py",),
        "a tower that phi does not keep goes unnoticed, and phi induces "
        "no map on G/N"),
    Mutant(
        "quotient-preimage-unchecked", "src/twistspec/twisted.py",
        "    if sum(map(tower.member_flags.__getitem__, table)) != "
        "tower.order:\n",
        "    if False:\n",
        ("tests/test_tower_cache.py", "tests/test_twisted.py"),
        "a tower whose preimage under phi is larger than itself goes "
        "unnoticed, so the count on G/N is that of a map that is not "
        "injective"),
    Mutant(
        "quotient-class-of-unmapped-rep", "src/twistspec/twisted.py",
        "label[table[reps[r]]]",
        "label[reps[r]]",
        ("tests/test_weighted_sweep.py", "tests/test_twisted.py"),
        "the count on G/N reads each representative's own coset, not its "
        "image's, so every class of G/N reads as fixed"),
    Mutant(
        "twisted-pass-identity-from-last-orbit", "src/twistspec/twisted.py",
        "return len(sizes), sizes[0]",
        "return len(sizes), sizes[-1]",
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
