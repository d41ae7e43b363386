"""Every command on groups beyond the catalog, each sweep under a small budget.

S7, A7, SL(2,13), D8 x Z2 x Z2 (order 64) and Z2^12 from its 12 generators
run through ``info``, and through ``spectrum``, ``spectrum --extended`` and
``verify`` with ``--budget 100000``.  Each must answer (exit 0) or stop at
the budget (exit 2) within a few seconds: the resource contract bounds the
work of every command.  Z2^12 declared with one redundant generator must
scan for a basis, and that scan, out of budget, fails the command and is
not run again.  None of these groups is in ``shipped_catalog()``.
"""

import time

import pytest

from twistspec.catalog import (abelian, alternating, dihedral,
                               direct_product, save, shipped_catalog,
                               sl2, symmetric)
from twistspec.cli import main
from twistspec.group import FiniteGroup

RUNGS = [symmetric(7), alternating(7), sl2(13),
         direct_product(dihedral(8), abelian(2, 2)), abelian(*[2] * 12)]
BUDGET = ["--budget", "100000"]
# info takes no budget: the order cap bounds its work.
COMMANDS = [["info"], ["spectrum", *BUDGET],
            ["spectrum", "--extended", *BUDGET], ["verify", *BUDGET]]
# Seconds allowed per command; every rung takes well under 1 s.
TIME_LIMIT = 3.0


@pytest.mark.parametrize("defn", RUNGS, ids=lambda defn: defn.name)
def test_every_command_answers_or_stops_at_the_budget(defn, tmp_path,
                                                      capsys):
    path = tmp_path / "group.json"
    save(defn, path)
    for command in COMMANDS:
        start = time.perf_counter()
        code = main([*command, str(path)])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code in (0, 2), (command, code)
        assert elapsed < TIME_LIMIT, (command, elapsed)


def test_rungs_are_not_shipped():
    names = {d.name for d in shipped_catalog()}
    assert not names & {d.name for d in RUNGS}


def test_an_exhausted_generating_set_scan_runs_once(tmp_path, monkeypatch,
                                                    capsys):
    """Z2^12 from its 12 generators and the product of the first two is
    not declared by a basis, so the search generators come from the scan,
    which runs out of budget.  The error fails the command; the Aut fold
    must not start the same scan again."""
    scans = []
    derive = FiniteGroup._derive_small_gens

    def spied(self, tracker):
        scans.append(self.order)
        return derive(self, tracker)

    monkeypatch.setattr(FiniteGroup, "_derive_small_gens", spied)
    defn = abelian(*[2] * 12)
    first, second = defn.permutations()[:2]
    defn = defn._replace(generators=[*defn.generators,
                                     (first * second).to_one_based()])
    path = tmp_path / "group.json"
    save(defn, path)
    assert main(["spectrum", str(path), "--extended",
                 "--budget", "100000"]) == 2
    assert capsys.readouterr().err == (
        "error: product budget 100000 exceeded in the generating-set scan\n")
    assert scans == [2 ** 12]
