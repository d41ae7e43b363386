"""SL(2,p) on the p^2 - 1 nonzero vectors of F_p^2, checked against
classical facts rather than recorded outputs.

For an odd prime p: k = p + 4 classes; SL(2,p) is quasisimple with centre
{+-1}, so its endomorphisms are trivial or bijective and |End| = |Aut| + 1;
Aut(SL(2,p)) = PGL(2,p) has order |SL(2,p)| = p(p^2 - 1), and the
diagonal automorphisms fuse half of it into the count p, so the spectrum is
{p, p + 4} with equal multiplicities.  ``catalog.sl2`` ships only p = 3
and p = 5.
"""

import pytest

from twistspec.catalog import build, shipped_catalog, sl2
from twistspec.errors import DefinitionError
from twistspec.spectra import classify


@pytest.mark.parametrize("p", (7, 11, 13, 19))
def test_sl2_spectra(p):
    group = build(sl2(p))
    n = p * (p * p - 1)
    assert (group.order, group.class_number()) == (n, p + 4)
    report = classify(group)
    assert report.flags["quasisimple"] and not report.flags["simple"]
    assert report.spectrum == {p: n // 2, p + 4: n // 2}
    assert report.aut_count == n
    assert report.end_count == n + 1
    assert report.extended_spectrum == {1: 1, **report.spectrum}


@pytest.mark.parametrize("p", (2, 1, 0, -3, 4, 9, 15, 25))
def test_sl2_needs_an_odd_prime(p):
    # SL(2,2) is S3, with 3 classes rather than p + 4.
    with pytest.raises(DefinitionError, match="odd prime"):
        sl2(p)


def test_only_small_sl2_is_shipped():
    assert [d.name for d in shipped_catalog()
            if d.name.startswith("SL")] == ["SL(2,3)", "SL(2,5)"]
