"""PSL(2,p) on the p + 1 points of the projective line, checked against
classical facts rather than recorded outputs.

For an odd prime p >= 5: k = (p + 5) / 2 classes; Aut(PSL(2,p)) = PGL(2,p)
has order p(p^2 - 1); the diagonal automorphism fuses the two unipotent
classes, so the spectrum is {k - 2, k}; a simple group's endomorphisms are
trivial or bijective, so |End| = |Aut| + 1 and the extended spectrum adds 1
once.  These groups stay out of ``shipped_catalog()``.
"""

import pytest

from twistspec.catalog import GroupDefinition, build, save, shipped_catalog
from twistspec.cli import main
from twistspec.spectra import classify

PRIMES = (7, 11, 13)


def psl2(p):
    """PSL(2,p) generated by x -> x + 1 and x -> -1/x, on the points
    0, ..., p - 1 and infinity (point p)."""
    infinity = p

    def row(image):
        return [image(x) + 1 for x in range(p + 1)]

    translation = row(lambda x: x if x == infinity else (x + 1) % p)
    inversion = row(lambda x: infinity if x == 0 else 0 if x == infinity
                    else -pow(x, -1, p) % p)
    return GroupDefinition(f"PSL(2,{p})", p + 1, [translation, inversion],
                           {"order": p * (p * p - 1) // 2})


@pytest.mark.parametrize("p", PRIMES)
def test_psl2_spectra(p):
    group = build(psl2(p))
    k = (p + 5) // 2
    assert group.class_number() == k
    report = classify(group)
    assert report.flags["simple"] and report.flags["quasisimple"]
    assert report.aut_count == p * (p * p - 1)
    assert report.out_order == 2
    assert set(report.spectrum) == {k - 2, k}
    assert report.end_count == report.aut_count + 1
    assert report.extended_spectrum == {1: 1, **report.spectrum}


@pytest.mark.parametrize("p", PRIMES)
def test_psl2_verify_passes(p, tmp_path, capsys):
    path = tmp_path / "psl.json"
    save(psl2(p), path)
    assert main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    name = f"PSL(2,{p})"
    assert lines == [f"PASS  {name}  {check}" for check in (
        "orbit-vs-fixed-classes", "orbit-stabiliser-identity",
        "reduction-to-injective", "spectrum-excludes-k-minus-1",
        "extended-excludes-k-minus-1", "quasisimple-dichotomy")]


def test_psl2_is_not_shipped():
    assert not any(d.name.startswith("PSL") for d in shipped_catalog())
