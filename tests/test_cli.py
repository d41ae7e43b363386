import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistspec
from twistspec import catalog
from twistspec.cli import main
from twistspec.errors import NotAHomomorphism, TwistspecError
from twistspec.catalog import (cyclic, m9, quaternion_dicyclic, save,
                               symmetric)


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    return str(path)


@pytest.fixture()
def small_dir(tmp_path):
    directory = tmp_path / "groups"
    directory.mkdir()
    for defn in (cyclic(1), cyclic(2), cyclic(6), symmetric(3),
                 quaternion_dicyclic(2)):
        save(defn, directory / f"{defn.name.lower()}.json")
    return directory


def test_info(s3_file, capsys):
    assert main(["info", s3_file]) == 0
    out = capsys.readouterr().out
    assert "order" in out and "6" in out
    assert "classes" in out and "3" in out


def test_info_json(s3_file, capsys):
    assert main(["info", s3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 6
    assert doc["class_number"] == 3
    assert doc["center_order"] == 1
    assert doc["flags"]["abelian"] is False


def test_info_trivial_group(tmp_path, capsys):
    path = tmp_path / "z1.json"
    save(cyclic(1), path)
    assert main(["info", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 1 and doc["class_number"] == 1


def test_info_m9(tmp_path, capsys):
    path = tmp_path / "m9.json"
    save(m9(), path)
    assert main(["info", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 72 and doc["class_number"] == 6


def test_info_s7_work_bound(tmp_path, capsys, monkeypatch):
    # Only closure composes permutations, one product per element and
    # declared generator: each generator's column from the search holds
    # exactly |G| entries, so S7 info makes |G| * |gens| products; all-pairs
    # loops would need more than |G|^2 = 25.4M.  Later products read
    # right-multiplication columns of |G| entries each, built on demand:
    # a few dozen suffice, a full product table would hold |G| of them.
    path = tmp_path / "s7.json"
    save(symmetric(7), path)
    groups = []
    build = catalog.build

    def recorded(*args, **kwargs):
        groups.append(build(*args, **kwargs))
        return groups[-1]

    monkeypatch.setattr(catalog, "build", recorded)
    assert main(["info", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 5040 and doc["class_number"] == 15
    assert doc["center_order"] == 1
    assert not any(doc["flags"].values())
    [group] = groups
    searched = [group._columns[g] for g in group.generator_indices()]
    assert [len(column) for column in searched] == [5040] * len(searched)
    assert 0 < sum(map(len, searched)) <= 40 * 5040 * 2
    assert sum(column is not None for column in group._columns) <= 64


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["info", str(path)]) == 1


def test_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"name": "bad", "degree": 3, "generators": [[1, 1, 2]]}))
    assert main(["info", str(path)]) == 1


def test_misspelled_expected_block_is_an_input_error(tmp_path, capsys):
    # Loaded, the block would never be asserted, and the build would pass.
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"name": "Z2", "degree": 2,
                                "generators": [[2, 1]],
                                "expect": {"order": 4}}))
    assert main(["info", str(path)]) == 1
    assert "unknown keys ['expect']" in capsys.readouterr().err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("field,doc", [
    ("degree", {"name": "S3", "degree": True, "generators": [[1]]}),
    ("expected", {"name": "Z2", "degree": 2, "generators": [[2, 1]],
                  "expected": {"order": True}}),
    ("generator", {"name": "Z1", "degree": 1, "generators": [[True]]}),
])
def test_json_booleans_are_not_integers(field, doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["info", str(path), "--json"]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["info"],
    ["info", "{s3}", "--bogus"],
    ["spectrum", "{s3}", "--method", "orbits"],
    ["spectrum", "{s3}", "--budget", "many"],
    ["info", "{s3}", "--budget", "5"],
    ["verify"],
    ["verify", "{s3}", "--extended"],
    ["survey", "{dir}"],
    ["survey", "{dir}", "--out", "r.json", "--method", "checked"],
    ["frobnicate"],
], ids=lambda argv: " ".join(argv) or "bare")
def test_usage_errors_are_input_errors(argv, s3_file, small_dir, capsys):
    argv = [arg.format(s3=s3_file, dir=small_dir) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["spectrum", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_info_help_says_it_takes_no_budget(capsys):
    with pytest.raises(SystemExit):
        main(["info", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "takes no product budget" in text
    assert "bounded by the order cap" in text


def test_spectrum_command(s3_file, capsys):
    assert main(["spectrum", s3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectrum"] == [[3, 6]]
    assert doc["extended_spectrum"] is None


def test_spectrum_extended(s3_file, capsys):
    assert main(["spectrum", s3_file, "--extended", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["extended_spectrum"] == [[1, 1], [2, 3], [3, 6]]
    assert doc["flags"]["full_extended_spectrum"] is True


# The text tables of ``info`` and ``spectrum --extended``, byte for byte.
_FLAGS = "abelian={} nilpotent={} perfect={} simple=no quasisimple=no"
TEXT_TABLES = {
    ("info", "Z1"): [
        "group         Z1",
        "order         1",
        "degree        1",
        "classes       1",
        "class sizes   1",
        "center order  1",
        "flags         " + _FLAGS.format("yes", "yes", "yes"),
    ],
    ("spectrum", "Z1"): [
        "group     Z1",
        "order     1",
        "classes   1",
        "|Aut|     1",
        "|Out|     1",
        "spectrum  {1}  (multiplicity 1x1)",
        "extended  {1}  (multiplicity 1x1)",
        "|End|     1",
        "flags     " + _FLAGS.format("yes", "yes", "yes")
        + " odd_order=yes trivial_spectrum=yes trivial_extended_spectrum=yes"
        " full_extended_spectrum=yes",
    ],
    ("info", "S3"): [
        "group         S3",
        "order         6",
        "degree        3",
        "classes       3",
        "class sizes   1 2 3",
        "center order  1",
        "flags         " + _FLAGS.format("no", "no", "no"),
    ],
    ("spectrum", "S3"): [
        "group     S3",
        "order     6",
        "classes   3",
        "|Aut|     6",
        "|Out|     1",
        "spectrum  {3}  (multiplicity 3x6)",
        "extended  {1, 2, 3}  (multiplicity 1x1 2x3 3x6)",
        "|End|     10",
        "flags     " + _FLAGS.format("no", "no", "no")
        + " odd_order=no trivial_spectrum=yes trivial_extended_spectrum=no"
        " full_extended_spectrum=yes",
    ],
    ("info", "Q8"): [
        "group         Q8",
        "order         8",
        "degree        8",
        "classes       5",
        "class sizes   1 1 2 2 2",
        "center order  2",
        "flags         " + _FLAGS.format("no", "yes", "no"),
    ],
    ("spectrum", "Q8"): [
        "group     Q8",
        "order     8",
        "classes   5",
        "|Aut|     24",
        "|Out|     6",
        "spectrum  {2, 3, 5}  (multiplicity 2x8 3x12 5x4)",
        "extended  {1, 2, 3, 5}  (multiplicity 1x4 2x8 3x12 5x4)",
        "|End|     28",
        "flags     " + _FLAGS.format("no", "yes", "no")
        + " odd_order=no trivial_spectrum=no trivial_extended_spectrum=no"
        " full_extended_spectrum=no",
    ],
}


def _lines(rows):
    return "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("command, name", TEXT_TABLES)
def test_text_tables(command, name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    save(next(d for d in catalog.shipped_catalog() if d.name == name), path)
    flags = ["--extended"] if command == "spectrum" else []
    assert main([command, str(path), *flags]) == 0
    assert capsys.readouterr().out == _lines(TEXT_TABLES[command, name])


def test_text_table_notes_a_skipped_extended_spectrum(tmp_path, capsys):
    # The Aut sweep of S4 fits a budget of 500; the End sweep does not.
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    assert main(["spectrum", str(path), "--extended", "--budget", "500"]) == 0
    assert capsys.readouterr().out == _lines([
        "group     S4",
        "order     24",
        "classes   5",
        "|Aut|     24",
        "|Out|     1",
        "spectrum  {5}  (multiplicity 5x24)",
        "note      extended spectrum skipped: budget exceeded",
        "flags     " + _FLAGS.format("no", "no", "no")
        + " odd_order=no trivial_spectrum=yes trivial_extended_spectrum=?"
        " full_extended_spectrum=?",
    ])


def test_the_scan_and_the_end_fold_share_one_budget(tmp_path, capsys):
    """M9's generating-set scan charges 1512 and its End fold 11520, so a
    budget of 11520 skips the extended spectrum and 1512 + 11520 gives it.
    The Aut fold (7236) runs under a fresh budget of the same limit and
    gives the spectrum that the default budget gives."""
    path = tmp_path / "m9.json"
    save(m9(), path)
    assert main(["spectrum", str(path)]) == 0
    spectrum = capsys.readouterr().out.splitlines()[5]
    assert spectrum.startswith("spectrum")
    assert main(["spectrum", str(path), "--extended", "--budget",
                 "11520"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[5:7] == [
        spectrum, "note      extended spectrum skipped: budget exceeded"]
    assert main(["spectrum", str(path), "--extended", "--budget",
                 str(1512 + 11520)]) == 0
    assert capsys.readouterr().out.splitlines()[6].startswith("extended")


def test_the_aut_sweep_names_its_phase(tmp_path, capsys):
    """M9's scan charges 1512 and its Aut sweep 7236, so a budget of 5000
    runs out in the Aut sweep."""
    path = tmp_path / "m9.json"
    save(m9(), path)
    assert main(["spectrum", str(path), "--budget", "5000"]) == 2
    assert capsys.readouterr().err == (
        "error: product budget 5000 exceeded in the Aut sweep\n")


def test_verify_charges_the_battery_orbit_passes(tmp_path, capsys):
    """S4's End fold charges exactly 1024, and its battery runs 11 orbit
    passes of 24 * 2 each and 4 quotient counts of 24 each on top."""
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    total = 1024 + 11 * 48 + 4 * 24
    for budget in (1024, total - 1):
        assert main(["verify", str(path), "--budget", str(budget)]) == 2
        assert capsys.readouterr().err == (
            f"error: product budget {budget} exceeded in the battery\n")
    assert main(["verify", str(path), "--budget", str(total)]) == 0


def test_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    assert main(["spectrum", str(path), "--budget", "10"]) == 2


def test_order_cap_flag(tmp_path, capsys):
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    assert main(["info", str(path), "--order-cap", "10"]) == 2


def test_order_cap_bounds_the_degree(tmp_path, capsys):
    # The trivial group on 11 points: order 1, but each element costs 11.
    path = tmp_path / "wide.json"
    path.write_text('{"name": "X", "degree": 11, "generators": []}')
    assert main(["info", str(path), "--order-cap", "10"]) == 2
    assert "degree 11 exceeds order cap 10" in capsys.readouterr().err
    assert main(["info", str(path), "--order-cap", "11"]) == 0


@pytest.mark.parametrize("command,named", [
    (["spectrum", "@s3", "--budget", "0"], "--budget"),
    (["spectrum", "@s3", "--budget", "-5"], "--budget"),
    (["verify", "@s3", "--budget", "many"], "--budget"),
    (["info", "@s3", "--order-cap", "-1"], "--order-cap"),
    (["survey", "@dir", "--out", "@out", "--jobs", "0"], "--jobs"),
    (["survey", "@dir", "--out", "@out", "--jobs", "-3"], "--jobs"),
], ids=["budget-0", "budget-negative", "budget-not-an-integer",
        "order-cap-negative", "jobs-0", "jobs-negative"])
def test_non_positive_limits_are_input_errors(command, named, s3_file,
                                              small_dir, tmp_path, capsys):
    places = {"@s3": s3_file, "@dir": str(small_dir),
              "@out": str(tmp_path / "r.json")}
    assert main([places.get(arg, arg) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "r.json").exists()


def test_limits_come_from_flags_only(tmp_path):
    # Settings in the environment change nothing: a run with limits that
    # would stop it prints exactly what a clean run prints.
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    clean = {key: value for key, value in os.environ.items()
             if not key.startswith("TWISTSPEC_")}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "twistspec.cli", "spectrum", str(path),
             "--extended", "--json"],
            capture_output=True, text=True,
            env={**clean, "PYTHONPATH": pythonpath, **extra})
        for extra in ({}, {"TWISTSPEC_BUDGET": "1",
                           "TWISTSPEC_ORDER_CAP": "1"})
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_verify_pass(tmp_path, capsys):
    path = tmp_path / "q8.json"
    save(quaternion_dicyclic(2), path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "extended-excludes-k-minus-1" in out


def test_verify_failure_exit_code(s3_file, capsys, monkeypatch):
    from twistspec.spectra import BatteryCheck
    import twistspec.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "theorem_battery",
        lambda group, budget=None: [BatteryCheck("synthetic", False,
                                                 {"detail": "forced"})])
    assert main(["verify", s3_file]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_survey_roundtrip(small_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["group_count"] == 5
    names = [g["name"] for g in doc["groups"]]
    assert names == sorted(
        names, key=lambda n: next(g["order"] for g in doc["groups"]
                                  if g["name"] == n))
    orders = [g["order"] for g in doc["groups"]]
    assert orders == sorted(orders)


def test_survey_out_inside_the_directory(small_dir, capsys):
    # The report of the first run is not read back as a group definition.
    out = small_dir / "report.json"
    written = []
    for _ in range(2):
        assert main(["survey", str(small_dir), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(
            "surveyed 5 files -> 5 groups (0 errors)")
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_survey_filter(small_dir, tmp_path):
    out = tmp_path / "full.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--filter", "full_extended_spectrum=true"]) == 0
    doc = json.loads(out.read_text())
    assert [g["name"] for g in doc["groups"]] == ["Z1", "Z2", "S3"]
    out2 = tmp_path / "small.json"
    assert main(["survey", str(small_dir), "--out", str(out2),
                 "--filter", "max_order=6,abelian=false"]) == 0
    doc2 = json.loads(out2.read_text())
    assert [g["name"] for g in doc2["groups"]] == ["S3"]


def test_survey_bad_filter(small_dir, tmp_path):
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--filter", "nonsense=1"]) == 1


@pytest.mark.parametrize("term,message", [
    ("abelian", "filter term 'abelian' is not key=value"),
    ("min_order=six", "filter min_order needs an integer"),
    ("abelian=yes", "filter abelian needs true or false"),
], ids=["no-equals", "order-not-an-integer", "flag-not-a-boolean"])
def test_survey_filter_term_errors(term, message, small_dir, tmp_path,
                                   capsys):
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--filter", term]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_survey_filter_skips_empty_terms_and_drops_small_groups(small_dir,
                                                                tmp_path):
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--filter", " , min_order=6,"]) == 0
    doc = json.loads(out.read_text())
    assert doc["filter"] == " , min_order=6,"
    assert [g["name"] for g in doc["groups"]] == ["S3", "Z6", "Dic2"]


def test_survey_needs_a_directory(s3_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["survey", s3_file, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {s3_file} is not a directory\n"
    assert not out.exists()


def test_survey_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "empty.json"
    assert main(["survey", str(empty), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["groups"] == [] and doc["group_count"] == 0


def test_survey_annotates_per_group_failures(small_dir, tmp_path):
    (small_dir / "broken.json").write_text("{oops")
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["group_count"] == 5
    assert doc["summary"]["errors"][0]["file"] == "broken.json"


def test_survey_records_non_utf8_file(small_dir, tmp_path):
    (small_dir / "latin.json").write_bytes(b"\xff\xfe")
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["group_count"] == 5
    [error] = doc["summary"]["errors"]
    assert error["file"] == "latin.json"
    assert error["error"].startswith("DefinitionError:")


NESTED_JSON = b"[" * 100000 + b"]" * 100000


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_records_deeply_nested_file(small_dir, tmp_path, jobs):
    (small_dir / "nested.json").write_bytes(NESTED_JSON)
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--jobs", jobs]) == 0
    doc = json.loads(out.read_text())
    assert doc["group_count"] == 5
    [error] = doc["summary"]["errors"]
    assert error["file"] == "nested.json"
    assert error["error"].startswith("DefinitionError:")


def test_deeply_nested_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_bytes(NESTED_JSON)
    assert main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("jobs,files,cpus,workers", [
    (50000, 2, 8, 2),
    (3, 5, 8, 3),
    (50000, 5, 4, 4),
    (4, 5, 1, None),
    (4, 5, None, None),
    (50000, 1, 8, None),
])
def test_survey_workers_are_capped_by_files_and_cpus(
        small_dir, tmp_path, monkeypatch, jobs, files, cpus, workers):
    import twistspec.cli as cli_mod

    sizes = []

    class RecordingPool:
        """Records ``max_workers`` and maps in this process, so no worker
        is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    for extra in sorted(small_dir.glob("*.json"))[files:]:
        extra.unlink()
    serial = tmp_path / "serial.json"
    assert main(["survey", str(small_dir), "--out", str(serial)]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--jobs", str(jobs)]) == 0
    assert sizes == ([] if workers is None else [workers])
    assert out.read_bytes() == serial.read_bytes()


def _classify_failing_on(name, error=AssertionError):
    """``classify`` that raises ``error`` for the group ``name``."""
    from twistspec.spectra import classify

    def failing(group, **kwargs):
        if group.name == failing.target:
            raise error("synthetic internal failure")
        return classify(group, **kwargs)
    failing.target = name
    return failing


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_survives_internal_error(small_dir, tmp_path, monkeypatch,
                                        capsys, jobs):
    import twistspec.cli as cli_mod

    # Worker processes are forked, so they see the patched function.
    monkeypatch.setattr(cli_mod, "classify", _classify_failing_on("Z6"))
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--jobs", jobs]) == cli_mod.EXIT_INTERNAL == 4
    doc = json.loads(out.read_text())
    assert [g["name"] for g in doc["groups"]] == ["Z1", "Z2", "S3", "Dic2"]
    assert doc["summary"]["errors"] == [
        {"file": "z6.json",
         "error": "AssertionError: synthetic internal failure"}]
    assert "(1 errors)" in capsys.readouterr().out


def test_internal_error_exit_code(s3_file, monkeypatch, capsys):
    import twistspec.cli as cli_mod

    monkeypatch.setattr(cli_mod, "classify", _classify_failing_on("S3"))
    assert main(["spectrum", s3_file]) == 4
    assert "internal error: synthetic" in capsys.readouterr().err


# Every TwistspecError subclass, each with the exit code main gives it.
ERROR_EXITS = {"DefinitionError": 1, "BudgetExceeded": 2,
               "OrderCapExceeded": 2, "NotAHomomorphism": 4}


@pytest.mark.parametrize("error", TwistspecError.__subclasses__(),
                         ids=lambda error: error.__name__)
def test_every_error_class_has_an_exit_code(error, s3_file, monkeypatch,
                                            capsys):
    import twistspec.cli as cli_mod

    monkeypatch.setattr(cli_mod, "classify", _classify_failing_on("S3", error))
    assert main(["spectrum", s3_file]) == ERROR_EXITS[error.__name__]
    assert "synthetic internal failure" in capsys.readouterr().err


def test_survey_marks_not_a_homomorphism_internal(small_dir, tmp_path,
                                                  monkeypatch):
    import twistspec.cli as cli_mod

    monkeypatch.setattr(cli_mod, "classify",
                        _classify_failing_on("Z6", NotAHomomorphism))
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 4
    assert json.loads(out.read_text())["summary"]["errors"] == [
        {"file": "z6.json",
         "error": "NotAHomomorphism: synthetic internal failure"}]


def _miscount_fixed_classes(monkeypatch):
    """The battery's fixed-class count is one class too many on S3 (the
    group of order 6 with 3 classes), so its orbit count disagrees there."""
    import twistspec.spectra as spectra_mod

    honest = spectra_mod._fixed_count

    def miscounted(table, classes, bijective):
        return (honest(table, classes, bijective)
                + (len(table) == 6 and classes.count == 3))

    monkeypatch.setattr(spectra_mod, "_fixed_count", miscounted)


def test_verify_catches_miscounted_fixed_classes(s3_file, monkeypatch,
                                                 capsys):
    _miscount_fixed_classes(monkeypatch)
    assert main(["verify", s3_file]) == 3
    failed = [line.split("  witness=")[0]
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert "FAIL  S3  orbit-vs-fixed-classes" in failed


def test_survey_battery_records_miscounted_fixed_classes(small_dir, tmp_path,
                                                         monkeypatch):
    _miscount_fixed_classes(monkeypatch)
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--battery"]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["errors"] == []
    failed = {group["name"]: [check["check"]
                              for check in group["theorem_battery"]
                              if not check["passed"]]
              for group in doc["groups"]}
    assert "orbit-vs-fixed-classes" in failed.pop("S3")
    assert failed == {"Z1": [], "Z2": [], "Z6": [], "Dic2": []}


@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
def test_survey_unwritable_out_fails_before_the_sweep(small_dir, tmp_path,
                                                      monkeypatch, capsys,
                                                      where):
    import twistspec.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli_mod, "classify", never)
    out = (tmp_path / "missing" / "r.json" if where == "missing-dir"
           else tmp_path)
    assert main(["survey", str(small_dir), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_survey_write_failure_is_an_input_error(small_dir, tmp_path,
                                                monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "write_text", refuse)
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write --out {out}: Permission denied\n")


def test_survey_jobs_byte_identical(small_dir, tmp_path):
    out1 = tmp_path / "jobs1.json"
    out2 = tmp_path / "jobs2.json"
    assert main(["survey", str(small_dir), "--out", str(out1),
                 "--jobs", "1", "--battery"]) == 0
    assert main(["survey", str(small_dir), "--out", str(out2),
                 "--jobs", "3", "--battery"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point(s3_file):
    # Run the package under test, wherever it was imported from.
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twistspec.cli", "info", s3_file],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "order" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "twistspec.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, f"{twistspec.__version__}\n", "")


# Heavy modules that no serial command needs: dataclasses pulls in inspect,
# ast and dis; only survey with more than one worker starts a process pool.
UNNEEDED_MODULES = {"dataclasses", "inspect", "multiprocessing",
                    "concurrent.futures.process"}


@pytest.mark.parametrize("argv", [
    ["info", "@S3"], ["spectrum", "@S3", "--extended"], ["verify", "@S3"],
    ["survey", "@DIR", "--out", "@OUT", "--jobs", "1", "--battery"],
])
def test_serial_commands_import_no_unneeded_modules(s3_file, small_dir,
                                                    tmp_path, argv):
    places = {"@S3": s3_file, "@DIR": str(small_dir),
              "@OUT": str(tmp_path / "r.json")}
    script = "\n".join([
        "import json, sys",
        "before = set(sys.modules)",
        "from twistspec.cli import main",
        f"code = main({[places.get(arg, arg) for arg in argv]!r})",
        "sys.stderr.write(json.dumps(sorted(set(sys.modules) - before)))",
        "sys.exit(code)",
    ])
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    imported = set(json.loads(proc.stderr))
    assert "twistspec.cli" in imported
    assert not imported & UNNEEDED_MODULES


def test_parser_is_built_once_per_process(s3_file, tmp_path, capsys):
    # One process runs several commands on the same cached parser; each
    # must exit and print exactly as it does in a process of its own.
    from twistspec.cli import build_parser
    assert build_parser() is build_parser()
    commands = [["info", s3_file], ["info", str(tmp_path / "missing.json")],
                ["spectrum", s3_file, "--extended"], ["--version"],
                ["verify", s3_file]]
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "twistspec.cli", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert (code, got.out, got.err) == \
            (proc.returncode, proc.stdout, proc.stderr), argv
    assert build_parser() is build_parser()


# The benchmark's frozen inputs and recorded outputs, read only.
BENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The benchmark's ladder commands, keyed as in its golden file.
LADDER = {
    "info S6": ["info", "S6", "--json"],
    "spectrum A6": ["spectrum", "A6", "--json"],
    "spectrum --extended Z2^4": ["spectrum", "Z2xZ2xZ2xZ2", "--extended",
                                 "--json"],
}


def _benchmark_files(directory, inputs):
    """The benchmark's input set ``inputs`` written as definition files;
    returns their paths by group name."""
    docs = json.loads((BENCH / "data" / f"{inputs}.json").read_text("utf-8"))
    definitions = [catalog.from_json_dict(doc) for doc in docs]
    paths = catalog.write_catalog(directory, definitions)
    return {defn.name: str(path) for defn, path in zip(definitions, paths)}


def test_verify_matches_the_benchmark_golden(tmp_path, capsys):
    files = _benchmark_files(tmp_path, "catalog")
    golden = json.loads((BENCH / "golden" / "verify.json").read_bytes())
    assert len(files) == len(golden) == 51
    for name, path in files.items():
        code = main(["verify", path])
        want = golden[f"verify {name}"]
        assert (code, capsys.readouterr().out) == \
            (want["exit"], want["stdout"]), name


def test_ladder_matches_the_benchmark_golden(tmp_path, capsys):
    files = _benchmark_files(tmp_path, "ladder")
    golden = json.loads((BENCH / "golden" / "ladder.json").read_bytes())
    assert set(golden) == set(LADDER)
    for key, (command, name, *flags) in LADDER.items():
        code = main([command, files[name], *flags])
        assert (code, capsys.readouterr().out) == \
            (golden[key]["exit"], golden[key]["stdout"]), key


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_matches_the_benchmark_golden(jobs, tmp_path, capsys):
    directory = tmp_path / "catalog"
    assert len(_benchmark_files(directory, "catalog")) == 51
    want = json.loads((BENCH / "golden" / "survey.json").read_bytes())["survey"]
    out = tmp_path / "report.json"
    code = main(["survey", str(directory), "--out", str(out), "--jobs", jobs])
    stdout = capsys.readouterr().out.replace(str(out), "@OUT")
    assert (code, stdout) == (want["exit"], want["stdout"])
    report = (BENCH / "golden" / want["files"]["@OUT"]).read_bytes()
    assert out.read_bytes() == report
