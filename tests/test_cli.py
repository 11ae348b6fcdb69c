"""Command-line interface: exit codes, determinism, output artifacts."""

import io
import json
import re
import shlex
import signal
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridguards.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    main,
)
from gridguards.generate import channel, comb, counterexample_polygon
from gridguards.persistence import FORMAT_JSON, FORMAT_TEXT, write_polygon
from gridguards.solver import CELL_BUDGET


@pytest.fixture()
def poly_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("1 1\n9 1\n9 9\n1 9\n")
    return str(path)


def run_to_file(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["-o", str(out)])
    return code, out.read_text() if out.exists() else None


def test_solve_square(tmp_path, poly_file):
    code, text = run_to_file(tmp_path, ["solve", poly_file])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["certified"] is True
    assert len(doc["guards"]) == 1
    assert doc["strategy"] == "FullCellSample"


def test_solve_byte_identical_across_runs(tmp_path, poly_file):
    _, a = run_to_file(tmp_path, ["solve", poly_file, "--seed", "5"])
    _, b = run_to_file(tmp_path, ["solve", poly_file, "--seed", "5"])
    assert a == b


def test_solve_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\nnot a vertex\n")
    assert main(["solve", str(bad)]) == EXIT_INPUT


def test_solve_missing_file():
    assert main(["solve", "/nonexistent/poly.txt"]) == EXIT_INPUT


def test_solve_vertices_strategy(tmp_path, poly_file):
    code, text = run_to_file(tmp_path,
                             ["solve", poly_file, "--strategy", "Vertices"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["strategy"] == "Vertices"
    assert doc["guards"] == [["9", "9"]]     # a vertex of the square


def test_solve_round_budget(tmp_path):
    comb = tmp_path / "comb.txt"
    assert main(["generate", "--shape", "comb", "--prongs", "3",
                 "-o", str(comb)]) == EXIT_OK
    assert main(["solve", str(comb), "--max-rounds", "1"]) == EXIT_BUDGET


def test_solve_writes_svg(tmp_path, poly_file):
    svg = tmp_path / "scene.svg"
    code = main(["solve", poly_file, "--svg", str(svg),
                 "-o", str(tmp_path / "g.json")])
    assert code == EXIT_OK
    assert svg.read_text().startswith('<?xml')


def test_verify_lemmas_fixture_ok(tmp_path):
    code, text = run_to_file(
        tmp_path, ["verify-lemmas", "--fixture", "channel",
                   "--check", "distances"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc[0]["lemma_id"] == "distances"
    assert doc[0]["status"] == "Verified"


def test_verify_lemmas_blocking_fixture(tmp_path):
    code, text = run_to_file(
        tmp_path, ["verify-lemmas", "--fixture", "blocking",
                   "--check", "distances"])
    assert code == EXIT_OK


def test_verify_lemmas_bad_region_probe_violates(tmp_path):
    code, text = run_to_file(
        tmp_path, ["verify-lemmas", "--fixture", "deshpande",
                   "--check", "local-visibility", "--at", "bad-region"])
    assert code == EXIT_VIOLATION
    doc = json.loads(text)
    assert doc[0]["lemma_id"] == "local_visibility"
    assert doc[0]["status"] == "Violated"


def test_verify_lemmas_needs_input():
    assert main(["verify-lemmas", "--check", "distances"]) == EXIT_INPUT


def test_verify_lemmas_determinism(tmp_path):
    argv = ["verify-lemmas", "--fixture", "channel", "--check",
            "grid-outside-bad", "--samples", "10", "--seed", "3"]
    _, a = run_to_file(tmp_path, argv)
    _, b = run_to_file(tmp_path, argv)
    assert a == b
    assert json.loads(a)[0]["status"] == "Verified"


def test_analyze_channel(tmp_path):
    poly = tmp_path / "channel.txt"
    assert main(["generate", "--shape", "channel", "-o", str(poly)]) == EXIT_OK
    code, text = run_to_file(tmp_path, ["analyze", str(poly)])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["n"] == 10
    assert doc["opposite_pairs"] == [[2, 7]]
    assert doc["bad_region_triples"] == []
    # the straight bottom wall produces collinear vertex triples
    assert [0, 1, 3] in doc["general_position"]["collinear_triples"]


def test_analyze_svg_output(tmp_path):
    poly = tmp_path / "channel.txt"
    main(["generate", "--shape", "channel", "-o", str(poly)])
    svg = tmp_path / "bad.svg"
    code = main(["analyze", str(poly), "--svg", str(svg),
                 "-o", str(tmp_path / "a.json")])
    assert code == EXIT_OK
    assert "</svg>" in svg.read_text()


def test_analyze_s_exponent_zero_is_used(tmp_path):
    """K = 0 gives s = L^0 = 1; it is not read as unset and replaced by
    the default K = 3 (s = 1/120^3 on comb 2)."""
    poly = tmp_path / "comb2.txt"
    main(["generate", "--shape", "comb", "--prongs", "2", "-o", str(poly)])
    code, text = run_to_file(tmp_path, ["analyze", str(poly),
                                        "--s-exponent", "0"])
    assert code == EXIT_OK
    assert json.loads(text)["s"] == "1"
    _, text = run_to_file(tmp_path, ["analyze", str(poly)])
    assert json.loads(text)["s"] == "1/1728000"


def test_analyze_rejects_negative_s_exponent(tmp_path, capsys):
    poly = tmp_path / "comb2.txt"
    main(["generate", "--shape", "comb", "--prongs", "2", "-o", str(poly)])
    assert main(["analyze", str(poly), "--s-exponent", "-1"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: --s-exponent must be at least 0\n")


def test_generate_comb_roundtrip(tmp_path):
    out = tmp_path / "comb.txt"
    assert main(["generate", "--shape", "comb", "--prongs", "3",
                 "-o", str(out)]) == EXIT_OK
    from gridguards.persistence import read_polygon
    assert read_polygon(str(out)).n == 12


def test_generate_json_emit(tmp_path):
    out = tmp_path / "c.json"
    assert main(["generate", "--shape", "channel", "--emit", "json",
                 "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 10


def test_generate_random_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main(["generate", "--shape", "random", "--n", "8",
                     "--M", "30", "--seed", "4", "-o", str(path)]) == EXIT_OK
    assert a.read_text() == b.read_text()


def test_generate_rejects_tiny_n(capsys):
    assert main(["generate", "--shape", "random", "--n", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: need at least 3 vertices\n"


def test_generate_rejects_more_vertices_than_lattice_points(capsys):
    """10 distinct vertices cannot be drawn from the 9 points of [1, 3]^2:
    an input error, not a generator that never returns."""
    assert main(["generate", "--shape", "random", "--n", "10",
                 "--M", "3"]) == EXIT_INPUT
    assert "cannot draw 10 distinct vertices" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "{poly}", "-o", "{missing}"], "No such file or directory"),
    (["verify-lemmas", "--fixture", "channel", "--check", "distances",
      "-o", "{missing}"], "No such file or directory"),
    (["analyze", "{poly}", "-o", "{missing}"], "No such file or directory"),
    (["generate", "--shape", "comb", "-o", "{missing}"],
     "No such file or directory"),
    (["solve", "{poly}", "--svg", "{missing}"], "No such file or directory"),
    (["analyze", "{poly}", "--svg", "{missing}"],
     "No such file or directory"),
    (["verify-lemmas", "--fixture", "channel", "--samples", "-1"],
     "--samples must be at least 0"),
    (["solve", "{poly}", "--max-rounds", "0"],
     "--max-rounds must be at least 1"),
    (["verify-lemmas", "--fixture", "channel", "--check", "distances",
      "--at", "bad-region"], "--at applies only to"),
], ids=["solve-o", "verify-lemmas-o", "analyze-o", "generate-o",
        "solve-svg", "analyze-svg", "samples-negative", "max-rounds-zero",
        "at-without-local-visibility"])
def test_errors_exit_2_with_one_line(tmp_path, poly_file, capsys, argv,
                                     message):
    """An output path in a missing directory, an out-of-range option and
    an option the chosen check does not read each exit 2 from main, with
    one error line and no traceback."""
    missing = str(tmp_path / "missing" / "out")
    argv = [a.format(poly=poly_file, missing=missing) for a in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]


@pytest.mark.parametrize("argv", [
    ["solve", "x", "--mode", "theory"],
    ["verify-lemmas", "--fixture", "channel", "--mode", "theory"],
    ["generate", "--shape", "comb", "--svg", "x"],
    ["analyze", "x", "--seed", "1"],
], ids=["solve-mode", "verify-lemmas-mode", "generate-svg", "analyze-seed"])
def test_unread_options_rejected(argv):
    """Each subcommand parses only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def readme_commands():
    """The lines of the README's *Command line* block."""
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    return [shlex.split(line) for line in block.group(1).splitlines()]


def test_readme_command_line_runs_as_written(tmp_path, monkeypatch):
    """Each README command, run in one directory in order, exits with the
    code the README gives: the last one is the bad-region probe.  The
    channel's drawing holds its two bad-region wedges."""
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert all(argv[0] == "gridguards" for argv in commands)
    codes = [main(argv[1:]) for argv in commands]
    assert codes == [EXIT_OK] * 6 + [EXIT_VIOLATION]
    assert (tmp_path / "bad.svg").read_text().count("fill:#cc3311") == 2


class Deadline(BaseException):
    """A command ran past its deadline; a BaseException, so that no
    ``except Exception`` on the way out can swallow it."""


def run_with_deadline(argv, seconds):
    """main(argv) with stdout and stderr captured, or Deadline once the
    given seconds of wall time have passed."""
    def expire(signum, frame):
        raise Deadline(f"{argv} ran past {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


# comb 2 with the vertex (4, 6) moved to (10^20 - 1, 6): a valid polygon
# whose bounding box holds about 6 * 10^20 unit cells
HUGE_COMB = ("1 1\n4 1\n99999999999999999999 6\n3 6\n3 2\n2 2\n2 6\n"
             "1 6\n")


def test_solve_over_cell_budget_exits_3_at_once(tmp_path):
    """The default candidates would walk every unit cell of the bounding
    box; past the cell budget, solve exits 3 before the walk, naming the
    count, and the vertex strategy still solves the same polygon."""
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_COMB)
    code, err = run_with_deadline(["solve", str(path)], 1)
    assert code == EXIT_BUDGET
    cells = (10 ** 20 - 1) * 6
    assert cells > CELL_BUDGET
    assert err.splitlines() == [
        f"error: the candidate grid has {cells} unit cells, over the "
        f"budget of {CELL_BUDGET}"]
    code, _ = run_with_deadline(
        ["solve", str(path), "--strategy", "Vertices"], 5)
    assert code == EXIT_OK


# a valid triangle whose nearest in-polygon grid point, at the width the
# local-visibility check asks for, lies past the grid search's ring budget
THIN_TRIANGLE = "1 1\n544 2\n543 2\n"


@pytest.mark.parametrize("check", ["all", "local-visibility"])
def test_verify_lemmas_past_grid_search_budget_exits_3(tmp_path, check):
    """The grid search gives up past its ring budget; verify-lemmas then
    exits 3 with one error line, not a traceback."""
    path = tmp_path / "thin.txt"
    path.write_text(THIN_TRIANGLE)
    code, err = run_with_deadline(
        ["verify-lemmas", str(path), "--check", check], 5)
    assert code == EXIT_BUDGET
    [line] = err.splitlines()
    assert line.startswith("error: no in-polygon grid point within ")


def polygon_text(m, fmt):
    buf = io.StringIO()
    write_polygon(m, buf, fmt)
    text = buf.getvalue()
    if fmt == FORMAT_JSON:
        # one vertex a line, so that line mutations reach inside the JSON
        text = text.replace("],", "],\n")
    return text.splitlines()


FUZZ_SOURCES = [
    polygon_text(comb(2), FORMAT_TEXT),
    polygon_text(comb(3), FORMAT_TEXT),
    polygon_text(channel(), FORMAT_TEXT),
    polygon_text(counterexample_polygon(), FORMAT_TEXT),
    polygon_text(comb(2), FORMAT_JSON),
]
FUZZ_TOKENS = st.one_of(
    st.sampled_from(["0", "-0", "1/2", "-7/3", "3/0", "0.5", "x", "nan",
                     "inf", "#", "", "[1, 2]", "null", "true", '"4"',
                     '{"vertices": 5}', '{"vertices": null}',
                     '{"vertices": [[1, 1], [2, 1], [1, 2]]}']),
    st.integers(-9, -1).map(str),
    st.integers(10 ** 19, 10 ** 20 - 1).map(str),
    st.integers(-10 ** 20 + 1, -10 ** 19).map(str),
    st.sampled_from(["1e9", "1e1000000000"]),
)


@st.composite
def mutated_polygon(draw):
    """A fixture file with lines swapped, dropped or duplicated, and with
    tokens or whole lines replaced by injected ones."""
    lines = list(draw(st.sampled_from(FUZZ_SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["swap", "drop", "dup", "token", "line"]))
        if op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "token" and lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        else:
            lines[i] = draw(FUZZ_TOKENS)
    return "\n".join(lines) + "\n"


# comb 2 with one x coordinate written with an exponent that Fraction
# would take seconds to expand
EXPONENT_COMB = ("1 1\n4 1\n1e10000000 6\n3 6\n3 2\n2 2\n2 6\n1 6\n")


@given(mutated_polygon())
@example(HUGE_COMB)
@example('{"vertices": 5}\n')
@example(THIN_TRIANGLE)
@example(EXPONENT_COMB)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_fixture_files_exit_cleanly(text):
    """solve, analyze, the distance check and the local-visibility check
    on a mutated fixture file each return 0, 2, 3 or 4 from main within a
    few seconds, without an exception; every nonzero code but 4 comes with
    one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poly.txt"
        path.write_text(text)
        for argv in (["solve", str(path)], ["analyze", str(path)],
                     ["verify-lemmas", str(path), "--check", "distances"],
                     ["verify-lemmas", str(path), "--check",
                      "local-visibility"]):
            code, err = run_with_deadline(argv, 3)
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET,
                            EXIT_VIOLATION), (argv, text)
            assert "Traceback" not in err
            if code in (EXIT_INPUT, EXIT_BUDGET):
                assert len(err.splitlines()) == 1
                assert err.startswith("error: ")
