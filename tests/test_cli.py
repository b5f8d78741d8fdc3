"""End-to-end command line tests through main(argv)."""

from __future__ import annotations

import argparse
import io
import json
import random
import re
import resource
import subprocess
import sys
from decimal import Decimal

import pytest

from closurecount import Poset, bits, enumerate_closure_systems
from closurecount import cli, selfcheck
from closurecount.cli import main
from closurecount.generators import random_connected_poset, random_submask
from conftest import nested, oracle_count, to_structured

DIAMOND_TEXT = "4\n0 1\n0 2\n1 3\n2 3\n"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCount:
    def test_generated(self, capsys):
        rc, out, err = run(capsys, "count", "--gen", "powerset:3")
        assert (rc, out, err) == (0, "61\n", "")

    def test_file(self, capsys, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text(DIAMOND_TEXT)
        rc, out, _ = run(capsys, "count", str(f))
        assert (rc, out) == (0, "7\n")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(DIAMOND_TEXT))
        rc, out, _ = run(capsys, "count", "-")
        assert (rc, out) == (0, "7\n")

    @pytest.mark.parametrize("required,want", [("1", "3"), ("0,3", "4")])
    def test_required(self, capsys, required, want):
        rc, out, _ = run(capsys, "count", "--gen", "diamond:2",
                         "--required", required)
        assert (rc, out) == (0, want + "\n")

    def test_pretty(self, capsys):
        rc, out, _ = run(capsys, "count", "--gen", "chain:12", "--pretty")
        assert (rc, out) == (0, "2,048\n")

    @pytest.mark.parametrize("flags", [[], ["--pretty"]], ids=["plain", "pretty"])
    def test_value_past_the_int_to_str_digit_limit(self, capsys, flags):
        # 2^16383 has 4,932 digits, past CPython's default str() limit
        rc, out, err = run(capsys, "count", "--gen", "chain:16384", *flags)
        assert (rc, err) == (0, "")
        groups = out.strip().split(",")
        if flags:
            assert len(groups[0]) <= 3 and all(len(g) == 3 for g in groups[1:])
        assert len("".join(groups)) == 4932
        assert Decimal("".join(groups)) == Decimal(2 ** 16383)

    def test_trace_goes_to_stderr(self, capsys):
        rc, out, err = run(capsys, "count", "--gen", "stacked:2", "--trace")
        assert (rc, out) == (0, "98\n")
        assert "summit suborder [3,7]" in err

    def test_cap_refusal_is_exit_3(self, capsys):
        rc, out, err = run(capsys, "count", "--gen", "powerset:3", "--cap", "7")
        assert (rc, out) == (3, "")
        assert err.startswith("error:")

    def test_cap_is_the_leaf_state_count(self, capsys):
        # the powerset:4 leaf visits exactly 2,639 states
        rc, out, err = run(capsys, "count", "--gen", "powerset:4", "--cap", "2638")
        assert (rc, out) == (3, "")
        assert "more than 2638 states" in err
        rc, out, _ = run(capsys, "count", "--gen", "powerset:4", "--cap", "2639")
        assert (rc, out) == (0, "2480\n")

    def test_force_overrides_cap(self, capsys):
        rc, out, _ = run(capsys, "count", "--gen", "powerset:4",
                         "--cap", "5", "--force")
        assert (rc, out) == (0, "2480\n")

    def test_wide_leaf_with_force(self, capsys, tmp_path):
        # one 70-element leaf: 14 minimal elements under 56 maximal ones,
        # minimal 0..3 free to leave (one upper cover each); masks this wide
        # once overflowed a fixed-width kernel with a traceback and exit 1
        edges = [(i, 14 + i) for i in range(4)]
        edges += [(i, j) for i in range(4, 14) for j in range(14, 70)]
        f = tmp_path / "wide.txt"
        f.write_text("70\n" + "".join(f"{u} {v}\n" for u, v in edges))
        rc, out, err = run(capsys, "count", str(f), "--force")
        want = sum(1 for _ in enumerate_closure_systems(Poset(70, edges), cap=None))
        assert (rc, err) == (0, "")
        assert int(out) == want == 16

    @pytest.mark.parametrize("argv", [
        ("count",),                                   # no input at all
        ("count", "x.txt", "--gen", "chain:3"),       # both inputs
        ("count", "--gen", "chain:3", "--required", "zz"),
        ("count", "--gen", "chain:3", "--required", "9"),
        ("count", "--gen", "nosuchfamily:3"),
        ("count", "--gen", "chain:0"),
    ])
    def test_usage_errors_are_exit_2(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and err.startswith("error:")

    @pytest.mark.parametrize("text", ["1000000000\n0 1\n",
                                      '{"n": 1000000000, "edges": []}'])
    def test_file_above_the_element_limit_is_exit_2(self, capsys, tmp_path, text):
        f = tmp_path / "huge.txt"
        f.write_text(text)
        rc, out, err = run(capsys, "count", str(f))
        assert (rc, out) == (2, "") and "limit" in err

    def test_spec_above_the_element_limit_is_exit_2(self, capsys):
        rc, out, err = run(capsys, "count", "--gen", "powerset:1000000000")
        assert (rc, out) == (2, "") and "limit" in err

    def test_spec_above_the_edge_limit_is_exit_2(self, capsys):
        rc, out, err = run(capsys, "count", "--gen", "stacked:2:antichain:8192")
        assert (rc, out) == (2, "") and "limit" in err

    def test_deep_tower(self, capsys):
        rc, out, _ = run(capsys, "count", "--gen", "stacked:600")
        assert (rc, out) == (0, f"{7 * 14 ** 599}\n")

    @pytest.mark.parametrize("command,want", [("count", "2\n"), ("decompose", "none\n")])
    def test_stacked_prefixes_nest_past_the_recursion_limit(self, capsys, command, want):
        spec = "stacked:1:" * 1200 + "chain:2"
        rc, out, _ = run(capsys, command, "--gen", spec)
        assert (rc, out) == (0, want)

    @pytest.mark.parametrize("command", ["count", "validate"])
    def test_json_nested_past_the_recursion_limit_is_exit_2(self, capsys, tmp_path, command):
        f = tmp_path / "deep.json"
        f.write_text('{"n": 2, "edges": ' + "[" * 100_000)
        rc, out, err = run(capsys, command, str(f))
        assert (rc, out) == (2, "") and "invalid JSON" in err

    def test_nesting_past_the_recursion_limit_is_exit_0(self, capsys, tmp_path,
                                                         default_recursion_limit):
        # 250 suborders nested one in the next, 751 elements: the
        # decomposition runs on its own stack, not the interpreter's
        f = tmp_path / "nested.json"
        f.write_text(json.dumps(to_structured(nested(250))))
        assert run(capsys, "count", str(f)) == (0, f"{(6 ** 251 - 1) // 5}\n", "")

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "count", str(tmp_path / "absent.txt"))
        assert rc == 2 and err.startswith("error:")

    def test_element_count_past_the_int_to_str_digit_limit_is_exit_2(self, capsys, tmp_path):
        # output lifts the digit limit for counts, parsing keeps it
        f = tmp_path / "long.txt"
        f.write_text("9" * 5000 + "\n0 1\n")
        rc, out, err = run(capsys, "count", str(f))
        assert (rc, out) == (2, "") and err.startswith("error:")
        assert len(err.splitlines()) == 1 and len(err) < 100  # not every digit


class TestDecompose:
    def test_text_report(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--gen", "stacked:2")
        assert rc == 0
        assert out.splitlines() == ["(3, 7, 5, summit)", "(0, 3, 4, bottleneck)"]

    def test_none(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--gen", "powerset:3")
        assert (rc, out) == (0, "none\n")

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--gen", "stacked:2", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["summit"] == [
            {"bottom": 3, "top": 7, "size": 5, "members": [3, 4, 5, 6, 7]}]
        assert payload["bottleneck"] == [
            {"bottom": 0, "top": 3, "size": 4, "members": [0, 1, 2, 3]}]

    def test_json_reports_empty_lists(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--gen", "powerset:2", "--json")
        assert rc == 0
        assert json.loads(out) == {"summit": [], "bottleneck": []}


class TestValidate:
    def test_clean_file(self, capsys, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text(DIAMOND_TEXT)
        rc, out, _ = run(capsys, "validate", str(f))
        assert rc == 0
        assert out == "OK: diamond width 2, 1 component\n"

    def test_reduced_and_dropped_are_reported(self, capsys, tmp_path):
        f = tmp_path / "messy.txt"
        f.write_text("4\n0 1\n0 1\n0 2\n1 3\n2 3\n0 3\n2 2\n")
        rc, out, _ = run(capsys, "validate", str(f))
        assert rc == 0
        assert out.splitlines() == [
            "OK: diamond width 2, 1 component",
            "reduced 1 transitive edge",
            "dropped 2 duplicate or reflexive edges",
        ]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n0 1\n"))
        rc, out, _ = run(capsys, "validate", "-")
        assert rc == 0
        assert out == "OK: other n=3, 2 components\n"

    def test_empty_poset(self, capsys, tmp_path):
        # valid input, though count refuses it: closure systems need elements
        f = tmp_path / "empty.txt"
        f.write_text("0\n")
        rc, out, _ = run(capsys, "validate", str(f))
        assert (rc, out) == (0, "OK: empty poset\n")
        rc, out, err = run(capsys, "count", str(f))
        assert (rc, out) == (2, "")
        assert "nonempty" in err

    def test_cycle_is_exit_2(self, capsys, tmp_path):
        f = tmp_path / "cycle.txt"
        f.write_text("3\n0 1\n1 2\n2 0\n")
        rc, _, err = run(capsys, "validate", str(f))
        assert rc == 2 and "cycle" in err

    def test_parse_error_carries_line_number(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 1\n0 zz\n")
        rc, _, err = run(capsys, "validate", str(f))
        assert rc == 2 and "line 3" in err


class TestSelfcheck:
    def test_small_run_passes(self, capsys):
        rc, out, _ = run(capsys, "selfcheck", "--instances", "25",
                         "--max-size", "7", "--seed", "5")
        assert rc == 0
        assert out.startswith("25/25 OK in ")
        assert "(seed 5, sizes up to 7)" in out

    @pytest.mark.parametrize("flag,value", [
        ("--instances", "-3"), ("--instances", "0"), ("--max-size", "0"),
    ])
    def test_checking_nothing_is_an_input_error(self, capsys, flag, value):
        rc, out, err = run(capsys, "selfcheck", flag, value)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: selfcheck needs")

    def test_sizes_past_the_enumeration_cap_are_refused_before_any_instance(
            self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr("closurecount.selfcheck.random_connected_poset", refuse)
        rc, out, err = run(capsys, "selfcheck", "--max-size", "23")
        assert (rc, out) == (3, "")
        assert err == "error: max size 23 exceeds the enumeration cap 22\n"

    def test_a_mismatch_is_exit_1_and_reproducible_from_its_seed(self, capsys, monkeypatch):
        real = selfcheck.count_closures

        def one_off(p, t):
            result = real(p, t)
            return result._replace(value=result.value + 1)

        monkeypatch.setattr(selfcheck, "count_closures", one_off)
        rc, out, _ = run(capsys, "selfcheck", "--instances", "4",
                         "--max-size", "6", "--seed", "11")
        assert rc == 1
        head, line = out.splitlines()
        assert head.startswith("0/4 OK in ")
        m = re.fullmatch(r"MISMATCH on instance #(\d+): n=(\d+), covers=(.*), "
                         r"required=(.*), decomposition=(\d+), enumeration=(\d+)", line)
        index, n, covers, required, got, want = m.groups()
        assert index == "0"
        rng = random.Random(11)
        p = random_connected_poset(rng, rng.randint(1, 6))
        t = random_submask(rng, p.full_mask, selfcheck.MAX_T)
        assert (n, covers, required) == (str(p.n), str(sorted(p.covers)),
                                         str(sorted(bits(t))))
        assert int(want) == oracle_count(p, t) == int(got) - 1

    def test_a_disjointness_violation_is_exit_1(self, capsys, monkeypatch):
        real = selfcheck.count_closures

        def overlapping(p, t):
            # the root claims to split a suborder holding a required element
            result = real(p, t)
            return result._replace(trace=result.trace._replace(iso_original=1,
                                                               t_original=1))

        monkeypatch.setattr(selfcheck, "count_closures", overlapping)
        rc, out, _ = run(capsys, "selfcheck", "--instances", "3", "--seed", "2")
        assert rc == 1
        head, line = out.splitlines()
        assert head.startswith("3/3 OK in ")
        assert line == "suborder/constraint disjointness violations: 3"


@pytest.mark.parametrize("argv", [
    ("count", "--gen", "chain:3", "--cap", "-5"),
    ("count", "--gen", "powerset:3", "--cap", "-5"),
    ("count", "--gen", "powerset:3", "--cap", "-5", "--force"),
    ("count", "--gen", "chain:3", "--cap", "-1"),
    # refused before --force lets the leaf visit its 693,773 states
    ("count", "--gen", "powerset:5", "--force", "--cap", "-5"),
])
def test_negative_cap_is_an_input_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: state budget")


NINES, MORE_NINES = "9" * 4000, "9" * 5000  # the second past the int/str digit limit


class TestLongInputIsQuotedShort:
    # every message that quotes outside input cuts the quote down to its
    # two ends, so a long number or line is refused in one short line
    @pytest.mark.parametrize("option,text", [
        pytest.param("file", '{"n": %s, "edges": []}' % NINES, id="json n"),
        pytest.param("file", '{"n": -%s, "edges": []}' % NINES, id="json negative n"),
        pytest.param("file", '{"n": 3, "edges": [[0, %s]]}' % NINES, id="json endpoint"),
        pytest.param("file", '{"n": 3, "edges": [[0, "%s"]]}' % NINES, id="json string endpoint"),
        pytest.param("file", '{"n": 3, "edges": [[%s]]}' % ", ".join(["1"] * 2000),
                     id="json long edge"),
        pytest.param("file", "3\n0 %s\n" % NINES, id="text endpoint"),
        pytest.param("file", "3\n0 %s\n" % MORE_NINES, id="text endpoint past the digit limit"),
        pytest.param("file", "3\n0 1 %s\n" % " ".join(["2"] * 2000), id="text long line"),
        pytest.param("file", "x%s\n" % NINES, id="text count"),
        pytest.param("file", "-%s\n" % NINES, id="text negative count"),
        pytest.param("file", "3000\n" + "".join("%d %d\n" % (i, (i + 1) % 3000)
                                                for i in range(3000)), id="text long cycle"),
        pytest.param("--required", "1," + NINES, id="required id"),
        pytest.param("--required", MORE_NINES, id="required id past the digit limit"),
        pytest.param("--gen", "chain:" + NINES, id="gen size"),
        pytest.param("--gen", "chain:-" + NINES, id="gen negative size"),
        pytest.param("--gen", "chain:x" + NINES, id="gen non-integer size"),
        pytest.param("--gen", "powerset:" + NINES, id="gen powerset exponent"),
        pytest.param("--gen", "stacked:" + "9" * 4300 + ":powerset:3",
                     id="gen size past the digit limit"),
        pytest.param("--gen", "x" * 4000 + ":3", id="gen family"),
        pytest.param("--gen", "random:3:" + MORE_NINES, id="gen seed"),
    ])
    def test_one_short_line(self, capsys, tmp_path, option, text):
        if option == "file":
            path = tmp_path / "input"
            path.write_text(text)
            argv = ["count", str(path)]
        elif option == "--required":
            argv = ["count", "--gen", "chain:3", "--required", text]
        else:
            argv = ["count", "--gen", text]
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


def refused_by_argparse(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestArgparseRefusalsAreShort:
    # argparse quotes the offending argument in its refusal; the parser
    # cuts that message down as errors.excerpt cuts a value
    @pytest.mark.parametrize("argv", [
        pytest.param(("count", "--gen", "chain:3", "--cap", MORE_NINES), id="count cap"),
        pytest.param(("selfcheck", "--instances", MORE_NINES), id="selfcheck instances"),
        pytest.param(("selfcheck", "--max-size", MORE_NINES), id="selfcheck max size"),
        pytest.param(("selfcheck", "--seed", MORE_NINES), id="selfcheck seed"),
        pytest.param(("bogus" + MORE_NINES,), id="unknown subcommand"),
        pytest.param(("count", "--" + MORE_NINES), id="unknown option"),
        pytest.param(("count", "a") + ("b",) * 2000, id="unrecognized arguments"),
    ])
    def test_short_usage_error(self, capsys, argv):
        code, out, err = refused_by_argparse(capsys, *argv)
        assert (code, out) == (2, "")
        last = err.splitlines()[-1]
        assert ": error: " in last and len(last) < 200 and len(err) < 600


class TestCommandSet:
    def test_bench_is_not_a_subcommand(self, capsys):
        code, out, err = refused_by_argparse(capsys, "bench", "--family", "chain:3")
        assert (code, out) == (2, "")
        # later Pythons drop the quotes around the choices
        refusal, choices = err.splitlines()[-1].split(" (choose from ")
        assert refusal == "closurecount: error: argument command: invalid choice: 'bench'"
        assert re.findall(r"\w+", choices) == ["count", "decompose", "validate", "selfcheck"]

    def test_help_lists_the_four_subcommands(self, capsys):
        code, out, _ = refused_by_argparse(capsys, "--help")
        assert code == 0 and "{count,decompose,validate,selfcheck}" in out
        assert re.findall(r"^    (\w+) ", out, re.M) == [
            "count", "decompose", "validate", "selfcheck"]

    @pytest.mark.parametrize("argv,rest", [
        (("count", "--gen", "chain:3", "a", "b"), "b"),
        (("count", "--gen", "chain:3", "--bogus"), "--bogus"),
    ], ids=["extra positional", "unknown option"])
    def test_extra_arguments_are_refused_by_the_subcommand(self, capsys, argv, rest):
        code, out, err = refused_by_argparse(capsys, *argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines[0].startswith("usage: closurecount count [-h] [--gen SPEC]")
        assert lines[-1] == "closurecount count: error: unrecognized arguments: " + rest


class TestParserReuse:
    # main builds its parser once per process; parsing must not carry
    # anything from one call into the next
    def test_calls_in_sequence_keep_their_own_output(self, capsys, tmp_path):
        code, out, err = refused_by_argparse(capsys, "count", "--cap")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --cap: expected one argument\n")

        assert run(capsys, "count", "--gen", "chain:3", "--required", "1", "--pretty",
                   "--force", "--trace") == (0, "2\n", "chain n=3 -> 2 [|T|=1]\n")

        # no --required, --pretty or --trace left over from the last call
        assert run(capsys, "count", "--gen", "chain:3") == (0, "4\n", "")

        rc, out, _ = run(capsys, "decompose", "--gen", "stacked:2", "--json")
        assert rc == 0 and json.loads(out) == {
            "summit": [{"bottom": 3, "top": 7, "size": 5, "members": [3, 4, 5, 6, 7]}],
            "bottleneck": [{"bottom": 0, "top": 3, "size": 4, "members": [0, 1, 2, 3]}]}

        f = tmp_path / "d.txt"
        f.write_text(DIAMOND_TEXT)
        assert run(capsys, "validate", str(f)) == (
            0, "OK: diamond width 2, 1 component\n", "")

        helps = [refused_by_argparse(capsys, "--help") for _ in range(2)]
        assert helps[0] == helps[1]
        assert helps[0][0] == 0 and helps[0][1].startswith("usage: closurecount")

    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        assert run(capsys, "count", "--gen", "chain:3")[0] == 0
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run(capsys, "count", "--gen", "chain:3")
        refused_by_argparse(capsys, "count", "--cap", "x")
        run(capsys, "decompose", "--gen", "stacked:2")
        refused_by_argparse(capsys, "--help")
        refused_by_argparse(capsys, "count", "--help")
        run(capsys, "count", "--gen", "chain:3", "--pretty")
        assert constructed == []

        # a fresh build is the top-level parser and one per subcommand
        cli._build_parser.cache_clear()
        run(capsys, "count", "--gen", "chain:3")
        run(capsys, "count", "--gen", "chain:4")
        assert len(constructed) == 5


class TestRandomSpecBudget:
    def test_unconnectable_random_spec_is_exit_3(self):
        # a sample on 300 elements is connected with odds near e^-15, so
        # only the sampler's draw budget ends it; a child process with a
        # wall timeout turns a hang into a failure
        def cpu():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        before = cpu()
        proc = subprocess.run(
            [sys.executable, "-m", "closurecount", "count", "--gen", "random:300"],
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "300 elements" in proc.stderr and cpu() - before < 2


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "closurecount", "count", "--gen", "chain:5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "16\n"

    def test_unknown_subcommand_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "closurecount", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode != 0
