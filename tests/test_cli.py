"""Command line: exit codes, reports, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repsieve import (
    FiniteStructure,
    RepresentationMap,
    TheorySpec,
    Workspace,
    load_workspace,
    save_workspace,
    sieve,
)
from repsieve import cli
from repsieve.cli import run_command

from conftest import save_lin4
from reference import validate_trace

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def theories_ws(tmp_path):
    ws = Workspace()
    ws.theories["eq3x3"] = TheorySpec.make("eq_rel", classes=3, size=3)
    path = tmp_path / "theories.json"
    save_workspace(ws, path)
    return str(path)


@pytest.fixture
def ex2_ws(tmp_path, theories_ws):
    out = str(tmp_path / "ex2.json")
    assert run_command(["build-ex2", theories_ws, "--theory", "eq3x3", "--out", out]) == 0
    return out


@pytest.fixture
def lin4_ws(tmp_path):
    return save_lin4(tmp_path / "lin4.json")


class TestDemo:
    def test_copy_index_clean(self, capsys):
        assert run_command(["demo", "eqrel", "--mode", "copy-index"]) == 0
        out = capsys.readouterr().out
        assert "OK, 397 tuple-pairs checked" in out
        assert "F[t1,0](c[t0,0])" in out

    def test_literal_names_the_collapse(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert run_command(["demo", "eqrel", "--mode", "literal", "--out", out]) == 1
        doc = json.loads(open(out).read())
        assert doc["kind"] == "violation-report"
        assert any(e["a"] == [4, 5] and e["b"] == [4, 4] for e in doc["entries"])
        assert "(4, 5)" in capsys.readouterr().out

    def test_other_flavors(self, capsys):
        assert run_command(["demo", "nested"]) == 0
        assert "OK, 87 tuple-pairs checked" in capsys.readouterr().out
        assert run_command(["demo", "pureset"]) == 0
        assert "OK, 250 tuple-pairs checked" in capsys.readouterr().out


class TestCheckers:
    def test_missing_file(self, capsys):
        assert run_command(["check-representation", "missing.file"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_check_built_ex2(self, ex2_ws, capsys):
        assert run_command(["check-representation", ex2_ws, "--max-tuple-len", "3"]) == 0
        assert "OK, 397" in capsys.readouterr().out

    def test_check_fact14_agrees(self, ex2_ws, capsys):
        assert run_command(["check-fact14", ex2_ws]) == 0
        assert "OK," in capsys.readouterr().out

    def test_ef_delta_accepted(self, ex2_ws):
        assert run_command(["check-representation", ex2_ws, "--delta", "ef:1"]) == 0

    def test_ef_depth_zero_accepted(self, ex2_ws):
        assert run_command(["check-representation", ex2_ws, "--delta", "ef:0"]) == 0

    def test_negative_ef_depth_rejected(self, ex2_ws, capsys):
        assert run_command(["check-representation", ex2_ws, "--delta", "ef:-1"]) == 2
        assert "error: --delta must be 'orbit' or 'ef:D', got 'ef:-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["ef:3_0", "ef:+3", "ef: 3", "ef:\u0663"],
                             ids=["underscore", "plus", "space", "arabic-indic"])
    def test_ef_depth_takes_ascii_digits_only(self, ex2_ws, delta, capsys):
        assert run_command(["check-representation", ex2_ws, "--delta", delta]) == 2
        assert f"error: --delta must be 'orbit' or 'ef:D', got {delta!r}" in capsys.readouterr().err

    def test_ef_depth_past_the_recursion_limit(self, lin4_ws, tmp_path):
        # a bare target gives (0, 1) and (1, 0) one qf type; the game tells them apart
        out = str(tmp_path / "check.json")
        assert run_command(["check-representation", lin4_ws, "--max-tuple-len", "2",
                            "--delta", "ef:5000", "--out", out]) == 1
        doc = json.loads(open(out).read())
        assert doc["kind"] == "violation-report"
        assert {"a": [1, 0], "b": [0, 1]} in [{k: e[k] for k in "ab"} for e in doc["entries"]]


class TestBuilders:
    def test_build_sid_report(self, theories_ws, tmp_path, capsys):
        out = str(tmp_path / "sid.json")
        assert run_command(["build-sid", theories_ws, "--theory", "eq3x3",
                            "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "decomposition"
        assert doc["layers"] == [[0, 1, 2], [3, 6], [4, 5, 7, 8]]
        rec4 = next(r for r in doc["records"] if r["element"] == 4)
        assert rec4["base"] == [3] and rec4["copy_index"] == 0

    def test_build_ex2_workspace_composes(self, ex2_ws):
        assert run_command(["sieve", ex2_ws, "--tuples", "[[0],[1],[2]]"]) == 0

    def test_built_workspaces_store_no_derived_data(self, theories_ws, ex2_ws, tmp_path):
        ex1_ws = str(tmp_path / "ex1.json")
        assert run_command(["build-ex1", theories_ws, "--theory", "eq3x3",
                            "--out", ex1_ws]) == 0
        for path in (ex1_ws, ex2_ws):
            with open(path) as fh:
                doc = json.load(fh)
            (name,) = doc["representations"]
            assert list(doc["structures"]) == [f"{name}.source"]
            assert "target" not in doc["representations"][name]
            assert all("carrier" not in e for e in doc["enrichments"].values())

    def test_build_ex1_checks_clean(self, theories_ws, tmp_path):
        out = str(tmp_path / "ex1.json")
        assert run_command(["build-ex1", theories_ws, "--theory", "eq3x3",
                            "--out", out]) == 0
        assert run_command(["check-representation", out, "--max-tuple-len", "3"]) == 0

    def test_unstable_theory_is_an_input_error(self, tmp_path, capsys):
        ws = Workspace()
        ws.theories["lin"] = TheorySpec.make("linear_order", n=4)
        path = str(tmp_path / "lin.json")
        save_workspace(ws, path)
        assert run_command(["build-ex2", path, "--theory", "lin"]) == 2
        assert "no independence oracle for an unstable catalog entry" in capsys.readouterr().err


@pytest.fixture
def two_maps_ws(tmp_path):
    """The identity of ``linear(4)`` into a bare target, which the checker
    refutes, and the identity of a bare 3-element set, which it accepts."""
    ws = Workspace()
    lin = load_workspace(save_lin4(tmp_path / "lin4.json")).representations["lin4.id"]
    ws.add_representation("lin", lin)
    bare = FiniteStructure.make(3)
    ws.add_representation("set", RepresentationMap.make(bare, bare, [0, 1, 2]))
    path = tmp_path / "two.json"
    save_workspace(ws, path)
    return str(path)


@pytest.fixture
def two_of_each_ws(two_maps_ws, tmp_path):
    """The two maps of ``two_maps_ws`` beside two theories."""
    ws = load_workspace(two_maps_ws)
    ws.theories["eq3x3"] = TheorySpec.make("eq_rel", classes=3, size=3)
    ws.theories["set4"] = TheorySpec.make("pure_set", n=4)
    path = tmp_path / "four.json"
    save_workspace(ws, path)
    return str(path)


class TestRepSelection:
    def test_rep_selects_a_map(self, two_maps_ws):
        assert run_command(["check-representation", two_maps_ws, "--rep", "lin"]) == 1
        assert run_command(["check-representation", two_maps_ws, "--rep", "set"]) == 0
        assert run_command(["sieve", two_maps_ws, "--rep", "set"]) == 0

    @pytest.mark.parametrize(
        "command, flag, section",
        [
            ("check-representation", "--rep", "representations"),
            ("build-ex2", "--theory", "theories"),
        ],
        ids=["representations", "theories"],
    )
    def test_missing_rep_is_named(self, two_of_each_ws, capsys, command, flag, section):
        assert run_command([command, two_of_each_ws]) == 2
        assert f"error: {flag} is required when the workspace holds 2 {section}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "command, flag, section",
        [("check-fact14", "--rep", "representations"), ("build-ex1", "--theory", "theories")],
        ids=["representations", "theories"],
    )
    def test_unknown_rep_is_named(self, two_of_each_ws, capsys, command, flag, section):
        assert run_command([command, two_of_each_ws, flag, "ghost"]) == 2
        assert f"error: {section}.ghost: no such entry" in capsys.readouterr().err

    def test_empty_sections_are_named(self, theories_ws, two_maps_ws, capsys):
        assert run_command(["check-representation", theories_ws]) == 2
        assert "error: representations: the workspace holds none" in capsys.readouterr().err
        assert run_command(["build-ex2", two_maps_ws]) == 2
        assert "error: theories: the workspace holds none" in capsys.readouterr().err


class TestWorkspaceValidation:
    @pytest.mark.parametrize(
        "tag, params, field",
        [
            ("eq_rel", {"classes": 3}, "params.size"),
            ("eq_rel", {"classes": "3", "size": 3}, "params.classes"),
            ("eq_rel", {"classes": True, "size": 3}, "params.classes"),
            ("eq_rel", {"classes": 0, "size": 3}, "params.classes"),
            ("eq_rel", {"classes": 3, "size": 3, "n": 3}, "params.n"),
            ("nested_eq_rel", {"sizes": [4]}, "params.sizes"),
            ("eq_rel", {"classes": 1000, "size": 3}, "params"),
        ],
        ids=["missing", "string", "bool", "zero", "stray", "one-level", "too-large"],
    )
    def test_bad_catalog_params(self, tmp_path, capsys, tag, params, field):
        path = tmp_path / "ws.json"
        theory = {"tag": tag, "params": params}
        path.write_text(json.dumps({"version": 1, "theories": {"t": theory}}))
        assert run_command(["build-ex2", str(path), "--theory", "t"]) == 2
        assert f"theories.t.{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([4], "expected a list of at least two positive integers, got [4]"),
            ([1] * 200_000, "200000 levels, more than the bound of 64"),
        ],
        ids=["echoed-as-given", "too-many-levels"],
    )
    def test_bad_level_sizes(self, tmp_path, capsys, sizes, message):
        path = tmp_path / "ws.json"
        theory = {"tag": "nested_eq_rel", "params": {"sizes": sizes}}
        path.write_text(json.dumps({"version": 1, "theories": {"t": theory}}))
        assert run_command(["build-ex2", str(path), "--theory", "t"]) == 2
        assert f"error: theories.t.params.sizes: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rep, enr: rep.update(target=rep["source"]),
             "representations.eq3x3.ex2.target: not allowed beside a carrier"),
            (lambda rep, enr: enr["levels"][0].pop(),
             "representations.eq3x3.ex2: invalid enrichment: elements without a level"),
            (lambda rep, enr: enr["levels"][0].append(len(enr["levels"][0])),
             "representations.eq3x3.ex2: invalid enrichment: level 0: element"),
            (lambda rep, enr: enr["unary_fns"].append({"name": "sub:F[t1,0]:0", "graph": []}),
             "representations.eq3x3.ex2: invalid enrichment: function sub:F[t1,0]:0: name already used"),
        ],
        ids=["stored-target", "enrichment-smaller", "enrichment-larger", "symbol-clash"],
    )
    def test_bad_enriched_entry(self, ex2_ws, capsys, edit, message):
        with open(ex2_ws) as fh:
            doc = json.load(fh)
        edit(doc["representations"]["eq3x3.ex2"], doc["enrichments"]["eq3x3.ex2.enrichment"])
        with open(ex2_ws, "w") as fh:
            json.dump(doc, fh)
        assert run_command(["check-representation", ex2_ws]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_bool_map_image(self, lin4_ws, capsys):
        with open(lin4_ws) as fh:
            doc = json.load(fh)
        doc["representations"]["lin4.id"]["map"][1] = True
        with open(lin4_ws, "w") as fh:
            json.dump(doc, fh)
        assert run_command(["check-representation", lin4_ws]) == 2
        assert "representations.lin4.id: image True" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (["universe"], True, "universe"),
            (["relations", 0, "arity"], True, "relations[0].arity"),
            (["relations", 0, "tuples", 0, 1], True, "relations[0].tuples[0][1]"),
            (["relations", 0, "tuples", 0], 5, "relations[0].tuples[0]"),
            (["functions"], [{"name": "g", "arity": 1, "graph": [7]}], "functions[0].graph[0]"),
            (["functions"], [{"name": "g", "arity": -1, "graph": [[]]}], "functions[0].arity"),
        ],
        ids=["bool-universe", "bool-arity", "bool-element", "int-tuple", "int-graph-row",
             "negative-arity"],
    )
    def test_bad_structure_field(self, lin4_ws, capsys, path, value, field):
        with open(lin4_ws) as fh:
            doc = json.load(fh)
        node = doc["structures"]["lin4.id.source"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with open(lin4_ws, "w") as fh:
            json.dump(doc, fh)
        assert run_command(["check-representation", lin4_ws]) == 2
        err = capsys.readouterr().err
        assert f"structures.lin4.id.source.{field}: expected" in err
        assert "Traceback" not in err


class TestSieve:
    def test_trace_artifact(self, ex2_ws, tmp_path):
        out = str(tmp_path / "trace.json")
        assert run_command(["sieve", ex2_ws, "--tuples", "[[0],[1],[2]]",
                            "--target", "3", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "sieve-trace"
        assert doc["counts"]["stage3"] == 3
        assert doc["survivors"] == [0, 1, 2]
        assert doc["certificate"]["kind"] == "sunflower-certificate"

    def test_bottleneck_exits_one(self, ex2_ws, tmp_path, capsys):
        out = str(tmp_path / "bn.json")
        assert run_command(["sieve", ex2_ws, "--tuples", "[[0],[3]]",
                            "--out", out]) == 1
        doc = json.loads(open(out).read())
        assert doc["kind"] == "sieve-bottleneck" and doc["stage"] == "stage0"

    def test_default_singletons(self, ex2_ws):
        assert run_command(["sieve", ex2_ws, "--target", "2"]) == 0

    def test_map_without_a_carrier(self, lin4_ws, tmp_path):
        out = str(tmp_path / "trace.json")
        assert run_command(["sieve", lin4_ws, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["survivors"] == [0, 1, 2, 3]
        assert doc["xi"] == 1

    def test_build_ex1_workspace(self, theories_ws, tmp_path):
        # a carrier-less map whose target has the enrichment's functions
        path, out = str(tmp_path / "ex1.json"), str(tmp_path / "trace.json")
        assert run_command(["build-ex1", theories_ws, "--theory", "eq3x3", "--out", path]) == 0
        assert run_command(["sieve", path, "--out", out]) == 0
        doc = json.loads(open(out).read())
        r = load_workspace(path).representations["eq3x3.ex1"]
        trace = sieve(r, [(a,) for a in range(r.source.size)])
        assert validate_trace(trace) == []
        assert doc["counts"] == trace.survivor_counts()
        assert list(doc["counts"].values()) == [9, 4, 4, 4, 2]

    def test_unread_relation_is_a_stage2_bottleneck(self, tmp_path):
        # the identity of a 2-element set into a target where only 0 is in P
        target = FiniteStructure.make(2, relations={"P": (1, {(0,)})})
        ws = Workspace()
        ws.add_representation("id", RepresentationMap.make(FiniteStructure.make(2), target, [0, 1]))
        path, out = str(tmp_path / "p.json"), str(tmp_path / "bn.json")
        save_workspace(ws, path)
        assert run_command(["sieve", path, "--out", out]) == 1
        doc = json.loads(open(out).read())
        assert doc["kind"] == "sieve-bottleneck" and doc["stage"] == "stage2"
        assert doc["largest"] == 1

    def test_long_rows_exit_without_a_traceback(self, tmp_path, capsys):
        ws = Workspace()
        ws.theories["pure12"] = TheorySpec.make("pure_set", n=12)
        theories, path = str(tmp_path / "theories.json"), str(tmp_path / "ex2.json")
        save_workspace(ws, theories)
        assert run_command(["build-ex2", theories, "--out", path]) == 0
        rows = [[i % 12 for i in range(1500)], [i * 5 % 12 for i in range(1500)]]
        out = str(tmp_path / "bn.json")
        assert run_command(["sieve", path, "--tuples", json.dumps(rows), "--out", out]) == 1
        assert json.loads(open(out).read())["stage"] == "stage3"

    def test_malformed_tuples(self, ex2_ws, capsys):
        assert run_command(["sieve", ex2_ws, "--tuples", "{oops"]) == 2

    def test_empty_tuples_name_the_flag(self, ex2_ws, capsys):
        assert run_command(["sieve", ex2_ws, "--tuples", "[]"]) == 2
        assert "error: --tuples: expected a nonempty list of lists" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tuples, field, got",
        [
            ("[[99]]", "tuples[0][0]", "99"),
            ('[["a"]]', "tuples[0][0]", "'a'"),
            ("[[-1]]", "tuples[0][0]", "-1"),
            ("[[true]]", "tuples[0][0]", "True"),
            ("[[0, 1], [2, -1]]", "tuples[1][1]", "-1"),
        ],
        ids=["too-large", "string", "negative", "bool", "second-tuple"],
    )
    def test_elements_outside_the_source_universe(self, ex2_ws, capsys, tuples, field, got):
        assert run_command(["sieve", ex2_ws, "--tuples", tuples]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}: expected an element of the source universe 0..8, got {got}" in err


class TestDeltaSystem:
    def test_explicit_sets(self, capsys):
        assert run_command(["delta-system", "--sets", "[[1,2],[3,4],[5,6],[1,3]]",
                            "--target", "3"]) == 0
        out = capsys.readouterr().out
        assert "root:" in out and "U (agreement positions)" in out

    def test_impossible_target(self, capsys):
        assert run_command(["delta-system", "--sets", "[[1,2],[1,3],[2,3]]",
                            "--target", "3"]) == 1

    def test_exact_packing_is_bounded(self):
        # the 190 edges of the complete graph on 20 points hold no 20
        # disjoint ones; searched to the end, that takes hours
        sets = json.dumps([[a, b] for a in range(20) for b in range(a + 1, 20)])
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "repsieve.cli", "delta-system", "--sets", sets, "--target", "20"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout.startswith("no delta system of size 20 (inconclusive): ")

    def test_random_families_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run_command(["delta-system", "--random", "25", "--seed", "11",
                            "--out", a]) == 0
        assert run_command(["delta-system", "--random", "25", "--seed", "11",
                            "--out", b]) == 0
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("argv, rejected_on, line", [
        (["--sets", "[[1,2],[3,4],[5,6]]"], 0, "certificate rejected: bad"),
        (["--random", "5"], 2, "certificate rejected on round 2: bad"),
    ], ids=["sets", "random"])
    def test_rejected_certificate_is_reported(self, argv, rejected_on, line, monkeypatch, capsys):
        verdicts = iter([[]] * rejected_on + [["bad"]])
        monkeypatch.setattr(cli, "validate_sunflower", lambda family, cert: next(verdicts))
        assert run_command(["delta-system", *argv]) == 1
        out = capsys.readouterr().out
        assert out.startswith("sunflower certificate") and out.endswith("\n" + line + "\n")

    def test_random_failure_names_its_round(self, capsys):
        assert run_command(["delta-system", "--random", "3", "--target", "10"]) == 1
        assert capsys.readouterr().out.endswith(", target is 10\nfailed on round 0\n")

    def test_needs_input(self, capsys):
        assert run_command(["delta-system"]) == 2

    @pytest.mark.parametrize("extra", [
        ["--random", "5", "--seed", "3"], ["--random", "5"], ["--seed", "3"],
    ], ids=["random-and-seed", "random", "seed"])
    def test_sets_exclude_random(self, extra, capsys):
        assert run_command(["delta-system", "--sets", "[[1,2],[3,4],[5,6]]", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--sets" in err and "--random" in err

    def test_negative_round_count_rejected(self, capsys):
        assert run_command(["delta-system", "--random", "-5"]) == 2
        assert "--random must be >= 0, got -5" in capsys.readouterr().err

    def test_round_count_is_bounded(self, capsys, monkeypatch):
        # the bound is checked before any family is drawn
        monkeypatch.setattr(cli, "delta_system", None)
        assert run_command(["delta-system", "--random", "100001"]) == 2
        assert "--random must be <= 100000, got 100001" in capsys.readouterr().err

    def test_empty_family_names_the_flag(self, capsys):
        assert run_command(["delta-system", "--sets", "[]"]) == 2
        assert "error: --sets: expected a nonempty list of lists" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sets, field, got",
        [
            ("[[[1]],[[2]]]", "--sets[0][0]", "[1]"),
            ("[[{}],[2]]", "--sets[0][0]", "{}"),
            ('[[1,"a",3],[1,"a",4]]', "--sets[0][1]", "'a'"),
            ("[[1,2],[3,4.5]]", "--sets[1][1]", "4.5"),
            ("[[true],[2]]", "--sets[0][0]", "True"),
        ],
        ids=["list", "object", "string", "float", "bool"],
    )
    def test_non_integer_set_elements_rejected(self, sets, field, got, capsys):
        assert run_command(["delta-system", "--sets", sets, "--target", "2"]) == 2
        assert f"error: {field}: expected an integer, got {got}" in capsys.readouterr().err

class TestProbe:
    def test_refutes_identity_on_linear(self, lin4_ws, tmp_path, capsys):
        out = str(tmp_path / "probe.json")
        assert run_command(["probe-instability", lin4_ws, "--phi", "lt",
                            "--chain", "0,1,2,3", "--out", out]) == 1
        doc = json.loads(open(out).read())
        assert doc["kind"] == "probe-report"
        assert doc["status"] == "representation_refuted"
        assert doc["pair"] == [0, 1]

    def test_chain_precondition(self, ex2_ws, capsys):
        assert run_command(["probe-instability", ex2_ws, "--phi", "E",
                            "--chain", "0,1,2"]) == 2
        assert "chain precondition" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "chain, field, got",
        [("--chain=0,1,99", "chain[2][0]", "99"), ("--chain=-1,0", "chain[0][0]", "-1")],
        ids=["too-large", "negative"],
    )
    def test_chain_outside_the_source_universe(self, lin4_ws, chain, field, got, capsys):
        assert run_command(["probe-instability", lin4_ws, "--phi", "lt", chain]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}: expected an element of the source universe 0..3, got {got}" in err

    @pytest.mark.parametrize("chain", ["0,,1", "0,1,", ""], ids=["inner", "trailing", "empty"])
    def test_empty_chain_items_rejected(self, lin4_ws, chain, capsys):
        assert run_command(["probe-instability", lin4_ws, "--phi", "lt", "--chain", chain]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --chain must be a comma-separated integer list")

    def test_short_chain_inconclusive(self, lin4_ws, capsys):
        assert run_command(["probe-instability", lin4_ws, "--phi", "lt",
                            "--chain", "0"]) == 0
        assert "inconclusive" in capsys.readouterr().out

# every integer flag, and the commands that read it
INT_FLAGS = [
    ["check-representation", "{lin4}", "--max-tuple-len"],
    ["check-fact14", "{lin4}", "--max-tuple-len"],
    ["sieve", "{lin4}", "--target"],
    ["delta-system", "--random=1", "--target"],
    ["delta-system", "--random"],
    ["delta-system", "--random=1", "--seed"],
    ["probe-instability", "{lin4}", "--phi", "lt", "--chain"],
]


@pytest.mark.parametrize("value", ["1_0", "+2", " 2", "\u0663"],
                         ids=["underscore", "plus", "space", "arabic-indic"])
@pytest.mark.parametrize("argv", INT_FLAGS, ids=[" ".join(a[::len(a) - 1]) for a in INT_FLAGS])
def test_integer_flags_take_ascii_digits_only(argv, value, lin4_ws, capsys):
    flag = argv[-1]
    argv = [a.format(lin4=lin4_ws) for a in argv[:-1]] + [f"{flag}={value}"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and f"expected an integer, got {value!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sieve", "missing.file"],
    ["delta-system", "--random", "5"],
    ["delta-system", "--sets", "[[1,2],[1,3]]"],
], ids=["sieve", "delta-system-random", "delta-system-sets"])
def test_small_target_checked_before_any_work(argv, capsys):
    assert run_command([*argv, "--target", "1"]) == 2
    captured = capsys.readouterr()
    assert "error: --target must be >= 2, got 1" in captured.err and captured.out == ""


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["check-representation", "check-fact14"])
def test_short_max_tuple_len_names_the_flag(command, value, capsys):
    assert run_command([command, "missing.file", f"--max-tuple-len={value}"]) == 2
    captured = capsys.readouterr()
    assert f"error: --max-tuple-len must be >= 1, got {value}" in captured.err
    assert captured.out == ""


# options that no command takes any more, with the command that once took each
REMOVED = [
    ["delta-system", "--random=1", "--family-size=9"],
    ["delta-system", "--random=1", "--set-size=2"],
    ["delta-system", "--random=1", "--universe=100"],
    ["probe-instability", "{lin4}", "--phi=lt", "--chain=0,1", "--delta=orbit"],
    ["demo", "eqrel", "--classes=3"],
    ["demo", "eqrel", "--size=3"],
    ["demo", "nested", "--sizes=2,2,2"],
    ["demo", "pureset", "--n=6"],
    ["demo", "eqrel", "--max-tuple-len=3"],
    ["demo", "eqrel", "--delta=orbit"],
]


@pytest.mark.parametrize("argv", REMOVED, ids=[" ".join(a[::len(a) - 1]) for a in REMOVED])
def test_removed_options_exit_two(argv, lin4_ws, capsys):
    flag = argv[-1].split("=")[0]
    assert run_command([a.format(lin4=lin4_ws) for a in argv]) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {argv[-1]}" in captured.err and captured.out == ""
    assert run_command([argv[0], "--help"]) == 0
    assert flag not in capsys.readouterr().out


class TestStartup:
    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        # each command is one short process that usually runs without a
        # bytecode cache, so these modules would be compiled on every start
        code = ("import repsieve.cli, sys; "
                "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


# one command per kind of machine report the CLI writes, with its exit code
REPORTS = [
    ("violation-report", ["check-representation", "{ex2}"], 0),
    ("decomposition", ["build-sid", "{theories}", "--theory", "eq3x3"], 0),
    ("sieve-trace", ["sieve", "{ex2}", "--tuples", "[[0],[1],[2]]", "--target", "3"], 0),
    ("sieve-bottleneck", ["sieve", "{ex2}", "--tuples", "[[0],[1]]", "--target", "3"], 1),
    ("sunflower-certificate", ["delta-system", "--sets", "[[1,2],[3,4],[5,6],[1,3]]"], 0),
    ("delta-failure", ["delta-system", "--sets", "[[1,2],[1,3]]", "--target", "3"], 1),
    ("probe-report", ["probe-instability", "{lin4}", "--phi", "lt", "--chain", "0,1,2,3"], 1),
]


@pytest.mark.parametrize("kind, argv, code", REPORTS, ids=[kind for kind, _, _ in REPORTS])
def test_reports_are_sorted_indented_json(kind, argv, code, theories_ws, ex2_ws, lin4_ws,
                                          tmp_path, capsys):
    paths = {"theories": theories_ws, "ex2": ex2_ws, "lin4": lin4_ws}
    out = tmp_path / "report.json"
    assert run_command([a.format(**paths) for a in argv] + ["--out", str(out)]) == code
    assert capsys.readouterr().out.strip()
    text = out.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc["kind"] == kind
