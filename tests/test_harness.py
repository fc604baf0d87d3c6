"""Generator, file formats, experiment runner, and the command-line tool."""

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dfep
from dfep.harness.experiment import (
    _CONFIG_READERS,
    BoundViolation,
    ExperimentConfig,
    load_config,
    run_experiment,
    write_table,
)
from dfep.combine import combine_trees, combine_uniform
from dfep.harness.cli import _emit_json, _emit_tree, build_parser, main
from dfep.harness.generate import GeneratorSpec, generate
from dfep.harness.io import (
    MAX_TREE_DEPTH,
    _RATIONAL_TEXT,
    _encode_tree,
    _tree_from_doc,
    export_dot,
    format_rational,
    instance_to_doc,
    parse_rational,
    read_instance,
    read_tree,
    tree_to_doc,
    write_instance,
    write_tree,
)
from dfep.model import (
    Instance,
    Internal,
    Leaf,
    evaluate,
    validate_instance,
    validate_tree,
)
from tests.conftest import (
    deep_chain,
    result_or_error,
    run_dfep,
    run_python,
    splice_cases,
    tree_signature,
)


def two_object_instance():
    """One test with answer-dependent prices: worst 5, expected 17/4."""
    return Instance.create(
        classes=[0, 1],
        outcomes=[[1, 2]],
        costs=[[2, 5]],
        priors=[Fraction(1, 4), Fraction(3, 4)],
        name="pair",
    )


class TestGenerator:
    def test_same_spec_same_instance(self):
        spec = GeneratorSpec(
            num_objects=7,
            num_classes=3,
            num_tests=5,
            cost_mode="value-dependent-random",
            prior_mode="random",
            seed=99,
        )
        assert generate(spec) == generate(spec)
        assert instance_to_doc(generate(spec)) == instance_to_doc(generate(spec))

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(num_objects=7, num_classes=3, num_tests=5, seed=1))
        b = generate(GeneratorSpec(num_objects=7, num_classes=3, num_tests=5, seed=2))
        assert a.outcome_table != b.outcome_table

    def test_generated_instances_are_valid(self):
        for seed in range(20):
            spec = GeneratorSpec(
                num_objects=6,
                num_classes=4,
                num_tests=4,
                num_outcomes=3,
                cost_mode="fixed-random",
                prior_mode="random",
                seed=seed,
            )
            assert validate_instance(generate(spec)) == []

    def test_unit_mode_prices_everything_at_one(self):
        inst = generate(GeneratorSpec(num_objects=5, num_classes=2, num_tests=4, seed=3))
        assert all(c == 1 for row in inst.cost_table for c in row)

    def test_fixed_mode_prices_do_not_depend_on_the_answer(self):
        inst = generate(
            GeneratorSpec(
                num_objects=5,
                num_classes=2,
                num_tests=6,
                cost_mode="fixed-random",
                cost_range=(2, 9),
                seed=3,
            )
        )
        for row in inst.cost_table:
            assert len(set(row)) == 1
            assert 2 <= row[0] <= 9

    def test_value_dependent_mode_varies_within_a_test(self):
        inst = generate(
            GeneratorSpec(
                num_objects=5,
                num_classes=2,
                num_tests=8,
                cost_mode="value-dependent-random",
                seed=5,
            )
        )
        assert any(len(set(row)) > 1 for row in inst.cost_table)

    def test_uniform_priors(self):
        inst = generate(GeneratorSpec(num_objects=5, num_classes=2, num_tests=4, seed=0))
        assert inst.priors == (Fraction(1, 5),) * 5

    def test_random_priors_sum_to_one(self):
        inst = generate(
            GeneratorSpec(
                num_objects=6, num_classes=3, num_tests=4, prior_mode="random", seed=8
            )
        )
        assert sum(inst.priors) == 1
        assert len(set(inst.priors)) > 1

    def test_repair_appends_flagged_unit_tests(self):
        # Seed 1 draws 4 singleton classes whose two tests leave one pair
        # fused; the repair isolates one member and says so in the name.
        spec = GeneratorSpec(num_objects=4, num_classes=4, num_tests=2, seed=1)
        inst = generate(spec)
        assert inst.name == "seed1+1-repair-tests"
        assert inst.num_tests == 3
        assert inst.cost_table[2] == (1, 1)
        assert sorted(set(inst.outcome_table[2])) == [1, 2]
        assert validate_instance(inst) == []

    def test_untouched_draws_keep_a_plain_name(self):
        inst = generate(GeneratorSpec(num_objects=4, num_classes=4, num_tests=2, seed=10))
        assert inst.name == "seed10"
        assert inst.num_tests == 2

    def test_repairs_match_the_pair_loop(self):
        # 40 objects over 6 binary tests: most draws fuse some pairs.  The
        # repair isolates the first member of each fused pair, in pair order.
        n, tests, repaired = 40, 6, 0
        for seed in range(15):
            inst = generate(
                GeneratorSpec(num_objects=n, num_classes=4, num_tests=tests, seed=seed)
            )
            drawn = inst.outcome_table[:tests]
            isolated: list[int] = []
            for a in range(n):
                for b in range(a + 1, n):
                    fused = all(row[a] == row[b] for row in drawn)
                    if fused and inst.classes[a] != inst.classes[b] and a not in isolated:
                        isolated.append(a)
            assert inst.outcome_table[tests:] == tuple(
                tuple(2 if s == a else 1 for s in range(n)) for a in isolated
            )
            suffix = f"+{len(isolated)}-repair-tests" if isolated else ""
            assert inst.name == f"seed{seed}{suffix}"
            repaired += bool(isolated)
        assert repaired >= 10

    def test_impossible_spec_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="completeness is impossible"):
            generate(GeneratorSpec(num_objects=5, num_classes=5, num_tests=2))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least 2 objects"):
            generate(GeneratorSpec(num_objects=1, num_classes=1, num_tests=1))
        with pytest.raises(ValueError, match="cannot be populated"):
            generate(GeneratorSpec(num_objects=3, num_classes=4, num_tests=2))
        with pytest.raises(ValueError, match="unknown cost mode"):
            generate(
                GeneratorSpec(num_objects=3, num_classes=2, num_tests=2, cost_mode="free")
            )
        with pytest.raises(ValueError, match="unknown prior mode"):
            generate(
                GeneratorSpec(num_objects=3, num_classes=2, num_tests=2, prior_mode="zipf")
            )
        with pytest.raises(ValueError, match="cost range"):
            generate(
                GeneratorSpec(
                    num_objects=3, num_classes=2, num_tests=2, cost_range=(5, 2)
                )
            )


class TestRationalText:
    def test_integers_render_bare(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(6, 2)) == "3"

    def test_fractions_render_as_p_over_q(self):
        assert format_rational(Fraction(17, 4)) == "17/4"

    def test_parse_accepts_both_shorthands(self):
        assert parse_rational(3, "x") == 3
        assert parse_rational("1/3", "x") == Fraction(1, 3)
        assert parse_rational("-2/6", "x") == Fraction(-1, 3)

    def test_parse_names_the_field_on_garbage(self):
        with pytest.raises(ValueError, match="priors\\[2\\]"):
            parse_rational("one half", "priors[2]")
        with pytest.raises(ValueError, match="expected an integer or a 'p/q' string"):
            parse_rational(0.5, "x")
        refusal = "^x: expected an integer or a 'p/q' string, got True$"
        with pytest.raises(ValueError, match=refusal):
            parse_rational(True, "x")
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational("1/0", "x")
        # Only digits and one '/': Fraction would read decimals and exponents,
        # and would expand this exponent in full.
        for text in ("0.5", "1e3", "1e999999999"):
            with pytest.raises(ValueError, match=f"rho: not a rational: '{text}'"):
                parse_rational(text, "rho")

    @given(st.from_regex(_RATIONAL_TEXT, fullmatch=True))
    @example("-5/0")
    @example("0/0")
    @example("9" * 4301)
    @example("1/" + "9" * 4301)
    def test_parse_agrees_with_fraction_on_checked_text(self, text):
        try:
            expected = "ok", Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            expected = "error", f"x: not a rational: {text!r} ({exc})"
        got = result_or_error(parse_rational, text, "x")
        assert got == expected
        assert type(got[1]) is type(expected[1])


class TestInstanceFiles:
    def test_round_trip_is_identity(self, tmp_path):
        inst = generate(
            GeneratorSpec(
                num_objects=6,
                num_classes=3,
                num_tests=4,
                cost_mode="value-dependent-random",
                prior_mode="random",
                seed=12,
            )
        )
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_equal_instances_serialize_to_equal_bytes(self, tmp_path):
        inst = two_object_instance()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(inst, a)
        write_instance(inst, b)
        assert a.read_bytes() == b.read_bytes()

    def test_priors_travel_exactly(self, tmp_path):
        inst = two_object_instance()
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        again = read_instance(path)
        assert again.priors == (Fraction(1, 4), Fraction(3, 4))

    def test_integer_shorthand_for_rationals(self, tmp_path):
        doc = {
            "num_outcomes": 2,
            "objects": [
                {"id": 0, "class": 0, "prior": "1/2"},
                {"id": 1, "class": 1, "prior": "1/2"},
            ],
            "tests": [{"id": 0, "costs": [1, 3], "outcomes": [1, 2]}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        inst = read_instance(path)
        assert inst.cost(0, 2) == 3

    def test_malformed_json_is_reported_as_such(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed document"):
            read_instance(path)

    def test_short_cost_row_names_the_missing_outcome(self, tmp_path):
        doc = {
            "num_outcomes": 3,
            "objects": [
                {"id": 0, "class": 0, "prior": "1/2"},
                {"id": 1, "class": 1, "prior": "1/2"},
            ],
            "tests": [{"id": 0, "costs": [1, 1], "outcomes": [1, 3]}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing the cost for outcome 3"):
            read_instance(path)

    def test_duplicate_and_out_of_range_ids(self, tmp_path):
        base = {
            "num_outcomes": 2,
            "objects": [
                {"id": 0, "class": 0, "prior": "1/2"},
                {"id": 0, "class": 1, "prior": "1/2"},
            ],
            "tests": [{"id": 0, "costs": [1, 1], "outcomes": [1, 2]}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(base))
        with pytest.raises(ValueError, match="duplicate object id 0"):
            read_instance(path)
        base["objects"][1]["id"] = 7
        path.write_text(json.dumps(base))
        with pytest.raises(ValueError, match="ids must be dense"):
            read_instance(path)

    def test_semantic_validation_can_be_deferred(self, tmp_path):
        doc = {
            "num_outcomes": 2,
            "objects": [
                {"id": 0, "class": 0, "prior": "1/2"},
                {"id": 1, "class": 1, "prior": "1/2"},
            ],
            "tests": [{"id": 0, "costs": [1, 1], "outcomes": [2, 2]}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="never separated"):
            read_instance(path)
        inst = read_instance(path, validate=False)
        assert "never separated" in ";".join(validate_instance(inst))


class TestTreeFiles:
    def test_round_trip_is_identity(self, tmp_path):
        inst = generate(GeneratorSpec(num_objects=6, num_classes=3, num_tests=4, seed=4))
        from dfep.greedy import divide_pairs

        tree = divide_pairs(frozenset(inst.objects), inst)
        path = tmp_path / "tree.json"
        write_tree(tree, path)
        assert read_tree(path) == tree

    def test_leaf_document_shape(self):
        doc = tree_to_doc(Leaf(class_id=2, objects=frozenset({3, 1})))
        assert doc == {"leaf_class": 2, "objects": [1, 3]}

    def test_children_keys_are_outcome_strings(self):
        tree = Internal(
            test=0,
            children={
                1: Leaf(class_id=0, objects=frozenset({0})),
                2: Leaf(class_id=1, objects=frozenset({1})),
            },
        )
        doc = tree_to_doc(tree)
        assert sorted(doc["children"]) == ["1", "2"]
        assert doc["test"] == 0

    def test_unknown_fields_are_rejected(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"leaf_class": 0, "objects": [0], "color": "red"}))
        with pytest.raises(ValueError, match="unexpected leaf fields"):
            read_tree(path)
        path.write_text(json.dumps({"children": {}}))
        with pytest.raises(ValueError, match="either 'leaf_class' or 'test'"):
            read_tree(path)
        path.write_text(
            json.dumps({"test": 0, "children": {"up": {"leaf_class": 0, "objects": [0]}}})
        )
        with pytest.raises(ValueError, match="not an outcome"):
            read_tree(path)

    @pytest.mark.parametrize("key", ["01", " 1", "+2", "\u0661", "1_0", "2 "])
    def test_children_keys_are_read_only_as_written(self, tmp_path, key):
        # Only the writer's spelling of an outcome is read back: int() alone
        # would also take zero padding, a sign, spaces, underscores and
        # other scripts' digits (U+0661 is an Arabic-Indic one).
        path = tmp_path / "tree.json"
        leaf = {"leaf_class": 0, "objects": [0]}
        path.write_text(json.dumps({"test": 0, "children": {key: leaf}}))
        with pytest.raises(ValueError) as error:
            read_tree(path)
        assert str(error.value) == f"{path}: children key {key!r} is not an outcome"

    def test_a_second_spelling_of_an_outcome_is_refused(self, tmp_path):
        # Read as 1, "01" would replace the subtree under "1", over an object
        # and a class the instance lacks, before anything checked it.
        (tmp_path / "dup.json").write_text(
            json.dumps(
                {
                    "test": 0,
                    "children": {
                        "1": {"leaf_class": 7, "objects": [5]},
                        "01": {"leaf_class": 0, "objects": [0]},
                        "2": {"leaf_class": 1, "objects": [1]},
                    },
                }
            )
        )
        with pytest.raises(ValueError) as error:
            read_tree(tmp_path / "dup.json")
        assert str(error.value) == f"{tmp_path / 'dup.json'}: children key '01' is not an outcome"
        write_instance(two_object_instance(), tmp_path / "inst.json")
        run = run_cli("eval", "dup.json", "inst.json", cwd=tmp_path)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == "error: dup.json: children key '01' is not an outcome\n"

    def test_chain_deeper_than_the_recursion_limit(self, tmp_path):
        n = 1100
        inst, tree = deep_chain(n)
        doc = tree_to_doc(tree)
        node = doc
        for t in range(n - 1):
            assert list(node) == ["test", "children"] and node["test"] == t
            assert node["children"]["2"] == {"leaf_class": t, "objects": [t]}
            node = node["children"]["1"]
        assert node == {"leaf_class": n - 1, "objects": [n - 1]}
        # ``==`` on trees this deep would recurse, so walk the parse instead.
        node = _tree_from_doc(doc, "chain")
        for t in range(n - 1):
            assert node.test == t and node.children[2] == Leaf(t, frozenset({t}))
            node = node.children[1]
        assert node == Leaf(n - 1, frozenset({n - 1}))
        export_dot(tree, inst, tmp_path / "chain.dot")
        lines = (tmp_path / "chain.dot").read_text().splitlines()
        # Pre-order numbers the chain's tests 0..n-2, then the leaves from
        # the bottom up; an edge line follows the whole subtree below it.
        assert lines[1:3] == ['  n0 [label="t0"];', '  n1 [label="t1"];']
        assert lines[-4:] == [
            '  n0 -> n1 [label="outcome=1, cost=1"];',
            f'  n{2 * n - 2} [shape=box, label="class 0 {{0}}"];',
            f'  n0 -> n{2 * n - 2} [label="outcome=2, cost=1"];',
            "}",
        ]

    def test_too_deep_to_write_leaves_an_existing_file_alone(self, tmp_path, capsys):
        # The json writer, like the parser, recurses once per nesting level.
        _, tree = deep_chain(1100)
        path = tmp_path / "tree.json"
        path.write_text("old contents\n")
        with pytest.raises(ValueError, match=r"tree\.json: document nested too deeply$"):
            write_tree(tree, path)
        assert path.read_text() == "old contents\n"
        with pytest.raises(ValueError, match="^stdout: document nested too deeply$"):
            _emit_json(tree_to_doc(tree))
        assert capsys.readouterr().out == ""


class TestTreeEncoder:
    @settings(max_examples=60)
    @given(splice_cases(), st.sampled_from([Fraction(1, 2), 1, 2]))
    def test_bytes_equal_indented_json(self, case, trade_off):
        inst, members, expected_tree, worst_case_tree = case
        trees = [
            expected_tree,
            worst_case_tree,
            combine_trees(expected_tree, worst_case_tree, trade_off, inst),
        ]
        uniform = result_or_error(combine_uniform, expected_tree, worst_case_tree, 2, inst)
        if uniform[0] == "ok":
            trees.append(uniform[1])
        first = min(members)
        trees.append(Leaf(inst.classes[first], frozenset({first})))
        for tree in trees:
            assert _encode_tree(tree, "tree") == json.dumps(tree_to_doc(tree), indent=2) + "\n"

    def test_depth_cap_round_trips_and_one_level_more_is_refused(self, tmp_path, capsys):
        _, tree = deep_chain(MAX_TREE_DEPTH + 1)
        path = tmp_path / "tree.json"
        write_tree(tree, path)
        # ``==`` on trees this deep would recurse, so compare flat signatures.
        assert tree_signature(read_tree(path)) == tree_signature(tree)
        _, deeper = deep_chain(MAX_TREE_DEPTH + 2)
        path.write_text("old contents\n")
        with pytest.raises(ValueError, match=r"tree\.json: document nested too deeply$"):
            write_tree(deeper, path)
        assert path.read_text() == "old contents\n"
        with pytest.raises(ValueError, match="^stdout: document nested too deeply$"):
            _emit_tree(deeper, None)
        assert capsys.readouterr().out == ""

    def test_ids_that_are_not_ints_are_refused(self, tmp_path):
        path = tmp_path / "tree.json"
        for tree in (
            Leaf(class_id=True, objects=frozenset({0})),
            Leaf(class_id=0, objects=frozenset({"0"})),
            Internal(test=0, children={1.0: Leaf(0, frozenset({0}))}),
        ):
            with pytest.raises(ValueError, match=r"tree\.json: tree id .* is not an integer$"):
                write_tree(tree, path)
        assert not path.exists()


class TestExportDot:
    def test_single_leaf(self, tmp_path):
        inst = two_object_instance()
        path = tmp_path / "leaf.dot"
        export_dot(Leaf(class_id=1, objects=frozenset({1})), inst, path)
        text = path.read_text()
        assert text == (
            "digraph decision_tree {\n"
            '  n0 [shape=box, label="class 1 {1}"];\n'
            "}\n"
        )

    def test_two_leaf_tree_lists_costs_per_outcome(self, tmp_path):
        inst = two_object_instance()
        tree = Internal(
            test=0,
            children={
                1: Leaf(class_id=0, objects=frozenset({0})),
                2: Leaf(class_id=1, objects=frozenset({1})),
            },
        )
        path = tmp_path / "pair.dot"
        export_dot(tree, inst, path)
        assert path.read_text() == (
            "digraph decision_tree {\n"
            '  n0 [label="t0"];\n'
            '  n1 [shape=box, label="class 0 {0}"];\n'
            '  n0 -> n1 [label="outcome=1, cost=2"];\n'
            '  n2 [shape=box, label="class 1 {1}"];\n'
            '  n0 -> n2 [label="outcome=2, cost=5"];\n'
            "}\n"
        )

    def test_equal_trees_export_identical_bytes(self, tmp_path):
        inst = generate(GeneratorSpec(num_objects=7, num_classes=3, num_tests=5, seed=21))
        from dfep.greedy import divide_pairs

        tree = divide_pairs(frozenset(inst.objects), inst)
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        export_dot(tree, inst, a)
        export_dot(tree, inst, b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_trees_are_refused(self, tmp_path):
        inst = two_object_instance()
        wrong = Leaf(class_id=0, objects=frozenset({0, 1}))  # mixed classes
        assert validate_tree(wrong, frozenset({0, 1}), inst) != []
        with pytest.raises(ValueError, match="refusing to export an invalid tree"):
            export_dot(wrong, inst, tmp_path / "bad.dot")


class TestExperimentConfig:
    def test_defaults_round_through_a_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "count": 3, "objects": [2, 6]}))
        config = load_config(path)
        assert config.seed == 5
        assert config.count == 3
        assert config.objects == (2, 6)
        assert config.cost_mode == "unit"
        assert config.rho_grid == (
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(1),
            Fraction(2),
            Fraction(4),
        )

    def test_scalar_sizes_mean_degenerate_ranges(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"objects": 5, "tests": 4}))
        config = load_config(path)
        assert config.objects == (5, 5)
        assert config.tests == (4, 4)

    def test_rho_grid_parses_rational_strings(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rho_grid": ["1/3", 2]}))
        assert load_config(path).rho_grid == (Fraction(1, 3), Fraction(2))

    def test_unknown_keys_are_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"countt": 3}))
        with pytest.raises(ValueError, match="unknown configuration keys"):
            load_config(path)

    def test_bad_values_are_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        for doc, pattern in [
            ({"rho_grid": []}, "nonempty list"),
            ({"rho_grid": ["-1"]}, "must be positive"),
            ({"uniform_trade_offs": [0]}, "positive integers"),
            ({"objects": [5, 2]}, "empty range"),
            ({"cost_mode": "free"}, "unknown cost mode"),
            ({"count": 0}, "count must be positive"),
            # Strict JSON types: nothing is coerced.
            ({"seed": None}, "seed: expected an integer, got None"),
            ({"count": 1e400}, "count: expected an integer, got inf"),
            ({"count": 2.7}, "count: expected an integer, got 2.7"),
            ({"seed": "3"}, "seed: expected an integer, got '3'"),
            ({"outcomes": True}, "outcomes: expected an integer, got True"),
            ({"replay_path": 5}, "replay_path: expected a string, got 5"),
            ({"cost_mode": None}, "cost_mode: expected a string"),
            ({"objects": [2, 5.0]}, "objects: expected an integer or a \\[low, high\\]"),
            ({"oracle_checks": 1}, "oracle_checks: expected true or false"),
            ({"uniform_trade_offs": [1, "2"]}, "uniform_trade_offs\\[1\\]: expected an integer"),
            ({"rho_grid": ["0.5"]}, "rho_grid\\[0\\]: not a rational"),
            # Every bound a draw needs.
            ({"objects": [1, 5]}, "objects: must be at least 2, got 1"),
            ({"classes": [0, 3], "count": 40, "seed": 3}, "classes: must be at least 1"),
            ({"tests": [0, 4]}, "tests: must be at least 1, got 0"),
            ({"outcomes": 1}, "outcomes: must be at least 2, got 1"),
            ({"cost_range": [0, 8]}, "cost_range: must be at least 1, got 0"),
            ({"prior_mode": "skewed"}, "unknown prior mode"),
            ({"objects": [2, 40], "tests": [6, 8]}, "exceeds oracle cap"),
        ]:
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=pattern):
                load_config(path)

    def test_every_field_has_a_reader(self):
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert set(_CONFIG_READERS) == fields

    def test_run_checks_the_config_before_the_first_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(
            "dfep.harness.experiment.generate",
            lambda spec: draws.append(spec) or generate(spec),
        )
        for fields, pattern in [
            ({"count": 0}, "count must be positive"),
            ({"cost_mode": "free"}, "unknown cost mode"),
            ({"objects": (5, 2)}, "objects: empty range"),
            ({"objects": (1, 5)}, "objects: must be at least 2"),
            ({"classes": (0, 3), "count": 40, "seed": 3}, "classes: must be at least 1"),
            ({"tests": (0, 4)}, "tests: must be at least 1"),
            ({"outcomes": 1}, "outcomes: must be at least 2"),
            ({"cost_range": (0, 8)}, "cost_range: must be at least 1"),
            ({"rho_grid": (Fraction(0),)}, "trade-offs must be positive"),
            ({"uniform_trade_offs": (0,)}, "positive integers"),
            ({"objects": (2, 40), "tests": (6, 8)}, "exceeds oracle cap"),
            ({"objects": (3, 12), "tests": (3, 8)}, "distinguish at most 8 objects"),
            # A config built in Python gets the file's reading of each trade-off.
            ({"rho_grid": ()}, "^config: rho_grid: expected a nonempty list$"),
            ({"rho_grid": (0.5,)}, "rho_grid\\[0\\]: expected an integer or a 'p/q' string"),
            ({"rho_grid": (True,)}, "rho_grid\\[0\\]: expected an integer or a 'p/q' string"),
            ({"uniform_trade_offs": (True,)}, "uniform_trade_offs\\[0\\]: expected an integer"),
            ({"uniform_trade_offs": (1.5,)}, "uniform_trade_offs\\[0\\]: expected an integer"),
        ]:
            with pytest.raises(ValueError, match=pattern):
                run_experiment(ExperimentConfig(**fields))
        assert draws == []
        run_experiment(ExperimentConfig(count=2, objects=(3, 5)))
        assert len(draws) == 2

    def test_int_trade_offs_print_as_a_file_gives_them(self, tmp_path):
        # (1 + 1/2) * 2 on plain ints is the float 3.0, which the table would print.
        fields = {"seed": 5, "count": 1, "objects": [3, 4], "uniform_trade_offs": []}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**fields, "rho_grid": [2]}))
        tables = []
        for config in (
            load_config(path),
            ExperimentConfig(**{**fields, "objects": (3, 4), "rho_grid": (2,)}),
        ):
            rows = run_experiment(config)
            cap = rows[0].trade_offs[0].expected_cap
            assert type(cap) is Fraction and cap == 3
            write_table(rows, tmp_path / "table.tsv")
            tables.append((tmp_path / "table.tsv").read_bytes())
        assert tables[0] == tables[1]
        assert b"\tsplice\t2\t" in tables[0] and b"3.0" not in tables[0]

    def test_infeasible_sizes_are_rejected_when_loaded(self, tmp_path):
        path = tmp_path / "config.json"
        doc = {"seed": 11, "count": 20, "objects": [3, 12], "tests": [3, 8]}
        path.write_text(json.dumps(doc))
        message = "3 tests with 2 outcomes distinguish at most 8 objects, but up to 12"
        with pytest.raises(ValueError, match=message):
            load_config(path)
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentConfig(seed=11, count=20, objects=(3, 12), tests=(3, 8)))
        # A single class needs no test, and 2**4 = 16 >= 12 objects suffices.
        for fix in ({"classes": [1, 1]}, {"tests": [4, 8]}):
            path.write_text(json.dumps({**doc, **fix}))
            load_config(path)


class TestRunExperiment:
    def test_unit_cost_batch_holds_every_bound(self, tmp_path):
        config = ExperimentConfig(
            seed=11,
            count=6,
            objects=(3, 7),
            replay_path=str(tmp_path / "replay.json"),
        )
        rows = run_experiment(config)
        assert len(rows) == 6
        for row in rows:
            assert row.greedy_within_cap
            assert row.lower_bound_ok
            assert row.trade_offs, "oracle checks should record trade-off outcomes"
            for outcome in row.trade_offs:
                assert outcome.worst_ok and outcome.expected_ok
        variants = {o.variant for row in rows for o in row.trade_offs}
        assert variants == {"splice", "uniform-sweep"}

    def test_value_dependent_batch_runs_clean(self, tmp_path):
        config = ExperimentConfig(
            seed=17,
            count=4,
            objects=(3, 6),
            cost_mode="value-dependent-random",
            replay_path=str(tmp_path / "replay.json"),
        )
        rows = run_experiment(config)
        for row in rows:
            for outcome in row.trade_offs:
                assert outcome.variant == "splice"
                assert outcome.expected_ok
                if outcome.worst_cap_applies:
                    assert outcome.worst_ok

    def test_oracle_cap_is_enforced(self):
        config = ExperimentConfig(objects=(2, 40))
        with pytest.raises(ValueError, match="exceeds oracle cap"):
            run_experiment(config)
        relaxed = ExperimentConfig(
            count=2, objects=(15, 18), tests=(5, 7), oracle_checks=False
        )
        rows = run_experiment(relaxed)
        assert all(row.opt_worst is None for row in rows)
        assert all(row.trade_offs == () for row in rows)

    def test_violations_abort_and_leave_a_replay_file(self, tmp_path, monkeypatch):
        # Sabotage one greedy bound at a time so the very first instance trips it.
        cases = [
            (
                "harmonic",
                lambda count: Fraction(0),
                "greedy harmonic cap",
                {"achieved": "2", "cap": "0"},
                {"greedy", "optimal_worst"},
            ),
            (
                "_lower_bound",
                lambda tree, parts, inst: Fraction(100),
                "root lower bound",
                {"lower_bound": "100", "optimum": "2"},
                {"optimal_worst"},
            ),
        ]
        replay = tmp_path / "replay.json"
        config = ExperimentConfig(seed=11, count=3, replay_path=str(replay))
        for name, fake, check, details, trees in cases:
            with monkeypatch.context() as patch:
                patch.setattr(f"dfep.harness.experiment.{name}", fake)
                with pytest.raises(BoundViolation, match=check):
                    run_experiment(config)
            doc = json.loads(replay.read_text())
            assert doc["check"] == check
            assert set(doc) == {"check", "details", "instance", "trees"}
            assert doc["details"] == details
            assert set(doc["trees"]) == trees
            # The saved instance replays: reading it back gives a valid instance.
            inst_path = tmp_path / "instance.json"
            inst_path.write_text(json.dumps(doc["instance"]))
            assert validate_instance(read_instance(inst_path)) == []

    def test_cap_and_subset_violations_leave_pinned_replays(self, tmp_path, monkeypatch):
        # The checks past the greedy ones, each forced on a known instance:
        # a splice cap, by claiming answer-independent prices where prices
        # depend on the answer, and subset monotonicity, by inflating the
        # second call of ``_optima`` (the first instance's random subset).
        # Each replay file's bytes are pinned by their sha256.
        real_optima = dfep.harness.experiment._optima
        calls = []

        def inflated(objects, inst):
            calls.append(objects)
            results = real_optima(objects, inst)
            if len(calls) != 2:
                return results
            return tuple(dataclasses.replace(r, value=r.value + 100) for r in results)

        cases = [
            (
                ExperimentConfig(seed=4, count=3, cost_mode="value-dependent-random"),
                ("_has_flat_prices", lambda inst: True),
                "splice caps",
                "run1+1-repair-tests",
                {
                    "trade_off": "1/4",
                    "worst": "24",
                    "worst_cap": "20",
                    "expected": "391/39",
                    "expected_cap": "125/3",
                },
                {"expected_tree", "result", "worst_case_tree"},
                "f3febe3fb052b7aac378ebf8bc3acfe7c4be911e710d8817bedbe83dd54d6bc9",
            ),
            (
                ExperimentConfig(seed=11, count=3),
                ("_optima", inflated),
                "subset monotonicity",
                "run0",
                {
                    "subset": "2",
                    "subset_worst": "100",
                    "full_worst": "2",
                    "subset_expected": "100",
                    "full_expected": "2",
                },
                set(),
                "2a3a3e599c39cd27c8184c126b1aeb323606cf20777420e8245540658cc6056c",
            ),
        ]
        replay = tmp_path / "replay.json"
        for config, (name, fake), check, instance, details, trees, digest in cases:
            config = dataclasses.replace(config, replay_path=str(replay))
            with monkeypatch.context() as patch:
                patch.setattr(f"dfep.harness.experiment.{name}", fake)
                with pytest.raises(BoundViolation, match=check) as error:
                    run_experiment(config)
            assert f"failed on instance {instance!r}" in str(error.value)
            doc = json.loads(replay.read_text())
            assert doc["check"] == check
            assert list(doc["details"].items()) == list(details.items())
            assert set(doc["trees"]) == trees
            assert hashlib.sha256(replay.read_bytes()).hexdigest() == digest

    def test_table_bytes_are_pinned(self, tmp_path):
        # Two instances, with the oracle checks on and off: every column, the
        # trade-off lines of both variants, and the "-" tail of an instance
        # without trade-offs.
        header = (
            "index\tseed\tname\tobjects\tclasses\ttests\toutcome_alphabet\tcost_mode\t"
            "pairs\topt_worst\topt_expected\tgreedy_worst\tgreedy_expected\tgreedy_cap\t"
            "greedy_ratio\tlower_bound\tvariant\ttrade_off\tachieved_worst\tworst_cap\t"
            "worst_ok\tachieved_expected\texpected_cap\texpected_ok\n"
        )
        run0 = "0\t3415330359\trun0\t4\t4\t5\t2\tunit\t6\t"
        run1 = "1\t3869338171\trun1\t4\t2\t3\t2\tunit\t4\t"
        checked = header + (
            run0 + "2\t2\t2\t2\t49/10\t1\t6/5\tsplice\t1/2\t2\t3\tyes\t2\t6\tyes\n"
            + run0 + "2\t2\t2\t2\t49/10\t1\t6/5\tsplice\t2\t2\t6\tyes\t2\t3\tyes\n"
            + run0 + "2\t2\t2\t2\t49/10\t1\t6/5\tuniform-sweep\t1\t2\t4\tyes\t2\t10/3\tyes\n"
            + run1 + "2\t137/82\t3\t113/41\t25/6\t3/2\t2\t"
            + "splice\t1/2\t2\t3\tyes\t137/82\t411/82\tyes\n"
            + run1 + "2\t137/82\t3\t113/41\t25/6\t3/2\t2\t"
            + "splice\t2\t2\t6\tyes\t137/82\t411/164\tyes\n"
            + run1 + "2\t137/82\t3\t113/41\t25/6\t3/2\t2\t"
            + "uniform-sweep\t1\t2\t4\tyes\t137/82\t685/246\tyes\n"
        )
        unchecked = header + (
            run0 + "-\t-\t2\t2\t-\t-\t6/5\t-\t-\t-\t-\t-\t-\t-\t-\n"
            "1\t2787324501\trun1\t3\t3\t4\t2\tunit\t3\t"
            "-\t-\t2\t38/27\t-\t-\t3/2\t-\t-\t-\t-\t-\t-\t-\t-\n"
        )
        config = ExperimentConfig(
            seed=5,
            count=2,
            objects=(3, 4),
            rho_grid=(Fraction(1, 2), Fraction(2)),
            uniform_trade_offs=(1,),
            replay_path=str(tmp_path / "replay.json"),
        )
        table = tmp_path / "table.tsv"
        for oracle_checks, expected in ((True, checked), (False, unchecked)):
            rows = run_experiment(dataclasses.replace(config, oracle_checks=oracle_checks))
            write_table(rows, table)
            assert table.read_bytes() == expected.encode()

    def test_table_bytes_are_pinned_for_priced_modes(self, tmp_path):
        # Priced tests get no sweep lines.  Fixed prices promise the
        # worst-case cap; answer-dependent ones do not, so at seed 30 run1's
        # splice at trade-off 1/2 reads worst 5 over a cap of 9/2 and still
        # "yes" in worst_ok.
        header = (
            "index\tseed\tname\tobjects\tclasses\ttests\toutcome_alphabet\tcost_mode\t"
            "pairs\topt_worst\topt_expected\tgreedy_worst\tgreedy_expected\tgreedy_cap\t"
            "greedy_ratio\tlower_bound\tvariant\ttrade_off\tachieved_worst\tworst_cap\t"
            "worst_ok\tachieved_expected\texpected_cap\texpected_ok\n"
        )
        run0 = "0\t3415330359\trun0\t4\t4\t5\t2\tfixed-random\t6\t4\t1160/329\t5\t171/47\t"
        run1 = "1\t3869338171\trun1\t4\t2\t3\t2\tfixed-random\t4\t10\t1241/213\t11\t1241/213\t"
        fixed = header + (
            run0 + "49/5\t5/4\t2\tsplice\t1/2\t4\t6\tyes\t1160/329\t3480/329\tyes\n"
            + run0 + "49/5\t5/4\t2\tsplice\t2\t4\t12\tyes\t1160/329\t1740/329\tyes\n"
            + run1 + "125/6\t11/10\t2\tsplice\t1/2\t11\t15\tyes\t1241/213\t1241/71\tyes\n"
            + run1 + "125/6\t11/10\t2\tsplice\t2\t11\t30\tyes\t1241/213\t1241/142\tyes\n"
        )
        run0 = (
            "0\t2670937301\trun0+1-repair-tests\t4\t4\t4\t2\tvalue-dependent-random\t6\t"
            "14\t1256/183\t14\t1256/183\t343/10\t1\t2\t"
        )
        run1 = "1\t32670411\trun1\t3\t2\t6\t2\tvalue-dependent-random\t2\t3\t219/113\t3\t261/113\t"
        dependent = header + (
            run0 + "splice\t1/2\t14\t21\tyes\t1256/183\t1256/61\tyes\n"
            + run0 + "splice\t2\t14\t42\tyes\t1256/183\t628/61\tyes\n"
            + run1 + "9/2\t1\t3\tsplice\t1/2\t5\t9/2\tyes\t219/113\t657/113\tyes\n"
            + run1 + "9/2\t1\t3\tsplice\t2\t5\t9\tyes\t219/113\t657/226\tyes\n"
        )
        config = ExperimentConfig(
            count=2,
            objects=(3, 4),
            rho_grid=(Fraction(1, 2), Fraction(2)),
            uniform_trade_offs=(1,),
            replay_path=str(tmp_path / "replay.json"),
        )
        table = tmp_path / "table.tsv"
        for seed, cost_mode, expected in (
            (5, "fixed-random", fixed),
            (30, "value-dependent-random", dependent),
        ):
            rows = run_experiment(dataclasses.replace(config, seed=seed, cost_mode=cost_mode))
            write_table(rows, table)
            assert table.read_bytes() == expected.encode()

    def test_table_bytes_are_deterministic(self, tmp_path):
        config = ExperimentConfig(
            seed=23, count=3, objects=(3, 5), replay_path=str(tmp_path / "replay.json")
        )
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_table(run_experiment(config), a)
        write_table(run_experiment(config), b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "index" and "expected_ok" in header
        assert all(len(line.split("\t")) == len(header) for line in lines[1:])
        assert all(field.rstrip() == field for line in lines for field in line.split("\t"))


def run_cli(*argv, cwd):
    return run_dfep(*argv, cwd=cwd, text=True)


class TestCommandLine:
    def test_children_import_the_dfep_under_test(self, tmp_path):
        # A child that found some other installed dfep, or none, would make
        # every CLI test below check the wrong program.
        child = run_python(
            "-c",
            "import pathlib, dfep; print(pathlib.Path(dfep.__file__).resolve())",
            cwd=tmp_path,
            text=True,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == str(Path(dfep.__file__).resolve())

    def test_full_pipeline(self, tmp_path):
        gen = run_cli(
            "gen",
            "--objects", "6",
            "--classes", "3",
            "--tests", "4",
            "--seed", "7",
            "-o", "inst.json",
            cwd=tmp_path,
        )
        assert gen.returncode == 0, gen.stderr

        check = run_cli("validate", "inst.json", cwd=tmp_path)
        assert check.returncode == 0
        assert check.stdout.strip() == "ok"

        for algo, out in [
            ("greedy", "greedy.json"),
            ("opt-worst", "dw.json"),
            ("opt-expected", "de.json"),
        ]:
            solve = run_cli("solve", "--algo", algo, "inst.json", "-o", out, cwd=tmp_path)
            assert solve.returncode == 0, solve.stderr

        scored = run_cli("eval", "greedy.json", "inst.json", cwd=tmp_path)
        assert scored.returncode == 0
        lines = scored.stdout.splitlines()
        assert lines[0].startswith("worst\t")
        assert lines[1].startswith("expected\t")
        assert sum(1 for line in lines if line.startswith("object\t")) == 6

        spliced = run_cli(
            "combine",
            "--rho", "1/2",
            "--de", "de.json",
            "--dw", "dw.json",
            "inst.json",
            "-o", "spliced.json",
            cwd=tmp_path,
        )
        assert spliced.returncode == 0, spliced.stderr
        assert run_cli("eval", "spliced.json", "inst.json", cwd=tmp_path).returncode == 0

        swept = run_cli(
            "combine-uniform",
            "--rho-num", "4",
            "--de", "de.json",
            "--dw", "dw.json",
            "inst.json",
            "-o", "chosen.json",
            cwd=tmp_path,
        )
        assert swept.returncode == 0, swept.stderr

        dot = run_cli("export-dot", "greedy.json", "inst.json", "-o", "tree.dot", cwd=tmp_path)
        assert dot.returncode == 0
        assert (tmp_path / "tree.dot").read_text().startswith("digraph decision_tree {")

        frontier = run_cli("frontier", "inst.json", cwd=tmp_path)
        assert frontier.returncode == 0
        rows = frontier.stdout.splitlines()
        assert rows[0] == "budget\texpected"
        assert len(rows) >= 2

    def test_generation_is_deterministic_across_processes(self, tmp_path):
        argv = ["gen", "--objects", "5", "--classes", "2", "--tests", "3",
                "--cost-mode", "fixed-random", "--prior-mode", "random",
                "--seed", "42"]
        first = run_cli(*argv, "-o", "one.json", cwd=tmp_path)
        second = run_cli(*argv, "-o", "two.json", cwd=tmp_path)
        assert first.returncode == second.returncode == 0
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_infeasible_experiment_config_exits_one_before_running(self, tmp_path):
        (tmp_path / "config.json").write_text(
            json.dumps({"seed": 11, "count": 20, "objects": [3, 12], "tests": [3, 8]})
        )
        run = run_cli(
            "experiment", "--config", "config.json", "-o", "table.tsv", cwd=tmp_path
        )
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.count("\n") == 1
        assert "distinguish at most 8 objects, but up to 12" in run.stderr
        assert not (tmp_path / "table.tsv").exists()

    def test_bad_experiment_configs_exit_one_before_running(self, tmp_path):
        for text, message in [
            ('{"seed": null}', "seed: expected an integer, got None"),
            ('{"count": 1e400}', "count: expected an integer, got inf"),
            ('{"classes": [0, 3], "count": 40, "seed": 3}', "classes: must be at least 1"),
            ('{"objects": [2, 40], "tests": [6, 8]}', "exceeds oracle cap (14)"),
        ]:
            (tmp_path / "config.json").write_text(text)
            run = run_cli(
                "experiment", "--config", "config.json", "-o", "table.tsv", cwd=tmp_path
            )
            assert run.returncode == 1
            assert run.stdout == ""
            assert run.stderr.startswith("error: config.json: ")
            assert run.stderr.count("\n") == 1
            assert message in run.stderr
            assert not (tmp_path / "table.tsv").exists()

    def test_experiment_subcommand(self, tmp_path):
        (tmp_path / "config.json").write_text(
            json.dumps({"seed": 11, "count": 3, "objects": [3, 5]})
        )
        run = run_cli(
            "experiment", "--config", "config.json", "-o", "table.tsv", cwd=tmp_path
        )
        assert run.returncode == 0, run.stderr
        assert "3 instances" in run.stdout
        assert "all bounds held" in run.stdout
        table = (tmp_path / "table.tsv").read_text().splitlines()
        assert table[0].split("\t")[0] == "index"
        assert len(table) > 3

    def test_validation_failures_exit_one(self, tmp_path):
        doc = {
            "num_outcomes": 2,
            "objects": [
                {"id": 0, "class": 0, "prior": "1/2"},
                {"id": 1, "class": 1, "prior": "1/2"},
            ],
            "tests": [{"id": 0, "costs": [1, 1], "outcomes": [2, 2]}],
        }
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        run = run_cli("validate", "bad.json", cwd=tmp_path)
        assert run.returncode == 1
        assert "never separated" in run.stdout

    def test_runtime_errors_exit_one(self, tmp_path):
        run = run_cli("eval", "missing.json", "also-missing.json", cwd=tmp_path)
        assert run.returncode == 1
        assert run.stderr.startswith("error:")
        gen = run_cli(
            "gen", "--objects", "9", "--classes", "5", "--tests", "2", cwd=tmp_path
        )
        assert gen.returncode == 1
        assert "completeness is impossible" in gen.stderr

    def test_deeply_nested_file_exits_one(self, tmp_path):
        # The chain tree of ``deep_chain``, 2,200 nesting levels deep, written
        # by hand since the json writer recurses too.  The small instance is
        # never matched with it: the document fails to load.
        n = 1100
        text = "".join(
            f'{{"test": {t}, "children": {{"2": {{"leaf_class": {t}, "objects": [{t}]}}, "1": '
            for t in range(n - 1)
        )
        text += f'{{"leaf_class": {n - 1}, "objects": [{n - 1}]}}' + "}}" * (n - 1)
        (tmp_path / "deep-tree.json").write_text(text)
        write_instance(two_object_instance(), tmp_path / "inst.json")
        run = run_cli("eval", "deep-tree.json", "inst.json", cwd=tmp_path)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == "error: deep-tree.json: document nested too deeply\n"
        run = run_cli("experiment", "--config", "deep-tree.json", cwd=tmp_path)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == "error: deep-tree.json: document nested too deeply\n"

    def test_over_long_integer_literal_names_the_file(self, tmp_path):
        # Python refuses to convert an integer literal of over 4,300 digits.
        digits = "1" * 5000
        (tmp_path / "config.json").write_text(f'{{"seed": {digits}}}')
        (tmp_path / "inst.json").write_text(f'{{"num_outcomes": {digits}}}')
        for argv in (["experiment", "--config", "config.json"], ["validate", "inst.json"]):
            run = run_cli(*argv, cwd=tmp_path)
            assert run.returncode == 1
            assert run.stdout == ""
            assert run.stderr.startswith(f"error: {argv[-1]}: malformed document: ")
            assert run.stderr.count("\n") == 1

    def test_invalid_tree_files_exit_one(self, tmp_path):
        # Classes 0, 0, 1; test 0 splits {0} from {1, 2}, test 1 {0, 1} from {2}.
        inst = Instance.create(classes=[0, 0, 1], outcomes=[[1, 2, 2], [1, 1, 2]])
        write_instance(inst, tmp_path / "inst.json")
        good = Internal(1, {1: Leaf(0, frozenset({0, 1})), 2: Leaf(1, frozenset({2}))})
        write_tree(good, tmp_path / "good.json")
        bad = {
            "mixed.json": (
                Internal(0, {1: Leaf(0, frozenset({0})), 2: Leaf(1, frozenset({1, 2}))}),
                "root.2: leaf not homogeneous (classes [0, 1])",
            ),
            "split.json": (
                Internal(0, {1: Leaf(0, frozenset({0, 1})), 2: Leaf(1, frozenset({2}))}),
                "root.1: leaf holds [0, 1] but should hold [0]",
            ),
        }
        for name, (tree, violation) in bad.items():
            write_tree(tree, tmp_path / name)
            for argv in (
                ["combine", "--rho", "1/2", "--de", "good.json", "--dw", name, "inst.json"],
                ["combine", "--rho", "1/2", "--de", name, "--dw", "good.json", "inst.json"],
                ["combine-uniform", "--rho-num", "1", "--de", "good.json", "--dw", name,
                 "inst.json"],
                ["eval", name, "inst.json"],
                ["export-dot", name, "inst.json", "-o", "tree.dot"],
            ):
                run = run_cli(*argv, cwd=tmp_path)
                assert run.returncode == 1, argv
                assert run.stdout == ""
                assert run.stderr == f"error: {name}: invalid tree: {violation}\n"
        assert not (tmp_path / "tree.dot").exists()

    def test_usage_errors_exit_two(self, tmp_path):
        assert run_cli(cwd=tmp_path).returncode == 2
        assert run_cli("no-such-command", cwd=tmp_path).returncode == 2
        assert run_cli("solve", "inst.json", cwd=tmp_path).returncode == 2  # --algo missing


class TestInProcessMain:
    """``main`` parses with one parser built on its first call."""

    @staticmethod
    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.fixture
    def instance_path(self, tmp_path):
        inst = generate(
            GeneratorSpec(
                num_objects=8,
                num_classes=3,
                num_tests=5,
                num_outcomes=3,
                cost_mode="value-dependent-random",
                prior_mode="random",
                seed=11,
            )
        )
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        return str(path)

    def test_repeated_calls_give_the_same_bytes(self, tmp_path, instance_path):
        runs = []
        for k in range(2):
            tree_path = tmp_path / f"tree{k}.json"
            solved = self.call(
                "solve", "--algo", "opt-expected", instance_path, "-o", str(tree_path)
            )
            frontier = self.call("frontier", instance_path)
            runs.append((solved, frontier, tree_path.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0][0] == runs[0][1][0] == 0

    def test_usage_error_after_a_success(self, instance_path):
        before = self.call("solve", "--algo", "nope", instance_path)
        assert self.call("frontier", instance_path)[0] == 0
        after = self.call("solve", "--algo", "nope", instance_path)
        assert after == before
        assert after[0] == 2 and "invalid choice: 'nope'" in after[2]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_warm_call_leaves_nothing_for_the_collector(self, tmp_path, instance_path):
        argvs = [
            ("frontier", instance_path),
            ("solve", "--algo", "opt-worst", instance_path, "-o", str(tmp_path / "dw.json")),
        ]
        for argv in argvs:
            assert self.call(*argv)[0] == 0
        gc.collect()
        gc.disable()
        try:
            codes = [main(list(argv)) for argv in argvs[1:]]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(list(argvs[0])))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert codes == [0, 0]
