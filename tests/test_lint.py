"""Tests for the determinism lint (``rolp-lint``).

Planted fixtures prove each rule fires at the right location; scoping
tests prove harness code keeps its legitimate wall-clock reads; and the
self-check asserts the shipped ``repro`` tree is clean — which is the
property CI enforces from here on.
"""

import textwrap

import pytest

from repro.analysis import lint

SIM_CORE = "src/repro/gc/fixture.py"
HARNESS = "src/repro/bench/fixture.py"
CLOCK = "src/repro/runtime/clock.py"


def findings(source, path=SIM_CORE):
    return [
        (f.rule, f.line) for f in lint.lint_source(textwrap.dedent(source), path)
    ]


def rules_of(source, path=SIM_CORE):
    return {rule for rule, _ in findings(source, path)}


class TestWallClockRule:
    def test_time_module_call_fires(self):
        src = """\
        import time
        stamp = time.time()
        """
        assert ("wall-clock", 2) in findings(src)

    def test_monotonic_and_perf_counter_fire(self):
        src = """\
        import time
        a = time.monotonic()
        b = time.perf_counter_ns()
        """
        assert [r for r, _ in findings(src)] == ["wall-clock", "wall-clock"]

    def test_from_import_fires_at_import_and_call(self):
        src = """\
        from time import time
        stamp = time()
        """
        hits = findings(src)
        assert ("wall-clock", 1) in hits and ("wall-clock", 2) in hits

    def test_datetime_now_variants_fire(self):
        src = """\
        import datetime
        from datetime import datetime as dt
        a = datetime.datetime.now()
        b = dt.utcnow()
        """
        assert [r for r, _ in findings(src)] == ["wall-clock", "wall-clock"]

    def test_harness_code_may_read_the_wall_clock(self):
        src = """\
        import time
        stamp = time.time()
        """
        assert findings(src, path=HARNESS) == []

    def test_clock_module_is_exempt(self):
        src = """\
        import time
        def now():
            return time.monotonic_ns()
        """
        assert findings(src, path=CLOCK) == []

    def test_unknown_paths_get_the_strict_treatment(self):
        # planted time.time() in a fixture outside any repro package
        src = """\
        import time
        t0 = time.time()
        """
        assert ("wall-clock", 2) in findings(src, path="/tmp/planted_fixture.py")


class TestUnseededRandomRule:
    def test_module_level_rng_fires(self):
        src = """\
        import random
        x = random.random()
        y = random.choice([1, 2])
        """
        assert [r for r, _ in findings(src)] == [
            "unseeded-random",
            "unseeded-random",
        ]

    def test_unseeded_constructor_fires(self):
        assert rules_of("import random\nrng = random.Random()\n") == {
            "unseeded-random"
        }

    def test_seeded_constructor_passes(self):
        src = """\
        import random
        rng = random.Random(42)
        value = rng.random()
        """
        assert findings(src) == []

    def test_system_random_always_fires(self):
        assert rules_of("import random\nr = random.SystemRandom()\n") == {
            "unseeded-random"
        }
        assert rules_of("from random import SystemRandom\n", path=HARNESS) == {
            "unseeded-random"
        }

    def test_from_import_of_module_api_fires(self):
        assert rules_of("from random import choice\n") == {"unseeded-random"}

    def test_from_import_of_random_class_passes(self):
        assert findings("from random import Random\nrng = Random(7)\n") == []

    def test_reseeding_the_module_rng_is_tolerated(self):
        # random.seed() is how legacy scripts pin the global RNG; the
        # lint pushes toward instances but seed() itself is not a draw
        assert findings("import random\nrandom.seed(42)\n") == []


class TestMutableDefaultRule:
    def test_list_and_dict_defaults_fire(self):
        src = """\
        def f(xs=[], mapping={}):
            return xs, mapping
        """
        assert [r for r, _ in findings(src)] == [
            "mutable-default",
            "mutable-default",
        ]

    def test_constructor_call_default_fires(self):
        assert rules_of("def f(xs=list()):\n    return xs\n") == {
            "mutable-default"
        }

    def test_lambda_default_fires(self):
        assert rules_of("g = lambda xs=[]: xs\n") == {"mutable-default"}

    def test_none_default_passes(self):
        assert findings("def f(xs=None, n=3, name='x'):\n    return xs\n") == []

    def test_fires_in_harness_code_too(self):
        assert rules_of("def f(xs=[]):\n    return xs\n", path=HARNESS) == {
            "mutable-default"
        }


class TestUnorderedIterationRule:
    def test_for_over_set_literal_fires(self):
        src = """\
        def f(out):
            for item in {1, 2, 3}:
                out.append(item)
        """
        assert rules_of(src) == {"unordered-iteration"}

    def test_comprehension_over_set_call_fires(self):
        assert rules_of("xs = [x for x in set(range(3))]\n") == {
            "unordered-iteration"
        }

    def test_enumerate_wrapper_is_unwrapped(self):
        assert rules_of(
            "def f():\n    for i, x in enumerate({1, 2}):\n        pass\n"
        ) == {"unordered-iteration"}

    def test_sorted_set_passes(self):
        assert findings("xs = [x for x in sorted(set(range(3)))]\n") == []

    def test_harness_code_may_iterate_sets(self):
        assert findings("xs = [x for x in {1, 2, 3}]\n", path=HARNESS) == []


class TestBuiltinShadowingRule:
    def test_shadowed_builtin_fires(self):
        assert rules_of("id = 3\n") == {"builtin-shadowing"}

    def test_jvm_exception_analogue_fires(self):
        src = """\
        class OutOfMemoryError(Exception):
            pass
        """
        hits = lint.lint_source(textwrap.dedent(src), SIM_CORE)
        assert hits[0].rule == "builtin-shadowing"
        assert "MemoryError" in hits[0].message

    def test_import_binding_fires(self):
        assert rules_of("from legacy.heap import OutOfMemoryError\n") == {
            "builtin-shadowing"
        }

    def test_alias_rename_passes(self):
        assert (
            findings("from legacy.heap import OutOfMemoryError as SimOOM\n") == []
        )

    def test_function_locals_are_not_module_bindings(self):
        assert findings("def f():\n    id = 3\n    return id\n") == []


class TestBackendHygieneRule:
    def test_twin_symbol_import_fires(self):
        src = "from repro.runtime.interpreter import FastExecutionContext\n"
        assert rules_of(src) == {"backend-hygiene"}

    def test_generic_symbol_from_twin_host_module_passes(self):
        # interpreter.py also hosts the reference ExecutionContext.
        assert findings("from repro.runtime.interpreter import ExecutionContext\n") == []

    def test_sanctioned_entry_points_are_exempt(self):
        src = "from repro.runtime.interpreter import FastExecutionContext\n"
        assert findings(src, "src/repro/runtime/vm.py") == []
        assert findings(src, "src/repro/fastpath.py") == []

    def test_harness_code_may_import_twins(self):
        src = "from repro.runtime.interpreter import FastExecutionContext\n"
        assert findings(src, HARNESS) == []

    def test_line_waiver_applies(self):
        src = (
            "from repro.runtime.interpreter import FastExecutionContext"
            "  # rolp-lint: allow[backend-hygiene]\n"
        )
        assert findings(src) == []


class TestWaivers:
    def test_rule_waiver_suppresses_the_finding(self):
        src = "import time\nt0 = time.time()  # rolp-lint: allow[wall-clock]\n"
        assert findings(src) == []

    def test_star_waiver_suppresses_everything(self):
        assert findings("id = 3  # rolp-lint: allow[*]\n") == []

    def test_waiver_for_the_wrong_rule_does_not_apply(self):
        src = "import time\nt0 = time.time()  # rolp-lint: allow[mutable-default]\n"
        assert rules_of(src) == {"wall-clock"}


class TestParseErrors:
    def test_syntax_error_reported_as_finding(self):
        hits = lint.lint_source("def f(:\n", SIM_CORE)
        assert hits[0].rule == "parse-error"


class TestTreeSelfCheck:
    def test_shipped_repro_tree_is_clean(self):
        """The property the CI lint job enforces."""
        assert lint.lint_paths([lint.default_target()]) == []
        assert lint.lint_paths.files_checked > 50


class TestCommandLine:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 3\n")
        assert lint.main([str(target)]) == 0
        assert "clean (1 files)" in capsys.readouterr().err

    def test_findings_exit_one_with_locations(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nstamp = time.time()\n")
        assert lint.main([str(target)]) == 1
        captured = capsys.readouterr()
        assert "%s:2:" % target in captured.out
        assert "wall-clock" in captured.out
        assert "1 finding(s)" in captured.err

    def test_directory_walk(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("id = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("import random\nx = random.random()\n")
        assert lint.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "builtin-shadowing" in out and "unseeded-random" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint.main([str(tmp_path / "gone.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert lint.main([str(target)]) == 2

    def test_rules_listing(self, capsys):
        assert lint.main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule in lint.RULES:
            assert rule in out

    def test_default_target_is_the_package_tree(self, capsys):
        assert lint.main([]) == 0
        assert "clean" in capsys.readouterr().err


@pytest.mark.parametrize("rule", sorted(set(lint.RULES) - {"parse-error"}))
def test_every_rule_has_a_firing_fixture(rule):
    """Guard against rules that can never fire (dead lint code)."""
    fixtures = {
        "unseeded-random": "import random\nx = random.random()\n",
        "wall-clock": "import time\nx = time.time()\n",
        "mutable-default": "def f(xs=[]):\n    return xs\n",
        "unordered-iteration": "xs = [x for x in {1, 2}]\n",
        "builtin-shadowing": "id = 3\n",
        "backend-hygiene": "from repro.runtime.interpreter import FastExecutionContext\n",
    }
    assert rules_of(fixtures[rule]) == {rule}
