"""scripts/reachability.py: what in ``src/`` only tests reach or set.

One case per rule of the definition walk and of the knob walk, each over
a synthetic tree, then the gates over this repository: the walk lists
exactly the named survivors, so a definition whose last non-test caller
goes, or a parameter whose last non-test setter goes, fails here.
"""

import importlib.util
import os
import textwrap

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@pytest.fixture(scope="module")
def reachability():
    spec = importlib.util.spec_from_file_location(
        "reachability", os.path.join(ROOT, "scripts", "reachability.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TREE = {
    "src/repro/__init__.py": """
        from repro.lib import reexported_only

        __version__ = "0"
        __all__ = ["reexported_only", "listed_in_all_only"]
    """,
    "src/repro/cli.py": """
        import repro
        from repro.lib import Dispatcher, Klass, reached


        def main():
            '''Docstrings are not uses: only_in_a_docstring.'''
            reached()
            klass = Klass(by_keyword=True)
            klass.by_attribute()
            getattr(klass, "by_string")
            return Dispatcher().run("one"), repro.__version__


        if __name__ == "__main__":
            main()
    """,
    "src/repro/lib.py": """
        from repro.helpers import helper


        def reached():
            return helper()


        def test_only():
            pass


        def reexported_only():
            pass


        def listed_in_all_only():
            pass


        def only_in_a_docstring():
            pass


        def by_keyword():
            pass


        class Klass:
            def __init__(self, **options):
                self.options = options

            def __len__(self):
                return 0

            def by_attribute(self):
                pass

            def by_string(self):
                pass

            def by_example(self):
                pass

            def unnamed(self):
                pass


        class Dispatcher:
            def run(self, name):
                return getattr(self, f"_build_{name}")()

            def _build_one(self):
                pass

            def _build_two(self):
                pass

            def _other(self):
                pass


        class Unreached:
            def __len__(self):
                return 0
    """,
    "src/repro/helpers.py": """
        def helper():
            return via_helper()


        def via_helper():
            pass
    """,
    "src/repro/orphan.py": """
        def reached():
            pass
    """,
    "examples/demo.py": """
        from repro.lib import Klass

        Klass().by_example()
    """,
}


@pytest.fixture
def tree(tmp_path):
    for name, text in TREE.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def listed(reachability, root):
    """Qualified names of what the walk lists, outside ``orphan.py``."""
    _modules, defs, _knobs = reachability.walk(root)
    return {d.qualname for d in defs if d.path != "src/repro/orphan.py"}


class TestRules:
    def test_a_module_no_root_imports_is_listed_whole(
        self, reachability, tree
    ):
        modules, defs, _knobs = reachability.walk(tree)
        assert modules == ["src/repro/orphan.py"]
        # Its ``reached`` is not the cli's, though the cli names it.
        assert "src/repro/orphan.py::reached" in {d.key for d in defs}

    def test_named_by_reached_code_is_reached(self, reachability, tree):
        names = listed(reachability, tree)
        assert not {"reached", "helper", "Klass", "Dispatcher"} & names
        assert "via_helper" not in names  # the fixpoint follows bodies

    def test_reached_only_from_tests_is_listed(self, reachability, tree):
        assert "test_only" in listed(reachability, tree)

    def test_a_method_is_reached_by_attribute_or_string(
        self, reachability, tree
    ):
        names = listed(reachability, tree)
        assert not {"Klass.by_attribute", "Klass.by_string"} & names
        assert "Klass.unnamed" in names

    def test_a_keyword_argument_is_a_use(self, reachability, tree):
        assert "by_keyword" not in listed(reachability, tree)

    def test_a_root_outside_src_reaches(self, reachability, tree):
        assert "Klass.by_example" not in listed(reachability, tree)

    def test_getattr_f_string_prefix_reaches_every_match(
        self, reachability, tree
    ):
        names = listed(reachability, tree)
        assert not {"Dispatcher._build_one", "Dispatcher._build_two"} & names
        assert "Dispatcher._other" in names

    def test_dunders_of_a_reached_class_are_reached(self, reachability, tree):
        names = listed(reachability, tree)
        assert not {"Klass.__init__", "Klass.__len__"} & names
        # An unreached class is listed whole, its methods not again.
        assert "Unreached" in names and "Unreached.__len__" not in names

    def test_re_exports_all_and_docstrings_are_not_uses(
        self, reachability, tree
    ):
        names = listed(reachability, tree)
        assert {
            "reexported_only", "listed_in_all_only", "only_in_a_docstring"
        } <= names

    def test_exactly_these_are_listed(self, reachability, tree):
        assert listed(reachability, tree) == {
            "test_only", "reexported_only", "listed_in_all_only",
            "only_in_a_docstring", "Klass.unnamed", "Dispatcher._other",
            "Unreached",
        }


KNOB_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/cli.py": """
        from dataclasses import replace

        from repro.knobs import (
            Annotated, Base, Checked, Child, Frozen, Mutable, by_keyword,
            by_position, by_reference, by_star, outer, set_forwarded,
            test_only,
        )
        import repro.knobs


        def main(args):
            by_keyword(x=1)
            by_position(1, 2)
            by_star(*args)
            callbacks = [by_reference]
            getattr(repro.knobs, "by_getattr")(1)
            getattr(repro.knobs, f"by_prefix_{args[0]}")()
            Child(k=1)
            outer()
            set_forwarded(v=2)
            test_only()
            note: Annotated = None
            isinstance(note, Checked)
            frozen = replace(Frozen(), replaced=1)
            frozen.stored = 1
            mutable = Mutable()
            mutable.stored = 1
            mutable.appended.append(1)
            mutable.indexed["k"] = 1
            mutable.added += 1
            return callbacks, frozen


        if __name__ == "__main__":
            main([])
    """,
    "src/repro/knobs.py": """
        from dataclasses import dataclass, field


        def by_keyword(x=0, unset=0):
            pass


        def by_position(a, b=0, c=0):
            pass


        def by_star(a, s=0):
            pass


        def by_reference(r=0):
            pass


        def by_getattr(g=0):
            pass


        def by_prefix_one(p=0):
            pass


        class Base:
            def __init__(self, j=0):
                pass

            def __repr__(self, dunder=0):
                return ""


        class Child(Base):
            def __init__(self, k=0, unset=0):
                super().__init__(j=k)


        def outer(w=None):
            inner(w=w)


        def inner(w=None):
            pass


        def set_forwarded(v=None):
            forwarded_from_set(v=v)


        def forwarded_from_set(v=None):
            pass


        def test_only(t=0):
            pass


        def unreached(u=0):
            pass


        class Annotated:
            def __init__(self, a=0):
                pass


        class Checked:
            def __init__(self, c=0):
                pass


        @dataclass(frozen=True)
        class Frozen:
            replaced: int = 0
            stored: int = 0


        @dataclass
        class Mutable:
            stored: int = 0
            appended: list = field(default_factory=list)
            indexed: dict = field(default_factory=dict)
            added: int = 0
            never: int = 0
    """,
    "tests/test_knobs.py": """
        from repro.knobs import test_only, unreached

        test_only(t=1)
        unreached(u=1)
    """,
}


@pytest.fixture
def knob_tree(tmp_path):
    for name, text in KNOB_TREE.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def knobs(reachability, root):
    """Labels of the knobs the walk lists."""
    _modules, _defs, found = reachability.walk(root)
    return {k.label for k in found}


class TestKnobRules:
    def test_a_keyword_sets_only_its_knob(self, reachability, knob_tree):
        found = knobs(reachability, knob_tree)
        assert "by_keyword(x)" not in found
        assert "by_keyword(unset)" in found

    def test_positionals_set_the_knobs_they_cover(
        self, reachability, knob_tree
    ):
        found = knobs(reachability, knob_tree)
        assert "by_position(b)" not in found
        assert "by_position(c)" in found

    def test_a_starred_call_sets_every_knob(self, reachability, knob_tree):
        assert "by_star(s)" not in knobs(reachability, knob_tree)

    def test_a_reference_sets_every_knob(self, reachability, knob_tree):
        found = knobs(reachability, knob_tree)
        assert not {"by_reference(r)", "by_getattr(g)",
                    "by_prefix_one(p)"} & found
        # Naming a class as a base is a reference too.
        assert "Base(j)" not in found

    def test_annotations_and_isinstance_set_nothing(
        self, reachability, knob_tree
    ):
        found = knobs(reachability, knob_tree)
        assert {"Annotated(a)", "Checked(c)"} <= found

    def test_a_class_call_sets_its_init_knobs(self, reachability, knob_tree):
        found = knobs(reachability, knob_tree)
        assert "Child(k)" not in found
        assert "Child(unset)" in found

    def test_replace_and_stores_set_dataclass_fields(
        self, reachability, knob_tree
    ):
        found = knobs(reachability, knob_tree)
        assert not {"Frozen.replaced", "Mutable.stored", "Mutable.appended",
                    "Mutable.indexed", "Mutable.added"} & found
        # A store to a frozen dataclass's field is not how it is set.
        assert {"Frozen.stored", "Mutable.never"} <= found

    def test_a_value_forwarded_from_an_unset_knob_sets_nothing(
        self, reachability, knob_tree
    ):
        found = knobs(reachability, knob_tree)
        assert {"outer(w)", "inner(w)"} <= found
        assert not {"set_forwarded(v)", "forwarded_from_set(v)"} & found

    def test_tests_set_nothing_and_unreached_code_has_no_knobs(
        self, reachability, knob_tree
    ):
        found = knobs(reachability, knob_tree)
        assert "test_only(t)" in found
        assert "unreached(u)" not in found

    def test_dunders_other_than_init_have_no_knobs(
        self, reachability, knob_tree
    ):
        assert "Base.__repr__(dunder)" not in knobs(reachability, knob_tree)

    def test_exactly_these_knobs_are_listed(self, reachability, knob_tree):
        assert knobs(reachability, knob_tree) == {
            "by_keyword(unset)", "by_position(c)", "Child(unset)",
            "Annotated(a)", "Checked(c)", "Frozen.stored", "Mutable.never",
            "outer(w)", "inner(w)", "test_only(t)",
        }


def test_only_named_survivors_are_reached_only_from_tests(reachability):
    """The gate: a new definition only tests reach fails here until it
    is deleted or named in ``SURVIVORS`` with its reason, and a survivor
    that gained a caller (or went) must leave the list."""
    _modules, defs, _knobs = reachability.walk(ROOT)
    unnamed = [d.key for d in defs if reachability.survivor_of(d) is None]
    assert unnamed == []
    named = {reachability.survivor_of(d) for d in defs}
    assert named == set(reachability.SURVIVORS)


def test_only_named_knob_survivors_are_set_only_by_tests(reachability):
    """The knob gate: a parameter or dataclass field that no command,
    script, e2e benchmark or example sets fails here until it becomes a
    constant or is named in ``KNOB_SURVIVORS`` with its reason, and a
    survivor that gained a setter (or went) must leave the list."""
    _modules, _defs, found = reachability.walk(ROOT)
    keys = [k.key for k in found]
    assert [k for k in keys if k not in reachability.KNOB_SURVIVORS] == []
    assert set(keys) == set(reachability.KNOB_SURVIVORS)
