"""scripts/reachability.py: what in ``src/`` only tests reach.

One case per rule of the definition walk over a synthetic tree, then the
gate over this repository: the walk lists exactly the named survivors,
so a definition whose last non-test caller goes fails here.
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
    _modules, defs = reachability.walk(root)
    return {d.qualname for d in defs if d.path != "src/repro/orphan.py"}


class TestRules:
    def test_a_module_no_root_imports_is_listed_whole(
        self, reachability, tree
    ):
        modules, defs = reachability.walk(tree)
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


def test_only_named_survivors_are_reached_only_from_tests(reachability):
    """The gate: a new definition only tests reach fails here until it
    is deleted or named in ``SURVIVORS`` with its reason, and a survivor
    that gained a caller (or went) must leave the list."""
    _modules, defs = reachability.walk(ROOT)
    unnamed = [d.key for d in defs if reachability.survivor_of(d) is None]
    assert unnamed == []
    named = {reachability.survivor_of(d) for d in defs}
    assert named == set(reachability.SURVIVORS)
