"""The public API list, and the eigenfield oracle's place: tests and the benchmark only."""

import ast
import pathlib
import re
import warnings

import hodgegp
from hodgegp import kernels, manifold

# the single-pair kernels and the frame class, removed after their deprecation release
RETIRED = ("hodge_matern_sphere", "projected_matern", "scalar_matern_sphere",
           "scalar_matern_torus", "torus_matern", "frame_at", "TangentFrame")
# the eigenfield-sum oracle: the independent reference that no production path uses
ORACLE = ("class_weights", "_class_parts", "normalization", "spectral_kernel_oracle",
          "eigenfield_values")
SRC = pathlib.Path(hodgegp.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_no_module_calls_the_oracle():
    # the oracle's own definitions may use each other (normalization reads
    # _class_parts), and __init__ re-exports them; nothing else in the package
    # may name them
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = [n for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in ORACLE]
        inside = {id(n) for definition in own for n in ast.walk(definition)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names += [alias.name for alias in node.names]
            uses += [f"{path.name}:{node.lineno} {n}" for n in names if n in ORACLE]
    assert uses == []


class TestPublicApi:
    def test_every_name_resolves_without_a_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name in hodgegp.__all__:
                getattr(hodgegp, name)
        assert caught == []
        assert len(set(hodgegp.__all__)) == len(hodgegp.__all__)

    def test_readme_lists_exactly_all(self):
        text = README.read_text()
        section = re.search(r"^## Public API\n(.*?)(?=^## )", text, re.M | re.S).group(1)
        # the names are the list's: from its first "- " line to the next blank line
        items = re.search(r"^- .*?(?=\n\n)", section, re.M | re.S).group(0)
        listed = re.findall(r"`([A-Za-z_]\w*)`", items)
        assert len(set(listed)) == len(listed)
        assert sorted(listed) == sorted(hodgegp.__all__)

    def test_retired_names_are_gone(self):
        for module in (hodgegp, kernels, manifold):
            for name in RETIRED:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
