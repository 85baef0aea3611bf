"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import mediated_persuasion

PACKAGE = Path(mediated_persuasion.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Names bound by the module's imports, mapped to their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree):
    """Names the module loads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional\n\ndef f() -> 'Optional[int]':\n    pass\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    imports = imported_names(tree)
    unused = sorted(set(imports) - used_names(tree))
    assert not unused, [f"{path.name}:{imports[name]} {name}" for name in unused]


# every name the package exports; an addition or a removal edits this list
PUBLIC_NAMES = [
    "ActionGame",
    "BarycenterMismatch",
    "BeliefDistribution",
    "BestResponse",
    "BlackwellOrder",
    "BlackwellResult",
    "ColumnSumMismatch",
    "ComparisonReport",
    "Concavification",
    "DegeneratePrior",
    "Deviation",
    "DimensionMismatch",
    "EmptyDomain",
    "EquilibriumCertificate",
    "GameSpec",
    "MpsResult",
    "NegativeEntry",
    "NonFiniteEntry",
    "NotSigmaPlausible",
    "PersuasionError",
    "PiecewiseUtility",
    "PriorOutsideSupport",
    "Scenario",
    "ScenarioError",
    "SingularGarbling",
    "TOL",
    "TooFewRealizations",
    "bayes_plausible_weights",
    "blackwell_compare",
    "bp_solve",
    "check_equilibrium",
    "companion_slices",
    "compare_outcomes",
    "compose",
    "concavify",
    "expected_utility",
    "fixture_path",
    "garbling_rank",
    "induce_belief_utilities",
    "induced_tau",
    "is_mps",
    "load_fixture",
    "load_scenario",
    "mediator_best_response",
    "nesting_report",
    "ordered_member_many",
    "posterior_pair",
    "profile_member_many",
    "reconstruct_experiment",
    "search_equilibria",
    "sender_best_response",
    "symmetry_report",
    "validate_stochastic",
    "vertex_profiles",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert mediated_persuasion.__all__ == PUBLIC_NAMES
