import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permfact

ROOT = Path(__file__).resolve().parents[1]

# Names the package no longer offers, each with the module that held it.
REMOVED = {
    "Perm": "oracle",
    "compose": "oracle",
    "cycle_type": "oracle",
    "permutations_of_type": "oracle",
    "DiagramCell": "charkit",
    "diagram": "charkit",
    "w_number_full_cycle": "countcore",
    "SparsePolynomial": "symfun",
    "power_sum": "symfun",
    "schur": "symfun",
    "monomial_sym": "symfun",
    "w_number": "countcore",
    "frak_m": "charkit",
    "frak_c": "charkit",
    "tilde_S": "dimred",
    "reduce_mu": "dimred",
    "CountRecord": "dimred",
    "HZTableRow": "closedform",
}


def test_every_exported_name_resolves():
    assert len(set(permfact.__all__)) == len(permfact.__all__)
    for name in permfact.__all__:
        assert hasattr(permfact, name), name


def test_removed_names_are_gone_and_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    removed = readme.split("## Removed interfaces", 1)[1].split("\n## ", 1)[0]
    for name, module in REMOVED.items():
        assert name not in permfact.__all__
        assert not hasattr(permfact, name), name
        assert not hasattr(getattr(permfact, module), name), name
        assert f"`{name}" in removed, name


def _module_trees():
    """Each library module's name with its parsed source."""
    for path in sorted((ROOT / "src" / "permfact").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _top_level_imports():
    """Map each library module's name to the top-level packages it imports."""
    imports = {}
    for name, tree in _module_trees():
        top_level = imports[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                top_level.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                top_level.add(node.module.split(".")[0])
    return imports


def test_library_imports_only_the_standard_library():
    top_level = set().union(*_top_level_imports().values())
    assert "fractions" in top_level  # the walk sees the imports at all
    assert sorted(top_level - sys.stdlib_module_names) == []


def test_fractions_only_where_a_rational_is_summed():
    # Counts come from integer routes; a Fraction cross-check belongs in
    # the tests, so only the closed-form map count may import fractions.
    users = {name for name, top in _top_level_imports().items() if "fractions" in top}
    assert users == {"closedform"}


def test_checked_division_has_one_owner():
    # Count divisions go through exactnum._exact_quotient.  dimred raises
    # its own build error, and symfun divides signed determinants.
    users = {
        name
        for name, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "divmod"
    }
    assert users == {"exactnum", "dimred", "symfun"}


def test_mu_shares_no_code_with_the_routes_it_checks():
    # mu's rows validate the reduction build and are checked by the oracle
    # and the closed forms, so nothing countcore reaches may come from them.
    local = {}
    for name, tree in _module_trees():
        local[name] = {
            alias.name if node.module is None else node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
    reached, todo = set(), ["countcore"]
    while todo:
        for name in local[todo.pop()] - reached:
            reached.add(name)
            todo.append(name)
    assert {"charkit", "exactnum", "partition"} <= reached
    assert reached.isdisjoint({"dimred", "verify", "oracle", "closedform"})


def test_character_shares_no_code_with_the_columns():
    # character() is the independent check of the columns xi reads, so no
    # function it reaches inside charkit may be a column builder.
    tree = dict(_module_trees())["charkit"]
    calls = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    reached, todo = set(), ["character"]
    while todo:
        for name in (calls[todo.pop()] & calls.keys()) - reached:
            reached.add(name)
            todo.append(name)
    assert {"_remove_strips", "_bead_parts", "_hook_product"} <= reached
    assert reached.isdisjoint({
        "_add_strips", "_char_column", "_identity_column", "_hook_column",
        "_shape_characters",
    })


def test_countcore_reads_characters_through_one_charkit_call():
    # The beta-set masks stay inside charkit: countcore takes its character
    # products from _shape_characters, has no branch of its own for the
    # full cycle and does no bit arithmetic.
    tree = dict(_module_trees())["countcore"]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "charkit"
        for alias in node.names
    }
    assert imported == {"_content_sums", "_hook_product", "_shape_characters"}
    bit_ops = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift, ast.Invert)
    assert not [node for node in ast.walk(tree) if isinstance(node, bit_ops)]
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Tuple)
    ]


def test_cli_import_loads_no_dataclasses_or_json():
    # Every command pays for what `import permfact.cli` loads, so the checks
    # (verify, symfun, and report's result types) and the rational sum's
    # fractions and decimal wait for the code that runs them.  The modules perfbench's tracer and counters
    # read by name must still be loaded, and closedform holds the map route.
    # -S keeps site-packages hooks out of the set.
    script = (
        "import sys; before = set(sys.modules); import permfact, permfact.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert added.isdisjoint({
        "dataclasses", "inspect", "ast", "dis", "tokenize", "json",
        "permfact.verify", "permfact.symfun", "permfact.report", "fractions", "decimal",
    })
    assert {f"permfact.{name}" for name in ("dimred", "oracle", "closedform")} <= added


def test_check_exports_load_their_module_on_first_use():
    # The check exports and the check modules are listed by dir() before
    # they are loaded, and load on first access: the result types with
    # report, the closed forms that only cross-check mu with verify.
    script = (
        "import sys, permfact; names = dir(permfact); "
        "print(sorted(set(permfact.__all__) - set(names)), len(names) - len(set(names))); "
        "loaded = lambda: [m for m in ('report', 'verify', 'symfun') "
        "if f'permfact.{m}' in sys.modules]; print(loaded()); "
        "from permfact import CaseResult; print(CaseResult.__module__, loaded()); "
        "from permfact import mu_t_p; print(mu_t_p.__module__, loaded()); "
        "from permfact import hz_series_check, verify_schur_identity; "
        "print(hz_series_check.__module__, verify_schur_identity.__module__); "
        "names = dir(permfact); print(len(names) - len(set(names)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True, timeout=60,
    )
    assert done.stdout == (
        "[] 0\n[]\npermfact.report ['report']\n"
        "permfact.verify ['report', 'verify', 'symfun']\n"
        "permfact.verify permfact.symfun\n0\n"
    )
    for name in (
        "mu_genus_zero", "mu_one_p", "mu_t_p", "mu_two_parts", "mu_p_power",
        "jackson_by_length", "hz_series_check", "polynomiality_check",
    ):
        assert getattr(permfact, name) is getattr(permfact.verify, name), name
        assert not hasattr(permfact.closedform, name), name
    for name in ("CaseResult", "CheckReport"):
        assert getattr(permfact, name) is getattr(permfact.report, name), name
    assert permfact.symfun.verify_m1_identities is permfact.verify_m1_identities
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        permfact.bogus
