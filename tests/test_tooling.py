"""Static checks over the package and script sources."""

from __future__ import annotations

import ast
import importlib

from ncho import cli, errors, families

from conftest import SCENARIO_DIR

ROOT = SCENARIO_DIR.parent
SOURCES = sorted((ROOT / "src" / "ncho").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _module_imports(node: ast.AST):
    """(bound name, line) of each import outside function and class bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.asname or alias.name.partition(".")[0], child.lineno
        elif isinstance(child, ast.ImportFrom):
            if child.module == "__future__":
                continue
            for alias in child.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, child.lineno
        else:
            yield from _module_imports(child)


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    """Module-level imports whose bound name the module never reads or exports."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [(name, line) for name, line in _module_imports(tree) if name not in used]


def test_unused_import_check_sees_module_level_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from math import pi, tau as turn\n"
        "if True:\n"
        "    import json\n"
        "try:\n"
        "    import csv\n"
        "except ImportError:\n"
        "    import io\n"
        "__all__ = ['pi']\n"
        "def f(x: turn):\n"
        "    import re\n"
        "    return xml.dom, csv\n"
    )
    assert unused_imports(source) == [("os", 2), ("osp", 3), ("json", 7), ("io", 11)]


def test_no_unused_module_imports():
    assert len(SOURCES) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for name, line in unused_imports(path.read_text())
    ]
    assert unused == []


def comma_joins(source: str) -> list[int]:
    """Lines that call ``",".join``, the hand-built form of a CSV row."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "join"
        and isinstance(node.func.value, ast.Constant)
        and node.func.value.value == ","
    ]


# The CSV number writer: cli.format_table and the kernel that owns its fallback.
CSV_WRITER = {"format_table", "_sci_words"}


def sci_formats(source: str, allowed: set[str] = frozenset()) -> list[int]:
    """Lines that apply a %.12e string with % or format a :.12e f-string
    field, outside the functions named in ``allowed``."""
    found = []

    def visit(node: ast.AST, exempt: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or node.name in allowed
        if not exempt:
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, (str, bytes))
                and "%.12e" in str(node.left.value)
            ):
                found.append(node.lineno)
            elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
                if ".12e" in ast.unparse(node.format_spec):
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(ast.parse(source), False)
    return sorted(found)


def test_csv_rows_are_formatted_in_one_place():
    # Every CSV row goes through cli.format_table and its per-table format,
    # and its vector kernel is the only writer of %.12e numbers.
    assert comma_joins('a = ",".join(x)\nb = "".join(x)\nc = ", ".join(x)\nd = s.join(x)\n') == [1]
    source = (
        'a = "%.12e" % x\n'
        'b = b"%.12e,%d" % (x, 1)\n'
        'c = f"{x:.12e}"\n'
        'd = f"{x:.3e}" + "%.3e" % x + "%.12e".replace("e", "g")\n'
        "def format_table(x):\n"
        '    return "%.12e" % x\n'
        "def other(x):\n"
        '    return f"{x:>20.12e}"\n'
    )
    assert sci_formats(source) == [1, 2, 3, 6, 8]
    assert sci_formats(source, {"format_table"}) == [1, 2, 3, 8]
    joins = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in SOURCES
        for line in comma_joins(path.read_text())
    ]
    assert joins == []
    numbers = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in SOURCES
        for line in sci_formats(path.read_text(), CSV_WRITER if path.name == "cli.py" else set())
    ]
    assert numbers == []


# The exact-arithmetic functions: each keeps its factorials as Python integers.
EXACT_FACTORIALS = {"laguerre_coefficients", "laguerre_weighted_integral_exact", "_element_coefficient"}


def factorial_uses(source: str, allowed: set[str] = frozenset()) -> list[tuple[str, int]]:
    """(enclosing function, line) of each read or import of math.factorial outside
    the functions named in ``allowed``; the function is "" at module level."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            (isinstance(node, ast.Attribute) and node.attr == "factorial")
            or (isinstance(node, ast.Name) and node.id == "factorial")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "factorial" for a in node.names))
        ) and function not in allowed:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return found


def test_factorials_stay_exact():
    # A factorial turned into a float overflows past 170!, long before the value it
    # feeds does; the label ratios a float needs come from math.perm instead.
    source = (
        "import math\n"
        "from math import factorial\n"
        "def exact(n):\n"
        "    return math.factorial(n)\n"
        "def rounded(n):\n"
        "    return float(factorial(n)) + math.perm(n, 2)\n"
    )
    assert factorial_uses(source) == [("", 2), ("exact", 4), ("rounded", 6)]
    assert factorial_uses(source, {"exact"}) == [("", 2), ("rounded", 6)]
    uses = [
        f"{path.relative_to(ROOT)}:{line}: {function}"
        for path in SOURCES
        for function, line in factorial_uses(path.read_text(), EXACT_FACTORIALS)
    ]
    assert uses == []


def phase_route_leaks(source: str) -> list[tuple[str, int]]:
    """(name, line) of each import of cmath and each read or import of PhaseMethod."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [("cmath", node.lineno) for alias in node.names if alias.name == "cmath"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "cmath":
                found.append(("cmath", node.lineno))
            found += [
                ("PhaseMethod", node.lineno) for alias in node.names if alias.name == "PhaseMethod"
            ]
        elif isinstance(node, ast.Name) and node.id == "PhaseMethod":
            found.append(("PhaseMethod", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "PhaseMethod":
            found.append(("PhaseMethod", node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_phase_routes_and_psi_are_formed_in_spectrum_only():
    # The method column, the cross-check and e^{i Theta} live in spectrum;
    # the command line and the scripts only print what it returns.
    source = (
        "import cmath\n"
        "from cmath import exp\n"
        "from ncho.spectrum import PhaseMethod, StateLabel\n"
        "import ncho.spectrum as sp\n"
        "x = sp.PhaseMethod.QUADRATURE\n"
        "y = PhaseMethod\n"
        "z = sp.StateLabel(0, 1)\n"
    )
    assert phase_route_leaks(source) == [
        ("cmath", 1), ("cmath", 2), ("PhaseMethod", 3), ("PhaseMethod", 5), ("PhaseMethod", 6)
    ]
    leaks = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in [ROOT / "src" / "ncho" / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]
        for name, line in phase_route_leaks(path.read_text())
    ]
    assert leaks == []


def _referenced(node: ast.AST) -> set[str]:
    """Every name a node reads, bare or as an attribute."""
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    }


def _benchmark_literal(module: str, name: str):
    """The module-level literal ``name`` of perfbench/<module>.py, read without
    importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{module}.py defines no {name}")


def _span_table() -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The (module, function names) pairs perfbench/spans.py wraps, read from its
    TARGETS literal."""
    return _benchmark_literal("spans", "TARGETS")


def _span_targets() -> set[str]:
    """The function names perfbench/spans.py wraps."""
    return {name for _, names in _span_table() for name in names}


def test_every_span_target_is_defined_by_its_module():
    # The benchmark's traced run looks each target up as spans.install does;
    # a refactor that deletes one must say so here, inside the tier-1 suite.
    missing = [
        f"{module}.{name}"
        for module, names in _span_table()
        for name in names
        if not callable(getattr(importlib.import_module(f"ncho.{module}"), name, None))
    ]
    assert missing == []


def test_verify_battery_matches_the_benchmark():
    # The benchmark fails every verify operation that prints other than
    # VERIFY_CHECKS PASS rows; a change to the battery must show here first.
    assert len(cli._VERIFY_CHECKS) == _benchmark_literal("checks", "VERIFY_CHECKS")


def unreachable_definitions(roots) -> list[str]:
    """Module-level functions and classes of the package that no entry point reaches.

    The roots are cli.main, every name the scripts read and the names in
    ``roots``. A reached module-level function, class or assignment
    reaches every module-level definition named in its body, in any package module.
    """
    nodes: dict[str, list[ast.AST]] = {}
    checked = []
    for path in sorted((ROOT / "src" / "ncho").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes.setdefault(node.name, []).append(node)
                checked.append(f"{path.stem}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in set().union(*map(_referenced, targets)):
                    nodes.setdefault(name, []).append(node)
    todo = ["main", *roots]
    for path in sorted((ROOT / "scripts").glob("*.py")):
        todo.extend(_referenced(ast.parse(path.read_text())))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in nodes and name not in reached:
            reached.add(name)
            for node in nodes[name]:
                todo.extend(_referenced(node))
    return [qualified for qualified in checked if qualified.partition(".")[2] not in reached]


def test_every_definition_is_reachable_from_an_entry_point():
    # Code that only its own tests use is deleted, not kept as a second route.
    assert len(_span_targets()) > 20
    assert unreachable_definitions(_span_targets()) == []


def raised_names(source: str) -> set[str]:
    """The names a module raises, as ``raise Name`` or ``raise Name(...)``."""
    raised = (node.exc for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))
    named = (exc.func if isinstance(exc, ast.Call) else exc for exc in raised)
    return {exc.id for exc in named if isinstance(exc, ast.Name)}


def test_every_error_type_has_a_raiser():
    # An exception type that nothing raises has outlived the code that raised it.
    source = "raise A('x')\nraise B\nraise C.d()\ntry:\n    pass\nexcept E:\n    raise\n"
    assert raised_names(source) == {"A", "B"}
    subclasses = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.NchoError)
        and value is not errors.NchoError
    }
    raised = set().union(*(
        raised_names(path.read_text()) for path in (ROOT / "src" / "ncho").glob("*.py")
    ))
    assert len(subclasses) > 5 and sorted(subclasses - raised) == []


def caught_names(source: str) -> set[str]:
    """The names a module catches, as ``except Name`` or ``except (Name, ...)``."""
    caught = (
        node.type for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    )
    types = (elt for exc in caught for elt in (exc.elts if isinstance(exc, ast.Tuple) else [exc]))
    return {elt.id for elt in types if isinstance(elt, ast.Name)}


def test_no_code_raises_or_catches_runtime_error():
    # A failed cross-check raises ToleranceNotMet (exit 1). A caught RuntimeError
    # would read RecursionError and NotImplementedError, programming errors, as one.
    source = (
        "try:\n    raise RuntimeError('x')\n"
        "except (ValueError, KeyError):\n    pass\nexcept E:\n    pass\n"
    )
    assert raised_names(source) == {"RuntimeError"}
    assert caught_names(source) == {"ValueError", "KeyError", "E"}
    found = [
        path.name for path in (ROOT / "src" / "ncho").glob("*.py")
        if "RuntimeError" in raised_names(path.read_text()) | caught_names(path.read_text())
    ]
    assert found == []


# What only the benchmark's span targets keep alive. The set may only shrink:
# a definition that leaves production for the benchmark alone shows here.
BENCHMARK_ONLY = {
    "spectrum.phase_quadrature",
    "specfun.integrate_adaptive_full",
    "hamiltonian.nc_parameters",
}


def test_benchmark_keeps_alive_only_the_listed_definitions():
    assert set(unreachable_definitions(())) <= BENCHMARK_ONLY


# Constants the model fixes (vartheta = Gamma, xi = hbar = 1): the scenario
# parser rejects any other value, so no code may read one as a setting.
FIXED_CONSTANTS = {"vartheta", "xi", "hbar"}


def fixed_constant_reads(source: str) -> list[tuple[str, int]]:
    """(attribute, line) of each read of an attribute named in FIXED_CONSTANTS."""
    return sorted(
        ((node.attr, node.lineno) for node in ast.walk(ast.parse(source))
         if isinstance(node, ast.Attribute) and node.attr in FIXED_CONSTANTS),
        key=lambda item: item[1],
    )


def test_no_code_reads_a_fixed_constant():
    source = (
        "a = c.xi**2\n"
        "b = scenario.hbar\n"
        "xi = numbers.get('xi', 1.0)\n"
        "d = self.constants.vartheta * t\n"
        "e = c.Gamma\n"
    )
    assert fixed_constant_reads(source) == [("xi", 1), ("hbar", 2), ("vartheta", 4)]
    reads = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for name, line in fixed_constant_reads(path.read_text())
    ]
    assert reads == []


def family_reads(source: str) -> list[int]:
    """Lines that read an attribute named ``family``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "family"
    )


# Each name that makes a scenario when called: the family classes, the Scenario
# alias of their base, and the dataclass copy with changed fields.
FAMILY_MAKERS = {
    name for name, value in vars(families).items()
    if isinstance(value, type) and issubclass(value, families.Family)
} | {"Scenario", "replace"}


def family_instantiations(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call that makes a scenario: a name in
    FAMILY_MAKERS, dataclasses.replace or a class looked up in ``_FAMILIES``;
    the function is "" at module level."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (
                (isinstance(func, ast.Name) and func.id in FAMILY_MAKERS)
                or (isinstance(func, ast.Attribute) and func.attr in FAMILY_MAKERS
                    and isinstance(func.value, ast.Name) and func.value.id in ("families", "dataclasses"))
                or (isinstance(func, ast.Subscript) and "_FAMILIES" in _referenced(func.value))
            ):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return found


def test_a_scenario_is_read_directly_and_made_in_one_place():
    # A scenario is its bound family class: no code hops through a .family, and
    # config.build_scenario is the one door that makes and checks one.
    source = (
        "import dataclasses\n"
        "x = scenario.family.rho(t)\n"
        "y = SetIb(c)\n"
        "def build(spec):\n"
        "    return _FAMILIES[spec.kind](spec.constants, spec.k_exp)\n"
        "def copy(s):\n"
        "    return dataclasses.replace(s, k_exp=3), families.SetIII(c), text.replace('a', 'b')\n"
    )
    assert family_reads(source) == [2]
    assert family_instantiations(source) == [("", 3), ("build", 5), ("copy", 7), ("copy", 7)]
    reads = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in SOURCES + sorted((ROOT / "tools").glob("*.py"))
        for line in family_reads(path.read_text())
    ]
    assert reads == []
    makers = [
        f"{path.relative_to(ROOT)}: {function}"
        for path in SOURCES
        for function, _ in family_instantiations(path.read_text())
    ]
    assert makers == ["src/ncho/config.py: build_scenario"]
