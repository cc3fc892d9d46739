"""Static checks on the imports of the modules under src/qortho, and the
functions of those modules that no CLI command reaches."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qortho"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """{name bound by an import: line}, __future__ imports left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set:
    """The names a module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    # a name counts as used when the module reads it anywhere or re-exports
    # it through __all__
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_series_summation_stays_in_qseries():
    # every basic hypergeometric series goes through qseries._phi_series,
    # so the polynomial routes need neither the sum loop nor its guard
    tree = ast.parse((SRC / "polynomials.py").read_text())
    assert not {"_series_sum", "_escalated"} & set(_imported_names(tree))


def _nodes_with_function(node: ast.AST, function: str = ""):
    """(node, name of the innermost function around it) for every node
    under node."""
    for child in ast.iter_child_nodes(node):
        yield child, function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _nodes_with_function(child, inner)


def _names_a_or_b(node: ast.AST) -> bool:
    """Whether node reads a parameter a or b: a name a or b, or p.a, p.b."""
    return any(
        isinstance(n, ast.Name) and n.id in ("a", "b") or isinstance(n, ast.Attribute) and n.attr in ("a", "b")
        for n in ast.walk(node)
    )


def _tests_branch(node: ast.AST) -> bool:
    """Whether node compares something with the branch name "a" or "b"."""
    return isinstance(node, ast.Compare) and any(
        isinstance(c, ast.Constant) and c.value in ("a", "b") for c in (node.left, *node.comparators)
    )


def _is_role_rule(node: ast.AST) -> bool:
    """A conditional that picks a or b by the branch name: an expression
    `... if branch == "a" else ...` over a and b, or an if statement on
    the branch that assigns to a and b."""
    if isinstance(node, ast.IfExp):
        return _tests_branch(node.test) and _names_a_or_b(node.body) and _names_a_or_b(node.orelse)
    return (
        isinstance(node, ast.If)
        and _tests_branch(node.test)
        and any(isinstance(s, ast.Assign) and any(map(_names_a_or_b, s.targets)) for s in node.body)
    )


def _is_decimal_call(node: ast.AST) -> bool:
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Name) and func.id == "Decimal" or isinstance(func, ast.Attribute) and func.attr == "Decimal"
    )


def test_precision_model_written_once():
    # every magnitude decision reads a float log (qseries._log10), never a
    # Decimal log10 or a power of 10 in Decimals; every working context is
    # sized by a named digit constant; and the rule that names the two
    # spectral branches, (first, second) = (a, b) or (b, a), is the one
    # function polynomials._roles
    found = {"log10": [], "power": [], "digits": [], "roles": []}
    for path in MODULES:
        for node, function in _nodes_with_function(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and func.attr == "log10" and getattr(func.value, "id", None) != "math":
                found["log10"].append(where)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _is_decimal_call(node.right):
                found["power"].append(where)
            if getattr(func, "id", None) == "_working_context" and any(
                isinstance(n, ast.Constant) and isinstance(n.value, int) for arg in node.args for n in ast.walk(arg)
            ):
                found["digits"].append(where)
            if _is_role_rule(node):
                found["roles"].append(f"{path.name}:{function}")
    assert found == {"log10": [], "power": [], "digits": [], "roles": ["polynomials.py:_roles"]}


def test_no_float_log_in_the_operator_modules():
    # the truncation radius is a Decimal closed form, and the generic
    # eigencoefficients multiply the Decimal prefactors of
    # operators._pref_a_ratio: neither module takes a float log10
    for name in ("operators.py", "representation.py"):
        tree = ast.parse((SRC / name).read_text())
        logs = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in ("log10", "_log10")]
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert logs == [] and not defined & {"_log10_prefactors", "_unit_factors_from"}, (name, logs)


# the functions that take a sum's stop target as an argument
_TARGET_TAKERS = {"_phi_series", "_series_sum", "_escalated", "_bilinear_sum"}


def _statement_name(stmt: ast.stmt) -> str:
    """The name a module-level statement binds: a function's or class's,
    or an assignment's first target; else its line."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return str(stmt.lineno)


def test_stop_rule_written_once():
    # a sum's stop target follows its scalars, as its digits do: no
    # function takes a truncation policy, a parameter t or one annotated
    # Truncation; the targets 1e-12 and 1e-20 are written only in
    # qseries._stop_target and the term cap only in qseries._MAX_TERMS, and
    # no call passes a target or a cap as a literal
    found = {"policy": [], "target": [], "cap": [], "literal": []}
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            where = f"{path.name}:{_statement_name(stmt)}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.arg) and (
                    node.arg == "t" or node.annotation is not None and "Truncation" in ast.unparse(node.annotation)
                ):
                    found["policy"].append(where)
                if isinstance(node, ast.Constant) and type(node.value) in (int, float):
                    if node.value == 10000:
                        found["cap"].append(where)
                    elif node.value == 1e-20 or node.value == 1e-12 and path.name == "qseries.py":
                        found["target"].append(where)
                func = getattr(node, "func", None)
                if getattr(func, "id", None) in _TARGET_TAKERS and any(
                    isinstance(arg, ast.Constant) and type(arg.value) in (int, float) for arg in node.args
                ):
                    found["literal"].append(where)
    assert found == {
        "policy": [],
        "target": ["qseries.py:_stop_target"] * 2,
        "cap": ["qseries.py:_MAX_TERMS"],
        "literal": [],
    }


# the command lines of the reachability run, each with its exit code: every
# subcommand, both precisions and both formats, the lowest weight --l, a
# value outside the domain and a malformed option (usage errors), and a
# point where c'_0 leaves the float range: it costs verify the records that
# read it, and table, whose rows are no records, its run (no verdict)
REACH_COMMANDS = [
    (["verify"], 0),
    (["verify", "--precision", "extended", "--index-max", "2"], 0),
    (["verify", "--format", "csv", "--index-max", "2"], 0),
    (["spectrum", "--dim", "40"], 0),
    (["table"], 0),
    (["table", "--format", "csv"], 0),
    (["limit"], 0),
    (["report-all", "--index-max", "2", "--dim", "20"], 0),
    (["verify", "--l", "1.0", "--index-max", "1"], 0),
    (["verify", "--b", "0.7"], 64),
    (["verify", "--index-max", "x"], 64),
    (["verify", "--q", "0.99", "--a", "1.0", "--b", "-0.001"], 2),
    (["table", "--q", "0.99", "--a", "1.0", "--b", "-0.001"], 70),
]

# the functions that none of REACH_COMMANDS calls, by module and qualified
# name: library API, each public one named in the README's library-use
# section, and the private helpers only it calls
UNREACHED = {
    "__init__.__dir__",
    "__init__.__getattr__",
    "operators.Tridiagonal.apply",
    "operators.Tridiagonal.dense",
    "orthogonality._Grid.holds",
    "orthogonality.verify_record",
    "polynomials._label_of",
    "qseries.QParams.alpha",
    "qseries.QParams.beta1",
    "qseries.QParams.beta2",
    "qseries._Validated._make",
    "qseries._zero",
    "qseries.jackson_Eq",
    "qseries.jackson_Eq.<locals>._sum",
    "qseries.jackson_Eq.<locals>._sum.<locals>.step",
    "qseries.phi_3_2",
    "qseries.q_number",
    "representation.GeneratorMatrices.jminus_dense",
    "representation.GeneratorMatrices.jplus_dense",
    "representation._composed",
    "representation._diag_scaled",
    "representation._normalization",
    "representation._plus",
    "representation._pref_phi_ratio",
    "representation._pref_psi_ratio",
    "representation._to_floats",
    "representation._zeros",
    "representation.build_A1_A2",
    "representation.build_generator_matrices",
    "representation.compose_A1_A2_from_generators",
    "representation.compose_A_from_generators",
    "representation.eigen_coefficients",
    "representation.jminus_action_factor",
    "representation.jplus_action_factor",
    "representation.normalization_c",
    "representation.normalization_cprime",
    "representation.psi_phi_coefficients",
    "representation.qJ0_inverse_action",
    "representation.recurrence_residuals",
    "routes._dual_value",
    "routes._generating_coefficient_ratio",
    "routes._roots_of_unity",
    "routes.big_q_laguerre_generating",
    "routes.big_q_laguerre_phi21",
    "routes.dual_f",
    "routes.dual_g",
    "routes.generating_closed",
    "routes.generating_series",
    "routes.q_inverse_meixner_relation",
}

# runs the command lines of argv[2] through the process entry, with the
# profiler set before qortho is imported, and prints their exit codes and
# the (file, first line) of each code object under argv[1] that ran
_REACH_CHILD = """
import contextlib, io, json, sys

src, commands = sys.argv[1], json.loads(sys.argv[2])
reached = set()


def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        reached.add((code.co_filename, code.co_firstlineno))


sys.setprofile(hook)
import qortho.cli

codes = []
for argv in commands:
    sys.argv = ["qortho", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            qortho.cli.process_main()
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps([codes, sorted(reached)]))
"""


def _functions(node: ast.AST, prefix: str = ""):
    """(first line, qualified name) of each function defined under node,
    the first line that of its first decorator, as its code object has it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), prefix + child.name
            yield from _functions(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from _functions(child, prefix)


def _library_names() -> set:
    """The names that the README's library-use section writes as code."""
    text = (SRC.parent.parent / "README.md").read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)[`(]", section))


def test_functions_no_command_reaches():
    # a function that no command calls is library API, which the README
    # lists, or a helper of it; a formula that is neither belongs in the
    # tests as a reference, not in the package
    src = str(SRC) + os.sep
    argv = [sys.executable, "-c", _REACH_CHILD, src, json.dumps([cmd for cmd, _ in REACH_COMMANDS])]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    res = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    codes, reached = json.loads(res.stdout)
    assert codes == [code for _, code in REACH_COMMANDS]
    reached = {(Path(path).stem, line) for path, line in reached}
    unreached = {
        f"{path.stem}.{name}"
        for path in MODULES
        for line, name in _functions(ast.parse(path.read_text()))
        if (path.stem, line) not in reached
    }
    assert unreached == UNREACHED
    public = {top for top in (name.split(".")[1] for name in unreached) if not top.startswith("_")}
    assert public <= _library_names(), public - _library_names()
