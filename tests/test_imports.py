"""Name hygiene: every module-level import in the package and the tests is
used, every module-level name the package defines is read somewhere in it
or exported, and every method of its classes is read as an attribute;
every exported name is documented in README.md or used by bench/; every
parameter of the package's functions and methods is read, every parameter
with a default is read by its function and passed by some caller, and by
some program in src/ or bench/ outside a named allow-list; lab
imports no private name of another module, no exponent comes from log2,
functionals forms determinants in _tuple_terms alone, the determinant path
takes no matrix product or LAPACK call, geometry._inside alone sums
ellipsoid membership terms, and neither importing the package
nor running its commands loads scipy, and importing it leaves
importlib.metadata unloaded; both curvature searches maximise one
objective in _grid_then_refine; no CheckRecord call sets a verdict that
the record derives."""

import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from detcurve.lab import BUNDLED_SCENARIOS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/detcurve/*.py"))
MODULES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads; names
    listed in __all__ count as read (re-exports)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(exported(tree))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def exported(tree) -> list:
    """The names listed in a module's top-level __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def dead_names(sources: dict) -> list:
    """(module, line, name) of the module-level functions, classes and
    assignments that no module reads, as a name or an attribute, and that
    no __all__ exports, and of the methods and properties of module-level
    classes (named Class.method) that no module reads as an attribute, so
    that a local variable of the same name does not hide them; dunder
    names are exempt."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read, attributes = set(), set()
    for tree in trees.values():
        read.update(exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                dead += [(mod, f.lineno, f"{node.name}.{f.name}") for f in node.body
                         if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and f.name not in attributes and not f.name.startswith("__")]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(mod, node.lineno, name) for name in names
                     if name not in read and not name.startswith("__")]
    return sorted(dead)


def unread_defaults(source: str) -> list:
    """(line, function, parameter) of the parameters with a default value
    that their function or method never reads: a caller can pass them, and
    nothing happens."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, node.name, a.arg) for a in defaulted
                   if a.arg not in read]
    return sorted(unread)


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of the parameters, defaulted or not, that
    a module-level function or a method of a module-level class never
    reads; self and cls are exempt."""
    tree = ast.parse(source)
    defs = [*tree.body, *(f for c in tree.body if isinstance(c, ast.ClassDef)
                          for f in c.body)]
    unread = []
    for node in defs:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, node.name, a.arg) for a in params
                   if a.arg not in read and a.arg not in ("self", "cls")]
    return sorted(unread)


def never_passed_defaults(package: dict, callers: dict) -> list:
    """(module, line, function, parameter) of the parameters with a default
    value in the package's functions and methods that no call in the
    callers passes, by keyword or by position: every caller takes the
    default, so it is a constant.  A call matches every definition of its
    name; a *args or **kwargs call passes every parameter of that kind,
    and a method's receiver takes no positional slot of the call."""
    keywords, positions = {}, {}
    for src in callers.values():
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
            n = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            positions[name] = max(positions.get(name, 0), n)
    flagged = []
    for mod, src in package.items():
        tree = ast.parse(src)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and "staticmethod" not in [getattr(d, "id", None)
                                              for d in f.decorator_list]}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            passed = keywords.get(node.name, set())
            if None in passed:  # a **kwargs call
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            reach = positions.get(node.name, 0) + (id(node) in methods)
            first = min(max(len(positional) - len(args.defaults), reach),
                        len(positional))
            defaulted = positional[first:] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            flagged += [(mod, node.lineno, node.name, a.arg) for a in defaulted
                        if a.arg not in passed]
    return sorted(flagged)


def test_scan_flags_unused_and_keeps_reexports():
    src = "import os\nimport json as j\nfrom a import b, c\n__all__ = ['c']\nj.dumps(1)\n"
    assert unused_imports(src) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_dead_name_scan_flags_unread_definitions():
    sources = {
        "a": "LIMIT = 1\nSTALE = 2\n__all__ = ['api', 'K']\ndef api(): return LIMIT\n"
             "def helper(): pass\nclass Old: pass\n"
             "class K:\n    def used(self): pass\n"
             "    @property\n    def size(self): return 1\n"
             "    def shadowed(self): pass\n",
        "b": "from . import a\n__version__ = '1'\nx = a.helper\n__all__ = ['f']\n"
             "def f(k):\n    k.size = 2\n    shadowed = k.used()\n    return shadowed\n",
    }
    # K.size is only stored to, and K.shadowed only a local variable's name
    assert dead_names(sources) == [("a", 2, "STALE"), ("a", 6, "Old"),
                                   ("a", 10, "K.size"), ("a", 11, "K.shadowed"),
                                   ("b", 3, "x")]


def test_no_dead_package_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_names(sources) == []


def test_public_names_are_documented_or_benchmarked():
    # __all__ is the surface README.md documents plus what bench/ uses;
    # the tests import every other name from its module
    import detcurve

    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in [ROOT / "README.md", *ROOT.glob("bench/*.py")])
    assert [name for name in detcurve.__all__
            if not re.search(rf"\b{re.escape(name)}\b", text)] == []


def log2_uses(source: str) -> list:
    """Lines that name log2 in code: as an attribute (math.log2, np.log2),
    as a bare name, or in an import."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Attribute) and node.attr == "log2")
                  or (isinstance(node, ast.Name) and node.id == "log2")
                  or (isinstance(node, ast.alias) and node.name == "log2"))


def test_log2_scan_flags_every_spelling():
    src = ('import math\nfrom numpy import log2\n"""log2 in a docstring"""\n'
           "a = math.floor(math.log2(3.0))\nb = np.log2(x)\nc = log2(4.0)\n")
    assert log2_uses(src) == [2, 4, 5, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_log2_exponents(path):
    # floor or ceil of a log2 can be one off next to a power of two;
    # curvature.dyadic_exponents reads the exponent from math.frexp
    assert log2_uses(path.read_text(encoding="utf-8")) == []


def name_uses(source: str, name: str) -> list:
    """(top-level definition, line) of every use of a name in code: as an
    attribute (geometry._vertex_dets), as a bare name, or in an import;
    the definition is None outside any def or class."""
    return sorted(((getattr(top, "name", None), node.lineno)
                   for top in ast.parse(source).body for node in ast.walk(top)
                   if (isinstance(node, ast.Attribute) and node.attr == name)
                   or (isinstance(node, ast.Name) and node.id == name)
                   or (isinstance(node, ast.alias) and node.name == name)),
                  key=lambda use: use[1])


def test_vertex_det_scan_flags_every_spelling():
    src = ("from .geometry import _vertex_dets\n"
           '"""_vertex_dets in a docstring"""\n'
           "def f(rows):\n    def g():\n        return geometry._vertex_dets(rows)\n"
           "    return g\n"
           "h = _vertex_dets\n")
    assert name_uses(src, "_vertex_dets") == [(None, 1), ("f", 5), (None, 7)]


def unchunked_term_uses(source: str) -> list:
    """name_uses of _tuple_terms outside a function named rectangle and
    outside every loop over CHUNK-long sub-ranges: an index-array block
    forming all its terms at once.  A rectangle's keys are (R, 1) leading
    rows and a slice of the last slot, so it gathers no per-tuple index."""
    exempt = {node.lineno for top in ast.walk(ast.parse(source))
              if (isinstance(top, ast.For) and "CHUNK" in ast.unparse(top.iter))
              or (isinstance(top, ast.FunctionDef) and top.name == "rectangle")
              for node in ast.walk(top) if hasattr(node, "lineno")}
    return [(top, line) for top, line in name_uses(source, "_tuple_terms")
            if line not in exempt]


def test_unchunked_term_scan_flags_a_full_block_call():
    src = ("def _enumerate(c, v, p):\n    def rectangle(lead, lo, hi):\n"
           "        return _tuple_terms(c, v, lead, p)\n"
           "    def block(start, stop):\n"
           "        for s in range(start, stop, CHUNK):\n"
           "            t = _tuple_terms(c, v, s, p)\n"
           "        return _tuple_terms(c, v, (start, stop), p)\n")
    assert unchunked_term_uses(src) == [("_enumerate", 7)]


def test_one_term_routine_forms_the_determinants():
    # every exact block, product or symmetric, is one broadcast rectangle
    # formed in one call of functionals._tuple_terms; sampled draws are
    # index arrays, formed CHUNK tuples at a time, never a block at once
    source = (ROOT / "src/detcurve/functionals.py").read_text(encoding="utf-8")
    assert [name for name, _ in name_uses(source, "_vertex_dets")] == ["_tuple_terms"]
    assert [name for name, _ in name_uses(source, "_tuple_terms")] == [
        "_enumerate", "det_form_sampled"]
    assert unchunked_term_uses(source) == []


def matrix_product_uses(source: str, names) -> list:
    """(top-level definition, line) of every matrix product or LAPACK call
    in the named top-level definitions: an @ operator, or dot, matmul,
    einsum or linalg as a name or an attribute (np.dot, x.dot, np.linalg)."""
    words = {"dot", "matmul", "einsum", "linalg"}
    return sorted({(top.name, node.lineno) for top in ast.parse(source).body
                   if getattr(top, "name", None) in names for node in ast.walk(top)
                   if (isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.MatMult))
                   or (isinstance(node, ast.Attribute) and node.attr in words)
                   or (isinstance(node, ast.Name) and node.id in words)})


def test_matrix_product_scan_flags_every_spelling():
    src = ('def f(a, b):\n    """a @ b and np.linalg in a docstring"""\n'
           "    c = a @ b\n    c @= b\n"
           "    return np.linalg.det(c) + np.dot(a, b) + a.dot(b)\n"
           "def g(a):\n    return einsum('ij->i', a) + np.matmul(a, a)\n"
           "def h(a, b):\n    return np.linalg.det(a @ b)\n")
    assert matrix_product_uses(src, {"f", "g"}) == [("f", 3), ("f", 4), ("f", 5), ("g", 7)]


def test_determinant_path_has_no_matrix_products():
    # every determinant and Cauchy-Binet minor is one fixed circuit of
    # elementwise products and sums; a BLAS product or LAPACK's pivoted LU
    # would break exact cancellation and exact dilation covariance
    for module, names in (("geometry", {"_minors", "_vertex_dets", "simplex_det_many"}),
                          ("functionals", {"_tuple_terms"})):
        source = (ROOT / f"src/detcurve/{module}.py").read_text(encoding="utf-8")
        assert names <= {getattr(top, "name", None) for top in ast.parse(source).body}
        assert matrix_product_uses(source, names) == [], module


def reciprocal_round_trips(source: str) -> list:
    """Lines of code that take a reciprocal of a reciprocal, 1 / (1 / x)."""
    def reciprocal(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.left, ast.Constant) and node.left.value == 1)

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if reciprocal(node) and reciprocal(node.right))


def test_round_trip_scan_flags_reciprocals_of_reciprocals():
    src = ('"""1.0 / (1.0 / x) in a docstring"""\na = 1.0 / (1.0 / x)\n'
           "b = 1 / (1 / y)\nc = 1.0 / x\nd = 2.0 / (1.0 / x)\ne = 1.0 / (x / 1.0)\n")
    assert reciprocal_round_trips(src) == [2, 3]


def test_one_membership_routine():
    # an Ellipsoid stores its semi-lengths, and geometry._inside alone sums
    # the membership terms, for contains_many and the curvature refinement
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    callers = {mod: [top for top, _ in name_uses(src, "_axis_sum")]
               for mod, src in sources.items()}
    assert {mod: tops for mod, tops in callers.items() if tops} == {"geometry.py": ["_inside"]}
    for mod, src in sources.items():
        assert [word for word in ("inv_lengths", "from_semi_lengths") if word in src] == [], mod
        assert reciprocal_round_trips(src) == [], mod


def parameter_names(source: str) -> set:
    """Every parameter name of every def and lambda in the source."""
    return {arg.arg for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for arg in [*node.args.posonlyargs, *node.args.args, node.args.vararg,
                        *node.args.kwonlyargs, node.args.kwarg] if arg is not None}


def test_search_scan_flags_a_second_objective():
    src = ("def _refine(fr, ln, score_fn, minimize):\n    return score_fn(fr, ln)\n"
           "def _grid_then_refine(mu, fam):\n    def score(fr, ln):\n"
           "        return _single_mass(mu, fr, ln)\n"
           "    return curvature._centred_masses(mu, fam)\n"
           "def estimate(mu, fam, *, scale=lambda minimize: 1):\n"
           "    mass = _single_mass\n    return mass(mu, fam, 0)\n"
           "g = lambda a, /, *b, **c: a\n")
    # minimize as a parameter of _refine and of the default's lambda
    assert parameter_names(src) == {"fr", "ln", "score_fn", "minimize", "mu", "fam",
                                    "scale", "a", "b", "c"}
    assert name_uses(src, "_single_mass") == [("_grid_then_refine", 5), ("estimate", 8)]
    assert name_uses(src, "_centred_masses") == [("_grid_then_refine", 6)]


def test_one_objective_per_search():
    # estimate_curvature_constant and min_content_at_mass each hand one
    # objective(mass, content) to _grid_then_refine, which alone scores
    # the grid table and the refinement proposals, and always maximises
    source = (ROOT / "src/detcurve/curvature.py").read_text(encoding="utf-8")
    assert "minimize" not in parameter_names(source)
    assert {top for top, _ in name_uses(source, "_single_mass")} == {"_grid_then_refine"}
    assert {top for top, _ in name_uses(source, "_centred_masses")} == {
        "_grid_then_refine", "slab_implication_check"}


def _package_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_import_leaves_scipy_unloaded():
    # the benchmark's setup time includes the package import
    code = ("import sys, detcurve; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_leaves_importlib_metadata_unloaded():
    # reports read detcurve.__version__, which also holds when the package
    # runs from src/ uninstalled; the metadata lookup cost every cold import
    code = "import sys, detcurve; print('importlib.metadata' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_commands_leave_scipy_unloaded(tmp_path):
    # the package runs on numpy alone; scipy.spatial would add its import
    # time and resident memory to every report
    code = textwrap.dedent("""
        import contextlib, io, os, sys
        from detcurve import cli, lab, measure
        out = sys.argv[1]
        cloud = os.path.join(out, "cloud.csv")
        measure.save_point_cloud(measure.generate(
            measure.GeneratorSpec("sphere_uniform", 3, 200)), cloud)
        commands = [["report", "--scenario", name, "--out",
                     os.path.join(out, name + ".json")]
                    for name in lab.BUNDLED_SCENARIOS]
        commands.append(["analyze", cloud, "--k", "2", "--alpha", "1.0"])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(argv[0], code, loaded)
    """)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=_package_env(), check=True, capture_output=True,
                         text=True).stdout
    assert out.splitlines() == (["report 0 []"] * len(BUNDLED_SCENARIOS)
                                + ["analyze 0 []"])


def test_unread_default_scan_flags_ignored_parameters():
    src = ("def f(a, b=1, *, c=2, d=None, e):\n    return a + c + e\n"
           "class K:\n    def m(self, x=0, y=1):\n"
           "        def inner(z=3):\n            return y\n"
           "        return inner()\n")
    # d is only a default, b is positional; y is read in a nested function
    assert unread_defaults(src) == [(1, "f", "b"), (1, "f", "d"),
                                    (4, "m", "x"), (5, "inner", "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_default_parameters(path):
    assert unread_defaults(path.read_text(encoding="utf-8")) == []


def test_unread_parameter_scan_flags_ignored_parameters():
    src = ("def f(a, b, *rest, c, **opts):\n    return a + c\n"
           "class K:\n    def m(self, x, y):\n"
           "        def inner(z):\n            return y\n"
           "        return inner\n"
           "    @classmethod\n    def make(cls, u):\n        return u\n")
    # nested functions are not scanned; self and cls are exempt
    assert unread_parameters(src) == [(1, "f", "b"), (1, "f", "opts"),
                                      (1, "f", "rest"), (4, "m", "x")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_package_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_never_passed_default_scan_flags_constant_parameters():
    package = {"m": "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                    "class K:\n    def g(self, x=0, y=1):\n        pass\n"
                    "    @staticmethod\n    def h(u=0):\n        pass\n"
                    "def kw(p=0, *, q=1):\n    pass\n"}
    callers = {"use": "f(0, 1, e=5)\nK().g(0)\nobj.h()\nkw(*args, **opts)\n"}
    # f's b by position and e by keyword; K().g(0) passes x, not self;
    # the splats pass both of kw's
    assert never_passed_defaults(package, callers) == [
        ("m", 1, "f", "c"), ("m", 1, "f", "d"), ("m", 4, "g", "y"),
        ("m", 7, "h", "u")]


def test_no_never_passed_default_parameters():
    # a default that no call in the package, the tests or the benchmark
    # ever overrides is a constant, not an option
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    callers = {str(p): p.read_text(encoding="utf-8")
               for p in [*PACKAGE, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]}
    assert never_passed_defaults(package, callers) == []


# the options that no call in src/ or bench/ sets, only tests, each with the
# reason it stays an option
TEST_SET_OPTIONS = {
    ("cli.py", "main", "argv"): "the entry point: bench/workloads.py passes "
                                "it through a wrapper the scan does not follow",
    ("curvature.py", "maximal_function", "eval_points"): "bench/tracing.py "
                                                         "reads it by name",
    ("curvature.py", "maximal_function", "inner"): "bench/tracing.py reads it "
                                                   "by name",
    ("functionals.py", "det_form", "fs"): "bench/tracing.py reads it by name",
    ("geometry.py", "simplex_det_many", "pinned"): "the documented pinned "
                                                   "variant of a public kernel",
    ("lab.py", "verify_necessity_growth", "n_frames"): "acceptance criterion 7 "
                                                       "passes it",
}


def test_program_caller_scan_flags_options_only_tests_set():
    package = {"m.py": "def f(a, scale=1.0):\n    return a * scale\n"}
    program = {"src/m.py": package["m.py"], "bench/run.py": "f(2)\n"}
    tests = {"tests/test_m.py": "f(2, scale=3.0)\n"}
    assert never_passed_defaults(package, {**program, **tests}) == []
    assert never_passed_defaults(package, program) == [("m.py", 1, "f", "scale")]


def test_programs_set_every_option_outside_the_allow_list():
    # an option that only tests set is a constant the tests vary: make it
    # one, or name the reason it stays in TEST_SET_OPTIONS
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    callers = {str(p): p.read_text(encoding="utf-8")
               for p in [*PACKAGE, *ROOT.glob("bench/*.py")]}
    flagged = [(mod, fn, arg) for mod, _, fn, arg in never_passed_defaults(package, callers)]
    assert sorted(flagged) == sorted(TEST_SET_OPTIONS)


def private_imports(source: str) -> list:
    """(line, module, name) of the underscore-prefixed names a module
    imports from a detcurve module, relatively or by package name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "detcurve"):
            found += [(node.lineno, node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_private_import_scan_flags_underscore_names():
    src = ("from __future__ import annotations\nfrom . import parallel\n"
           "from .curvature import _sweep, default_family\n"
           "from detcurve.measure import _check_k_alpha\nfrom numpy import _core\n")
    assert private_imports(src) == [(3, "curvature", "_sweep"),
                                    (4, "detcurve.measure", "_check_k_alpha")]


def test_lab_imports_public_names_only():
    # bench/tracing.py wraps public names only: a check that reached a
    # search through a private name would run untraced
    assert private_imports((ROOT / "src/detcurve/lab.py").read_text(encoding="utf-8")) == []


def set_verdicts(source: str) -> list:
    """(line, keyword) of the passed=, margin= and direction= arguments of
    CheckRecord calls, bare or as an attribute: a record derives all three
    from lhs, rhs, its relation and tol, so a caller that sets one can
    disagree with the other two."""
    return sorted((node.lineno, kw.arg) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckRecord"
                  for kw in node.keywords if kw.arg in ("passed", "margin", "direction"))


def test_verdict_scan_flags_set_verdicts():
    src = ("a = CheckRecord('a', 1.0, 2.0, passed=True)\n"
           "b = reporting.CheckRecord('b', 1.0, 2.0, tol=1e-9,\n"
           "                          margin=1.0, direction='lhs <= rhs')\n"
           "c = CheckRecord('c', 1.0, 2.0, '>=', details={'passed': 1})\n"
           "d = Other('d', passed=True)\n")
    assert set_verdicts(src) == [(1, "passed"), (2, "direction"), (2, "margin")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_records_derive_their_verdicts(path):
    assert set_verdicts(path.read_text(encoding="utf-8")) == []


def test_bench_tracing_targets_resolve(monkeypatch):
    # bench/tracing.py wraps package functions by name and times the lab
    # checks by name: a deletion or rename must fail here, not in the bench
    from detcurve import lab

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    missing = []
    for module, attr, _, _ in tracing.TARGETS:
        obj = module
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not (module.__name__.startswith("detcurve") and callable(obj)):
            missing.append(f"{module.__name__}.{attr}")
    assert missing == []
    assert tuple(tracing.CHECK_FUNCTIONS) == lab.KNOWN_CHECKS


def counter_keys(counter) -> set:
    """The keys a tracing counter reads as a["..."] from the bound
    arguments of the function it counts."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(counter)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "a" and isinstance(node.slice, ast.Constant)}


def test_bench_tracing_counters_read_parameters(monkeypatch):
    # the counters read arguments by parameter name: a rename would fail
    # only in a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    unknown, read = [], 0
    for module, attr, _, counter in tracing.TARGETS:
        if counter is None:
            continue
        target = module
        for part in attr.split("."):
            target = getattr(target, part)
        params = inspect.signature(target).parameters
        keys = counter_keys(counter)
        read += len(keys)
        unknown += [f"{module.__name__}.{attr}: {key}" for key in sorted(keys)
                    if key not in params]
    assert unknown == []
    assert read >= 10  # the parse does find the reads
