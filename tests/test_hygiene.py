"""Source hygiene: no module imports a name it never uses, no library
parameter has a default that every caller leaves alone or that every caller
overrides, only named test hooks have a default that only tests pass, no
function has a return-shape flag, no class wraps one field and adds nothing,
one writer owns every file write and one owner each the phase tables, the
contour integrand, the contour walk and its reflection, the panel ladder, the
quadrature weight rows, the Chebyshev evaluation, the composite rule, the
dual-sum policy, Δ's real place, w's support and the products against a
phase table, and every file parses as Python 3.10.

Both are pure-``ast`` scans.  Imports: ``src/vorokit/*.py`` and
``tests/*.py``; a name counts as used when it is read anywhere in the module
or listed in a literal ``__all__``; ``from __future__`` imports are compiler
directives and never count as unused.

Parameters: every defaulted parameter of a module-level function or method
in ``src/vorokit`` must be passed, by keyword or by position, at one or more
call sites in ``src/vorokit``, ``tests`` or ``perfbench``; otherwise its
default is a constant spelled as a knob.  The reverse census fails on a
defaulted parameter that every one of its call sites passes: no call uses
its default, so the parameter should be required.  A third census counts
only the calls in ``src/vorokit`` and ``perfbench``: the defaults that only
tests pass are the frozen ``TEST_HOOKS``, each with the reason a test needs
it.  A call is matched by the bare name it calls (``f(...)`` or
``obj.f(...)``), and a call of a class by its name counts for ``__init__``
(or, for a dataclass, for its fields in order).  ``*args``/``**kwargs`` at a
call site pass nothing, and for the reverse census they may pass anything.
The census cannot see a knob that hides in ``*args`` or ``**kwargs``, so no
function in ``src/vorokit`` (nested ones and lambdas included) declares one.

Phase tables: outside ``quadrature.py`` no ``np.exp`` takes an ``np.outer``
of the K21 panel nodes (a ``panel_nodes(...)`` call, or a name bound to one),
so ``quadrature.phase_tables`` is the one place a table exp(−h·ξ ⊗ lx) or an
unfactored x^{−s} on the panel nodes is formed.

Contour integrand: ``phase_tables(...)`` is called only in
``bessel.ContourIntegrand.__init__`` (the x-phase) and
``hankel._MellinGrids.grid`` (the inner Mellin transform's tables), and in
``bessel.py`` and ``hankel.py`` ``log_mb_gamma`` is named (as a name or an
attribute; imports aside) only inside the first argument of a
``ContourIntegrand(...)`` call, so the Bessel batch and the Mellin route
factor their panels through one class.

Weight rows: outside ``quadrature.py`` nothing in ``src/vorokit`` names the
G10/K21 weight rows ``_GK_WK``, ``_GK_WG`` or their stack ``_GK_W`` (as a
name, an attribute, an imported name or a string), so every panel integrand
takes its weights as the W that ``quadrature.Bisection`` hands it.

Contour walk: outside ``quadrature.py`` a ``Bisection`` is built (as
``Bisection(...)`` or ``obj.Bisection(...)``) only by ``hankel.signed_mellin``,
which integrates a finite real segment, and by
``hankel.hankel_convolution_batch``, whose t-integral is one per magnitude
group and sign of x.  Neither is a contour, so every contour integral, its
polyline and its tails, is one ``quadrature.contour_integral`` walk and no
tail loop lives outside it.

Reflection: each ``contour_integral(...)`` call in ``src/vorokit`` (as
``f(...)`` or ``obj.f(...)``) passes as its reflection, seventh or as
``reflection=``, a name its enclosing function binds first in a
``c, places = reflection_factor(...)`` unpacking, so the factor c by which
a walk takes its lower half from the conjugate place's upper half is read
from the place, never spelled.

Panel ladder: every ``phase_step(...)`` call in ``src/vorokit`` (as
``f(...)`` or ``obj.f(...)``) is the direct argument of a ``_ladder_step(...)``
call, so every panel a walk lays out by its phase rate has a length on the
ladder {2^k, 1.5·2^k} and the half-widths repeat for the phase-table memo.

Chebyshev evaluation: no ``chebvander`` or ``chebval`` call in
``src/vorokit`` sits outside ``hankel._KernelModel.at``, so the kernel
model is read one way, at the points it is handed, by the t-integral's panel
integrand and the off-node probe alike.

One Bessel batch per kernel build: ``hankel.py`` calls ``bessel_real_batch``
(as ``f(...)`` or ``obj.f(...)``) only inside ``hankel._fit_panels``, whose one
batch holds the nodes and the off-node probes of every sign a build needs, so
no validation or second sign walks the contours again.

Composite rule: ``gauss_panels`` is called (as ``f(...)`` or
``obj.f(...)``) only inside the fixed-rule integrals ``gj._gap_rule`` and
``hankel.local_fe_residual`` (nested
functions counting as the function that holds them), so no adaptive
integral takes its nodes from a composite rule and grows a refinement loop
of its own beside ``quadrature.Bisection``.

Dual-sum policy: outside ``voronoi.DualWalk.__init__`` no call
``max(…, 2e-9, …)`` floors a tolerance, outside ``voronoi.DualWalk.ensure``
no handler catches ``ToleranceNotMet`` (alone or in a tuple), and outside
``voronoi.DualWalk.__init__`` neither ``voronoi.py`` nor ``gj.py`` builds a
``KernelCache()``, so the dual tolerance, its one retry and the kernel-model
cache a dual sum shares have one owner.

One-field wrappers: no class in ``src/vorokit`` has a body, past its
docstring, of one annotated field and nothing else (no method, no
``__post_init__``), so a plain value such as a parity δ travels as itself.

Second paths: no function in ``src/vorokit`` takes a ``full_output``
parameter (one return shape per function), and no ``open``/``os.fdopen``
call in ``src/vorokit`` opens a file for writing outside
``params_io.atomic_write``, so every file a job writes goes through its temp
file and rename.

Definitions only tests reach: every module-level function and class in
``src/vorokit``, and every method that is not a dunder, is named (as a name
or an attribute, not in a string) by code in ``src/vorokit`` or
``perfbench`` outside its own definition; otherwise it is one of the frozen ``CHECKS``, each with
the reason a test checks other code against it.  Like the parameter census
it matches bare names, so a name that other code uses for something else
counts as a use.

No scipy at run time: no module in ``src/vorokit`` imports ``scipy`` or a
submodule of it (``import scipy…`` or ``from scipy… import``), and importing
every ``vorokit`` module in a fresh interpreter loads no ``scipy`` module.
The tests keep scipy as an oracle.

Δ's real place: no ``DS2Block(...)`` call in ``src/vorokit`` whose weight
parameter is a literal (first or as ``l=``) sits outside the module-level
``voronoi.DELTA_PLACE`` assignment, so a form's place is read from its
coefficient table or from that one constant, never spelled again.

w's support: no call of a ``.pos(...)`` or ``.neg(...)`` attribute (nor of a
bare ``pos``/``neg`` name, as an alias would be) in ``src/vorokit`` sits
outside ``hankel.TestFunction.__call__``, so a test function's profile is
read only where its support mask hands it points strictly inside (a, b), and
``make_bump``'s profile needs no mask of its own.

Products against a phase table: no ``@`` and no ``matmul(...)`` call in
``src/vorokit`` has an operand that reads a phase table (a call of a memo
that ``phase_tables(...)`` made, followed through assignments and the
``return`` of a function such as ``hankel._MellinGrids.grid``, or a name
bound to such a call), so every such product goes through
``quadrature.table_matmul``, the one owner of the sizes at which numpy's
BLAS stays on one thread; ``bessel.ContourIntegrand.__call__`` and
``hankel._mellin_nodes`` are the ones that call it.

Python 3.10: the 3.10 grammar (``ast.parse(..., feature_version=(3, 10))``)
accepts every ``.py`` file in ``src/vorokit``, ``tests`` and ``perfbench``.
This checks syntax only; a standard-library API newer than 3.10 passes it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "vorokit").glob("*.py"))
FILES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])
CALLERS = sorted([*FILES, *(ROOT / "perfbench").glob("*.py")])


def _imported(tree):
    # bound name → line, for every import statement in the module
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def test_scanner_flags_unused_and_honours_all_and_future():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(sys.argv, np)\n"
    )
    assert unused_imports(src) == [("os", 2), ("pi", 4)]


def test_no_unused_imports():
    assert FILES
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in FILES for name, line in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None)) for d in decorators)


def _defaulted(tree):
    """(qualified name, name its callers use, parameter, position) for each
    defaulted parameter; position is None for a keyword-only one.  A
    dataclass's fields are the parameters of its class call, in field order."""
    defs, fields = [], []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):  # self or cls is bound at the call
                    defs.append((f"{node.name}.{f.name}", node.name if f.name == "__init__" else f.name, f, 1))
            if _is_dataclass(node):
                named = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                fields += [(node.name, node.name, f.target.id, i) for i, f in enumerate(named) if f.value is not None]
    for qual, called, f, bound in defs:
        pos = [*f.args.posonlyargs, *f.args.args][bound:]
        for i in range(len(pos) - len(f.args.defaults), len(pos)):
            yield qual, called, pos[i].arg, i
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield qual, called, arg.arg, None
    yield from fields


def _calls(tree):
    """name called → [(positional arguments, keyword names, whether it unpacks *args or **kwargs)] for each call."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            npos = sum(not isinstance(a, ast.Starred) for a in node.args)
            unpacks = npos < len(node.args) or any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append((npos, {k.arg for k in node.keywords if k.arg}, unpacks))
    return out


def _call_census(defining: list[str], calling: list[str]):
    """('qualname(param)', [(passes it, unpacks) for each call]) for each defaulted parameter in `defining`."""
    calls = {}
    for source in calling:
        for name, sites in _calls(ast.parse(source)).items():
            calls.setdefault(name, []).extend(sites)
    for source in defining:
        for qual, called, param, i in _defaulted(ast.parse(source)):
            sites = calls.get(called, [])
            yield f"{qual}({param})", [
                (param in kws or (i is not None and npos > i), unpacks) for npos, kws, unpacks in sites
            ]


def unset_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """'qualname(param)' for each defaulted parameter in `defining` that no call in `calling` passes."""
    return [param for param, sites in _call_census(defining, calling) if not any(passes for passes, _ in sites)]


def overridden_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """'qualname(param)' for each defaulted parameter in `defining` that every call in `calling` passes.

    A call that unpacks *args or **kwargs may pass it, so it is no evidence that the default is used;
    a parameter with no call at all is the other census's to flag."""
    return [
        param
        for param, sites in _call_census(defining, calling)
        if sites and all(passes or unpacks for passes, unpacks in sites)
    ]


def test_census_flags_defaults_no_call_passes():
    lib = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    def inner(z=0):\n"
        "        return z\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n"
        "        pass\n"
        "    def m(self, p=1, q=2):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, r=5):\n"
        "        pass\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 1\n"
        "    w: tuple = field(default_factory=tuple)\n"
    )
    callers = (
        "f(0, 1)\n"  # b by position
        "mod.f(0, d=9, **opts)\n"  # d by keyword; **opts passes nothing
        "f(*args)\n"
        "K(1, 2)\n"  # y by position through the class name
        "k.m(7)\n"  # p by position, self bound
        "K.make()\n"
        "D(1, 2)\n"  # field y by position
        "D(0, w=())\n"  # field w by keyword
    )
    assert unset_defaults([lib], [lib, callers]) == ["f(c)", "f(e)", "K.m(q)", "K.make(r)", "D(z)"]


def test_every_library_default_is_passed_somewhere():
    assert SRC
    found = unset_defaults([p.read_text() for p in SRC], [p.read_text() for p in CALLERS])
    assert not found, "defaulted parameters no caller passes:\n" + "\n".join(found)


def test_census_flags_defaults_every_call_passes():
    lib = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def lone(z=0):\n"  # never called: the census above flags it, this one does not
        "    return z\n"
        "def g(x, y=0):\n"
        "    return x\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n"
        "        pass\n"
        "    def m(self, p=1, q=2):\n"
        "        pass\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 1\n"
    )
    callers = (
        "f(0, 1, d=5)\n"
        "mod.f(0, 2, e=6, d=7)\n"  # b by position and d by keyword at every call
        "g(*args)\n"  # unpacking may pass y: no evidence that its default is used
        "g(1, y=2)\n"
        "K(1, 2)\n"
        "K(1, y=3)\n"  # y through the class name at every call
        "k.m(7)\n"
        "k.m(8, q=9)\n"  # p by position, self bound
        "D(1, 2)\n"
        "D(0, z=3)\n"  # y once, z once: both defaults are used
    )
    assert overridden_defaults([lib], [lib, callers]) == ["f(b)", "f(d)", "g(y)", "K.__init__(y)", "K.m(p)"]


def test_no_library_default_is_passed_by_every_call():
    # with the census above: every default is passed by some call and left alone by another
    found = overridden_defaults([p.read_text() for p in SRC], [p.read_text() for p in CALLERS])
    assert not found, "defaulted parameters every caller passes:\n" + "\n".join(found)


# Defaults that tests pass and no library caller does: named test hooks, frozen.
TEST_HOOKS = {
    "split_zeta_identity(euler_pbound)": "a test deepens the Euler product at one point of large scale",
    "local_fe_residual(y_max)": "A4 fixes the grid's far end, and a test shows a short one is refused",
    "zeta_zero_bisect(tol)": "A8 bisects the first zero only as far as its check needs",
    "l_delta_smoothed(terms)": "a test shows the smoothed sum has converged at its default length",
    "local_l_series_check(series)": "a test substitutes a corrupted series to show the check can fail",
    "multiplicativity_check(pairs)": "a test draws more pairs than the default",
    "multiplicativity_check(seed)": "a test draws its pairs from a second seed",
    "TestFunction(neg)": "tests check every route on a w living on both half-lines; no job's w has an x < 0 part",
}


def test_defaults_only_tests_pass_are_the_named_hooks():
    # a second census with library callers only: src/vorokit and perfbench
    library = [p.read_text() for p in [*SRC, *(ROOT / "perfbench").glob("*.py")]]
    found = set(unset_defaults([p.read_text() for p in SRC], library))
    assert not found - set(TEST_HOOKS), "defaults only tests pass:\n" + "\n".join(sorted(found - set(TEST_HOOKS)))
    assert not set(TEST_HOOKS) - found, "test hooks a library caller now passes:\n" + "\n".join(
        sorted(set(TEST_HOOKS) - found)
    )


def _named(node) -> Counter:
    """How often `node` holds each name, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree):
    """(qualified name, node) for each module-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__")):
                    yield f"{node.name}.{f.name}", f


def unnamed_definitions(defining: dict[str, str], naming: list[str]) -> list[str]:
    """'module.qualname' for each definition in `defining` (module → source) that no
    code in `naming` names outside the definition itself."""
    total = sum((_named(ast.parse(source)) for source in naming), Counter())
    return [
        f"{module}.{qual}"
        for module, source in defining.items()
        for qual, node in _definitions(ast.parse(source))
        if total[node.name] == _named(node)[node.name]
    ]


def test_census_flags_definitions_no_other_code_names():
    lib = (
        "__all__ = ['orphan', 'Used']\n"  # a listing in __all__ is no use
        "def orphan(n):\n"
        "    return orphan(n - 1) if n else 0\n"  # nor is a recursive call
        "def helper():\n"
        "    return 1\n"
        "class Used:\n"
        "    def __repr__(self):\n"  # dunders are called by the language
        "        return 'u'\n"
        "    def kept(self):\n"
        "        return helper()\n"
        "    def lone(self):\n"
        "        return self.lone\n"
        "class Alone:\n"
        "    pass\n"
    )
    caller = "x = mod.Used().kept()\n"
    assert unnamed_definitions({"lib": lib}, [lib, caller]) == ["lib.orphan", "lib.Used.lone", "lib.Alone"]


# Definitions only tests name: each checks other code, frozen with the reason.
CHECKS = {
    "archimedean.l_factor": "the γ functional-equation test rebuilds γ from the L-factors",
    "archimedean.contragredient_params": "the γ functional-equation test pairs γ with its contragredient's",
    "contours.check_admissible": "the contour admissibility tests check every contour built",
    "contours.Contour.shifted": "the contour-independence tests move the contour and compare the kernels",
    "padic.whittaker_diag": "the closed form that whittaker_general and the integral-twist transform are compared against",
    "padic.WhittakerValue.scalar": "tests compare whittaker_general against whittaker_diag through it",
    "voronoi.multiplicativity_check": "the τ table's multiplicativity test",
    "gj.h_kernel": "pins the _prefix_sums and the KernelSpec power and residue that _pair uses",
}


def test_definitions_only_tests_name_are_the_named_checks():
    library = [p.read_text() for p in [*SRC, *(ROOT / "perfbench").glob("*.py")]]
    found = set(unnamed_definitions({p.stem: p.read_text() for p in SRC}, library))
    assert not found - set(CHECKS), "definitions only tests name:\n" + "\n".join(sorted(found - set(CHECKS)))
    assert not set(CHECKS) - found, "checks other code now names:\n" + "\n".join(sorted(set(CHECKS) - found))


def star_params(source: str) -> list[tuple[str, int]]:
    """(function name, line) for each function or lambda that declares *args or **kwargs."""
    found = [
        (getattr(node, "name", "<lambda>"), node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and (node.args.vararg or node.args.kwarg)
    ]
    return sorted(found, key=lambda item: item[1])


def test_scanner_flags_star_parameters():
    src = (
        "def f(a, *, b=1):\n"  # a bare * declares no parameter
        "    def inner(*xs):\n"
        "        return xs\n"
        "class K:\n"
        "    def m(self, x, **kw):\n"
        "        pass\n"
        "g = lambda *a, **k: None\n"
        "f(*args, **opts)\n"  # unpacking at a call site is not a parameter
    )
    assert star_params(src) == [("inner", 2), ("m", 5), ("<lambda>", 7)]


def test_no_library_function_takes_star_parameters():
    assert SRC
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in SRC for name, line in star_params(p.read_text())]
    assert not found, "*args/**kwargs parameters:\n" + "\n".join(found)


def full_output_params(source: str) -> list[tuple[str, int]]:
    """(function name, line) for each function that declares a ``full_output`` parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if any(arg.arg == "full_output" for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]):
                found.append((node.name, node.lineno))
    return found


def test_scanner_flags_full_output():
    src = (
        "def f(x, full_output=False):\n"
        "    pass\n"
        "def g(x, *, full_output):\n"
        "    pass\n"
        "def h(x, output=None):\n"
        "    return full_output(x)\n"
    )
    assert full_output_params(src) == [("f", 1), ("g", 3)]


def test_no_library_function_takes_full_output():
    assert SRC
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in SRC for name, line in full_output_params(p.read_text())]
    assert not found, "full_output parameters:\n" + "\n".join(found)


def one_field_wrappers(source: str) -> list[tuple[str, int]]:
    """(class name, line) of each class whose body, past its docstring, is one annotated field alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) == 1 and isinstance(body[0], ast.AnnAssign):
                found.append((node.name, node.lineno))
    return found


def test_scanner_flags_one_field_wrappers():
    src = (
        "@dataclass(frozen=True)\n"
        "class Twist:\n"
        '    """Sign twist."""\n'
        "    value: int\n"
        "class Bare:\n"
        "    n: int\n"
        "class Checked:\n"  # a field with its own check is a type, not a wrapper
        "    n: int\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "class Pair:\n"
        "    a: int\n"
        "    b: int\n"
        "class WithConstant:\n"
        "    a: int\n"
        "    LIMIT = 3\n"
        "class Failure(ValueError):\n"
        '    """No field at all."""\n'
    )
    assert one_field_wrappers(src) == [("Twist", 2), ("Bare", 5)]


def test_no_library_class_is_a_one_field_wrapper():
    assert SRC
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in SRC for name, line in one_field_wrappers(p.read_text())]
    assert not found, "classes that wrap one field and add nothing:\n" + "\n".join(found)


def _mode(call: ast.Call):
    # the mode argument of open(file, mode) / os.fdopen(fd, mode), "r" when absent
    if len(call.args) > 1:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))


def write_opens(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) for each open/fdopen call whose mode may write.

    A mode that is not a string literal counts as writing.
    """
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name in ("open", "fdopen"):
                    mode = _mode(child)
                    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                        found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scanner_flags_write_opens():
    src = (
        "def r(p):\n"
        "    return open(p).read() + open(p, 'rb').read() + open(p, mode='r').read()\n"
        "def w(p, m):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a')\n"
        "    os.fdopen(3, 'r+')\n"
        "    open(p, m)\n"
        "open('x', 'xb')\n"
    )
    assert write_opens(src) == [("w", 4), ("w", 5), ("w", 6), ("w", 7), ("<module>", 8)]


def test_every_file_write_goes_through_the_atomic_writer():
    assert SRC
    found = [
        f"{p.relative_to(ROOT)}:{line}: {where}"
        for p in SRC
        for where, line in write_opens(p.read_text())
        if (p.name, where) != ("params_io.py", "atomic_write")
    ]
    assert not found, "files opened for writing outside params_io.atomic_write:\n" + "\n".join(found)


def _call_name(node):
    f = node.func if isinstance(node, ast.Call) else None
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def node_phase_exps(source: str) -> list[int]:
    """Lines of each exp(...) whose argument holds an outer(nodes, ...) of K21 panel nodes."""
    tree = ast.parse(source)
    bound = {
        t.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and _call_name(n.value) == "panel_nodes"
        for t in n.targets
        if isinstance(t, ast.Name)
    }

    def is_nodes(arg):
        return _call_name(arg) == "panel_nodes" or (isinstance(arg, ast.Name) and arg.id in bound)

    return [
        n.lineno
        for n in ast.walk(tree)
        if _call_name(n) == "exp"
        and any(_call_name(o) == "outer" and o.args and is_nodes(o.args[0]) for a in n.args for o in ast.walk(a))
    ]


def test_scanner_flags_exps_of_panel_node_outers():
    src = (
        "def f(c, h, lx, g):\n"
        "    nodes = panel_nodes(c, h)\n"
        "    a = np.exp(-np.outer(panel_nodes(0.0, h), lx))\n"
        "    b = np.exp(g[:, None] - np.outer(nodes, lx))\n"
        "    return np.exp(np.outer(lx, nodes)) + np.exp(c * lx) + np.outer(nodes, lx)\n"
    )
    assert node_phase_exps(src) == [3, 4]


def test_phase_tables_have_one_owner():
    found = [
        f"{p.relative_to(ROOT)}:{line}" for p in SRC if p.name != "quadrature.py" for line in node_phase_exps(p.read_text())
    ]
    assert (ROOT / "src" / "vorokit" / "quadrature.py") in SRC
    assert not found, "phase tables formed outside quadrature.phase_tables:\n" + "\n".join(found)


def contour_integrand_copies(source: str) -> list[tuple[str, str, int]]:
    """(kind, enclosing Class.function, line) for each ``phase_tables(...)`` call ("phase") and each
    ``log_mb_gamma`` named, as a name or attribute, outside the first argument of a
    ``ContourIntegrand(...)`` call ("gamma")."""
    tree = ast.parse(source)
    passed = {
        id(n) for c in ast.walk(tree) if _call_name(c) == "ContourIntegrand" and c.args for n in ast.walk(c.args[0])
    }
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if _call_name(child) == "phase_tables":
                found.append(("phase", where or "<module>", child.lineno))
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name == "log_mb_gamma" and id(child) not in passed:
                found.append(("gamma", where or "<module>", child.lineno))
            visit(child, where)

    visit(tree, "")
    return sorted(found, key=lambda f: f[2])


def test_scanner_flags_second_contour_integrands():
    # the two hand-copied integrands as they stood before one class factored both
    src = (
        "from .archimedean import log_mb_gamma\n"
        "class _BesselIntegrand:\n"
        "    def __init__(self, params, twist, lx):\n"
        "        self.params, self.twist, self.lx, self.phase = params, twist, lx, phase_tables(lx)\n"
        "    def __call__(self, c, h, W):\n"
        "        lg = log_mb_gamma(self.params, self.twist, panel_nodes(c, h))\n"
        "        return ((W * np.exp(lg - lg[10])) @ self.phase(h)) * np.exp(lg[10] - c * self.lx)\n"
        "class _MellinIntegrand:\n"
        "    def __init__(self, params, delta, grids, nu, lx):\n"
        "        self.nu, self.lx, self.phase = nu, lx, quadrature.phase_tables(lx)\n"
        "    def __call__(self, c, h, W):\n"
        "        g = np.exp(archimedean.log_mb_gamma(self.params, self.twist, panel_nodes(c, h)))\n"
        "        return ((W * g) @ self.phase(h)) * np.exp((self.nu - c) * self.lx)\n"
        "def walk(params, twist, lx, grids):\n"
        "    f = ContourIntegrand(lambda s: log_mb_gamma(params, twist, s), params.rank, lx)\n"
        "    g = ContourIntegrand(lambda s: s, 2, lx, factor=lambda c, h: log_mb_gamma(params, twist, c))\n"
        "    return f, g, grids.phase_tables(lx)\n"
    )
    assert contour_integrand_copies(src) == [
        ("phase", "_BesselIntegrand.__init__", 4), ("gamma", "_BesselIntegrand.__call__", 6),
        ("phase", "_MellinIntegrand.__init__", 10), ("gamma", "_MellinIntegrand.__call__", 12),
        ("gamma", "walk", 16), ("phase", "walk", 17),
    ]


def test_contour_integrand_has_one_owner():
    # the x-phase is made by bessel.ContourIntegrand, the inner Mellin transform's tables by
    # hankel._MellinGrids.grid; log γ reaches a panel only as the first argument of the class
    owners = {("bessel.py", "phase", "ContourIntegrand.__init__"), ("hankel.py", "phase", "_MellinGrids.grid")}
    found = [
        (p.name, kind, where, line)
        for p in SRC
        for kind, where, line in contour_integrand_copies(p.read_text())
        if kind == "phase" or p.name in ("bessel.py", "hankel.py")
    ]
    assert owners <= {(name, kind, where) for name, kind, where, _ in found}
    copies = [f"{name}:{line}: {kind} in {where}" for name, kind, where, line in found if (name, kind, where) not in owners]
    assert not copies, "a second contour integrand beside bessel.ContourIntegrand:\n" + "\n".join(copies)


_WEIGHT_ROWS = frozenset({"_GK_WK", "_GK_WG", "_GK_W"})


def weight_row_names(source: str) -> list[int]:
    """Lines that name a G10/K21 weight row, by name, attribute, import or string."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        name = (
            n.id if isinstance(n, ast.Name)
            else n.attr if isinstance(n, ast.Attribute)
            else n.name if isinstance(n, ast.alias)
            else n.value if isinstance(n, ast.Constant) and isinstance(n.value, str)
            else None
        )
        if name in _WEIGHT_ROWS:
            found.add(n.lineno)
    return sorted(found)


def test_scanner_flags_weight_row_names():
    src = (
        "from .quadrature import _GK_WK as wk, panel_nodes\n"
        "from . import quadrature\n"
        "def f(c, h, W):\n"
        "    vals = panel_nodes(c, h)\n"
        "    k = quadrature._GK_WG @ vals\n"
        "    return W @ vals, _GK_W, getattr(quadrature, '_GK_WK'), wk\n"
        "GK_W = _GK_WGS = '_GK_W2'\n"
    )
    assert weight_row_names(src) == [1, 5, 6]


def test_weight_rows_have_one_owner():
    found = [
        f"{p.relative_to(ROOT)}:{line}" for p in SRC if p.name != "quadrature.py" for line in weight_row_names(p.read_text())
    ]
    assert weight_row_names((ROOT / "src" / "vorokit" / "quadrature.py").read_text())
    assert not found, "G10/K21 weight rows named outside quadrature.py:\n" + "\n".join(found)


def _enclosed_calls(source: str, names) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each call, as f(...) or obj.f(...), of a name in ``names``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if _call_name(child) in names:
                found.append((where or "<module>", child.lineno))
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def chebyshev_evaluations(source: str) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each chebvander(...) or chebval(...) call."""
    return _enclosed_calls(source, ("chebvander", "chebval"))


def test_scanner_flags_chebyshev_evaluations():
    # the sorted per-point pass as it stood before the model had one evaluation form
    src = (
        "class _KernelModel:\n"
        "    def table(self, xi):\n"
        "        return self.coeffs @ chebvander(xi, 20).T\n"
        "    def eval(self, args):\n"
        "        vander = chebvander(((2.0 * u - (lo + hi)) / (hi - lo))[order], _CHEB_DEG)\n"
        "        return np.polynomial.chebyshev.chebval(u, c)\n"
        "def probe(model, u):\n"
        "    return [chebvander(v, 20) for v in u]\n"
        "V = chebvander(np.zeros(3), 4)\n"
    )
    assert chebyshev_evaluations(src) == [
        ("_KernelModel.table", 3), ("_KernelModel.eval", 5), ("_KernelModel.eval", 6), ("probe", 8), ("<module>", 9)
    ]


def test_chebyshev_evaluation_has_one_owner():
    found = {p.name: chebyshev_evaluations(p.read_text()) for p in SRC}
    assert [where for where, _ in found["hankel.py"]] == ["_KernelModel.at"]
    others = [
        f"{name}:{line}: in {where}"
        for name, rows in found.items()
        for where, line in rows
        if (name, where) != ("hankel.py", "_KernelModel.at")
    ]
    assert not others, "Chebyshev model evaluated outside hankel._KernelModel.at:\n" + "\n".join(others)


def bessel_batches(source: str) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each bessel_real_batch(...) call."""
    return _enclosed_calls(source, ("bessel_real_batch",))


def test_scanner_flags_second_bessel_batches():
    # the kernel model's build as it stood before its probes rode in the node batch
    src = (
        "def _fit_panels(params, sign, js, h, tol):\n"
        "    vals, errs = bessel_real_batch(params, sign * unodes**params.rank, tol / 3.0)\n"
        "class KernelCache:\n"
        "    def model(self, params, sign, lo, hi, tol):\n"
        "        new, node_err = _fit_panels(params, sign, stale, h, tol)\n"
        "        if fresh:\n"
        "            direct, _ = bessel_real_batch(params, sign * probe**rank, tol / 3.0)\n"
        "            other = bessel.bessel_real_batch(params, -probe**rank, tol)\n"
    )
    assert bessel_batches(src) == [("_fit_panels", 2), ("KernelCache.model", 7), ("KernelCache.model", 8)]


def test_a_kernel_build_walks_the_contours_once():
    found = bessel_batches((ROOT / "src" / "vorokit" / "hankel.py").read_text())
    assert [where for where, _ in found] == ["_fit_panels"], f"bessel_real_batch called in hankel.py at {found}"


def composite_rules(source: str) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each gauss_panels(...) call."""
    return _enclosed_calls(source, ("gauss_panels",))


def test_scanner_flags_composite_rules():
    # the convolution route's resolution loop as it stood before its t-integral was a Bisection
    src = (
        "def hankel_convolution_batch(params, w, xs, tol):\n"
        "    def eval_resolution(scale):\n"
        "        xi, gw = gauss_panels(np.linspace(-1.0, 1.0, sub + 1), math.ceil(nodes / sub))\n"
        "        return quadrature.gauss_panels(edges, 16)\n"
        "x, wts = gauss_panels((0.0, 1.0), 4)\n"
    )
    assert composite_rules(src) == [
        ("hankel_convolution_batch.eval_resolution", 3), ("hankel_convolution_batch.eval_resolution", 4), ("<module>", 5)
    ]


FIXED_RULES = {("gj.py", "_gap_rule"), ("hankel.py", "local_fe_residual")}


def test_composite_rule_serves_only_the_fixed_rule_integrals():
    found = {(p.name, where.split(".")[0]): line for p in SRC for where, line in composite_rules(p.read_text())}
    others = [f"{name}:{line}: in {where}" for (name, where), line in found.items() if (name, where) not in FIXED_RULES]
    assert not others, "gauss_panels called outside the fixed-rule integrals:\n" + "\n".join(others)
    assert set(found) == FIXED_RULES


def bisections_built(source: str) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each Bisection(...) construction."""
    return _enclosed_calls(source, ("Bisection",))


def test_scanner_flags_contour_walks():
    # the hand-copied walks as they stood before quadrature.contour_integral took both, each
    # building its own integrator, beside the two real segments that build one
    src = (
        "def _mb_batch(params, twist, contour, xeffs, tol):\n"
        "    bisect = Bisection(integrand, len(xeffs))\n"
        "    total, err_total = polyline_walk(bisect, pts, integrand.omega, tol_raw / 200.0)\n"
        "def _dual_vertical(params, delta, grids, nu, lx, tol, contour, counts):\n"
        "    for lo, hi in tail_panels:\n"
        "        (out,) = quadrature.Bisection(integrand, len(lx))([(lo, hi, tol_raw / 200.0, 12)])\n"
        "def signed_mellin(f, delta, z, tol):\n"
        "    ((val, err),) = quadrature.Bisection(integrand, 1)([(complex(f.a), complex(f.b), tol, 14)])\n"
        "def hankel_convolution_batch(params, w, xs, tol, cache):\n"
        "    for gi in groups:\n"
        "        for val, e in quadrature.Bisection(_t_integrand(terms, w, ax[rows], n), len(rows))(panels):\n"
        "            total += val\n"
    )
    assert bisections_built(src) == [
        ("_mb_batch", 2), ("_dual_vertical", 6), ("signed_mellin", 8), ("hankel_convolution_batch", 11)
    ]


REAL_SEGMENTS = {("hankel.py", "signed_mellin"), ("hankel.py", "hankel_convolution_batch")}


def test_contour_walk_has_one_owner():
    # the real segments build their own Bisection; every contour walk is quadrature.contour_integral's
    found = {(p.name, where) for p in SRC if p.name != "quadrature.py" for where, _ in bisections_built(p.read_text())}
    others = sorted(found - REAL_SEGMENTS)
    assert not others, "a Bisection built outside quadrature.py and the real segments:\n" + "\n".join(map(str, others))
    assert found == REAL_SEGMENTS


def contour_reflections(source: str) -> list[tuple[str, int, bool]]:
    """(enclosing Class.function, line, archimedean) of each contour_integral(...) call, as f(...)
    or obj.f(...); archimedean when its reflection, seventh or as reflection=, is a name the
    enclosing function binds first in a tuple unpacking of a reflection_factor(...) call."""
    found = []

    def visit(node, where, factors):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                unpacked = {
                    a.targets[0].elts[0].id
                    for a in ast.walk(child)
                    if isinstance(a, ast.Assign) and _call_name(a.value) == "reflection_factor"
                    and isinstance(a.targets[0], ast.Tuple) and isinstance(a.targets[0].elts[0], ast.Name)
                }
                visit(child, f"{where}.{child.name}" if where else child.name, unpacked)
                continue
            if _call_name(child) == "contour_integral":
                given = [k.value for k in child.keywords if k.arg == "reflection"] + child.args[6:7]
                archimedean = bool(given) and isinstance(given[0], ast.Name) and given[0].id in factors
                found.append((where or "<module>", child.lineno, archimedean))
            visit(child, where, factors)

    visit(ast.parse(source), "", set())
    return found


def test_scanner_flags_literal_reflections():
    # walks with the reflection spelled out or bound elsewhere, beside the archimedean one and a
    # walk without one
    src = (
        "def _mb_batch(params, twist, contour, xeffs, tol):\n"
        "    c, places = reflection_factor(params, twist)\n"
        "    values, achieved, _ = contour_integral(fs, len(xeffs), pts, f.omega, BENT_RAYS, tol, 1.0)\n"
        "    return contour_integral(fs, 1, pts, f.omega, BENT_RAYS, tol, c)\n"
        "def _dual_vertical(params, delta, grids, nu, lx, tol, contour, counts):\n"
        "    places, c = reflection_factor(params, delta)\n"
        "    e = epsilon_factor(params, delta) ** 2\n"
        "    a = quadrature.contour_integral(fs, 1, pts, f.omega, VERTICAL_LADDER, tol, reflection=None)\n"
        "    b = contour_integral(fs, 1, pts, f.omega, VERTICAL_LADDER, tol, reflection=-1 if delta else 1)\n"
        "    d = contour_integral(fs, 1, pts, f.omega, VERTICAL_LADDER, tol, e)\n"
        "    g = contour_integral(fs, 1, pts, f.omega, VERTICAL_LADDER, tol, c)\n"
        "    return contour_integral(fs, 1, pts, f.omega, VERTICAL_LADDER, tol)\n"
    )
    assert contour_reflections(src) == [
        ("_mb_batch", 3, False), ("_mb_batch", 4, True), ("_dual_vertical", 8, False),
        ("_dual_vertical", 9, False), ("_dual_vertical", 10, False), ("_dual_vertical", 11, False),
        ("_dual_vertical", 12, False),
    ]


def test_every_contour_walk_takes_the_archimedean_reflection():
    # a literal c would reflect a place whose ε² differs; the factor and the conjugate place come together
    found = {(p.name, where): ok for p in SRC for where, _, ok in contour_reflections(p.read_text())}
    assert found == {("bessel.py", "_mb_batch"): True, ("hankel.py", "_dual_vertical"): True}


def bare_phase_steps(source: str) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each phase_step(...) call that is not the direct
    argument of a _ladder_step(...) call."""
    tree = ast.parse(source)
    wrapped = {id(arg) for node in ast.walk(tree) if _call_name(node) == "_ladder_step" for arg in node.args}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if _call_name(child) == "phase_step" and id(child) not in wrapped:
                found.append((where or "<module>", child.lineno))
            visit(child, where)

    visit(tree, "")
    return found


def test_scanner_flags_steps_off_the_ladder():
    # the polyline walk as it stood before its panels went on the ladder, beside the ladder's rule
    src = (
        "def polyline_walk(bisect, pts, omega, tol):\n"
        "    pos += phase_step(omega(lo.imag))\n"
        "    pos += _ladder_step(phase_step(omega(lo.imag)))\n"
        "RULE = TailRule(1j, lambda length, rate: _ladder_step(phase_step(rate)))\n"
        "def tail(rate):\n"
        "    return _ladder_step(2 * phase_step(rate)) + quadrature.phase_step(rate)\n"
    )
    assert bare_phase_steps(src) == [("polyline_walk", 2), ("tail", 6), ("tail", 6)]


def test_every_phase_step_sits_on_the_ladder():
    found = {p.name: bare_phase_steps(p.read_text()) for p in SRC}
    assert len(_enclosed_calls((ROOT / "src" / "vorokit" / "quadrature.py").read_text(), ("phase_step",))) >= 2
    others = [f"{name}:{line}: in {where}" for name, rows in found.items() for where, line in rows]
    assert not others, "phase_step called outside _ladder_step:\n" + "\n".join(others)


def dual_policy_copies(source: str) -> list[tuple[str, str, int]]:
    """(kind, enclosing function, line) for each tolerance floor max(…, 2e-9, …)
    ("floor"), each handler that catches ToleranceNotMet ("retry") and each
    ``KernelCache()`` built ("cache"); a method is named Class.method."""
    found = []

    def names(node):
        nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
        return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}

    def visit(node, where, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, where, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name)
                continue
            if _call_name(child) == "max" and any(isinstance(a, ast.Constant) and a.value == 2e-9 for a in child.args):
                found.append(("floor", where, child.lineno))
            if isinstance(child, ast.ExceptHandler) and child.type and "ToleranceNotMet" in names(child.type):
                found.append(("retry", where, child.lineno))
            if _call_name(child) == "KernelCache":
                found.append(("cache", where, child.lineno))
            visit(child, where, cls)

    visit(ast.parse(source), "<module>")
    return found


def test_scanner_flags_dual_policy_copies():
    # both walks as they stood before the policy had one owner
    src = (
        "class DualGrid:\n"
        "    def __init__(self, w, tol=1e-7):\n"
        "        self.wtol = min(1e-7, max(2e-9, tol / 100.0))\n"
        "        self._cache = KernelCache()\n"
        "    def ensure(self, upto):\n"
        "        try:\n"
        "            vals, _ = hankel_convolution_batch(P, self.w, xs, tol=self.wtol, cache=c)\n"
        "        except ToleranceNotMet:\n"
        "            vals, _ = hankel_convolution_batch(P, self.w, xs, tol=8 * self.wtol, cache=c)\n"
        "def rhs_theta(job):\n"
        "    wtol = min(1e-7, max(2e-9, job.tol / 500.0))\n"
        "    cache = hankel.KernelCache()\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, quadrature.ToleranceNotMet):\n"
        "        pass\n"
        "    except ValueError:\n"
        "        return max(1e-9, wtol)\n"
    )
    assert dual_policy_copies(src) == [
        ("floor", "DualGrid.__init__", 3), ("cache", "DualGrid.__init__", 4), ("retry", "DualGrid.ensure", 8),
        ("floor", "rhs_theta", 11), ("cache", "rhs_theta", 12), ("retry", "rhs_theta", 15),
    ]


def test_dual_sum_policy_has_one_owner():
    # voronoi.py holds exactly one floor, one retry and one cache, all in the walk; hankel.py's
    # private cache for a lone batch belongs to no dual sum, so only voronoi.py and gj.py are held to it
    owners = [("cache", "DualWalk.__init__"), ("floor", "DualWalk.__init__"), ("retry", "DualWalk.ensure")]
    found = {p.name: dual_policy_copies(p.read_text()) for p in SRC}
    assert sorted((kind, where) for kind, where, _ in found["voronoi.py"]) == owners
    copies = [
        f"{name}:{line}: {kind} in {where}"
        for name, rows in found.items()
        for kind, where, line in rows
        if (name != "voronoi.py" or (kind, where) not in owners) and (kind != "cache" or name in ("voronoi.py", "gj.py"))
    ]
    assert not copies, "dual-sum policy outside voronoi.DualWalk:\n" + "\n".join(copies)


def scipy_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) for each ``import scipy…`` or ``from scipy… import``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "scipy":
            found.append((node.module, node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_scanner_flags_scipy_imports():
    src = (
        "import numpy as np, scipy\n"
        "from scipy.special import loggamma\n"
        "def f(z):\n"
        "    import scipy.integrate as si\n"
        "    return si, loggamma(z)\n"
        "from .scipy_free import g\n"
        "import scipyish\n"
        "from scipy import special\n"
    )
    assert scipy_imports(src) == [("scipy", 1), ("scipy.special", 2), ("scipy.integrate", 4), ("scipy", 8)]


def test_no_library_module_imports_scipy():
    assert SRC
    found = [f"{p.relative_to(ROOT)}:{line}: {mod}" for p in SRC for mod, line in scipy_imports(p.read_text())]
    assert not found, "scipy imported under src/vorokit:\n" + "\n".join(found)


def test_importing_every_module_loads_no_scipy():
    names = [p.stem for p in SRC if p.stem != "__init__"]
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('vorokit.' + name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def place_literals(source: str) -> list[tuple[str, int]]:
    """(owner, line) for each DS2Block(...) call whose weight parameter, first or as
    l=, is a literal; owner is the module-level name assigned the call, else "<elsewhere>"."""
    tree = ast.parse(source)
    owner = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = ",".join(t.id for t in node.targets if isinstance(t, ast.Name))
            owner.update((id(n), names) for n in ast.walk(node.value))
    found = []
    for node in ast.walk(tree):
        if _call_name(node) == "DS2Block":
            weight = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "l"), None)
            if isinstance(weight, ast.Constant):
                found.append((owner.get(id(node), "<elsewhere>"), node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_scanner_flags_place_literals():
    # gj's copy of Δ's place as it stood before the place had one owner, and other spellings of one
    src = (
        "DELTA_PLACE = RealPlaceParams((DS2Block(11, 0.0),))\n"
        "_DELTA_PARAMS = RealPlaceParams((DS2Block(11, 0.0),))\n"
        "def rhs_theta(job, co):\n"
        "    ds = RealPlaceParams((archimedean.DS2Block(l=11),))\n"
        "    return co.params, RealPlaceParams((DS2Block(job.weight - 1, 0.0),)), DS2Block(l=job.l)\n"
    )
    assert place_literals(src) == [("DELTA_PLACE", 1), ("_DELTA_PARAMS", 2), ("<elsewhere>", 4)]


def test_delta_place_has_one_owner():
    found = {p.name: place_literals(p.read_text()) for p in SRC}
    assert [owner for owner, _ in found["voronoi.py"]] == ["DELTA_PLACE"]
    copies = [
        f"{name}:{line}: in {owner}"
        for name, rows in found.items()
        for owner, line in rows
        if (name, owner) != ("voronoi.py", "DELTA_PLACE")
    ]
    assert not copies, "DS2Block with a literal weight outside voronoi.DELTA_PLACE:\n" + "\n".join(copies)


def profile_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each pos(...) or neg(...) call, as f(...) or obj.f(...)."""
    return _enclosed_calls(source, ("pos", "neg"))


def test_scanner_flags_profile_reads():
    # the support owner's two reads, beside a sum that reads another function's profile directly
    # and a reader that hands profiles its own points, one of them through an alias
    src = (
        "class TestFunction:\n"
        "    def __call__(self, x):\n"
        "        out = np.where(m, self.pos(np.where(m, ax, mid)), 0.0)\n"
        "        return np.where(mn, self.neg(np.where(mn, -ax, mid)), out)\n"
        "    def __add__(self, other):\n"
        "        return TestFunction(a, b, lambda x: self(x) + other.pos(x))\n"
        "def _component_vals(f, delta, x):\n"
        "    pos = f.pos\n"
        "    return pos(x) + (-1.0) ** delta * f.neg(x)\n"
    )
    assert profile_reads(src) == [
        ("TestFunction.__call__", 3), ("TestFunction.__call__", 4), ("TestFunction.__add__", 6),
        ("_component_vals", 9), ("_component_vals", 9),
    ]


def test_test_function_support_has_one_owner():
    found = {p.name: profile_reads(p.read_text()) for p in SRC}
    assert [where for where, _ in found["hankel.py"]] == ["TestFunction.__call__"] * 2
    others = [
        f"{name}:{line}: in {where}"
        for name, rows in found.items()
        for where, line in rows
        if (name, where) != ("hankel.py", "TestFunction.__call__")
    ]
    assert not others, "a test function's profile read outside hankel.TestFunction.__call__:\n" + "\n".join(others)


def _bound_names(assign: ast.Assign) -> set[str]:
    """Each name or attribute an assignment binds, tuple targets unpacked."""
    return {
        t.id if isinstance(t, ast.Name) else t.attr
        for target in assign.targets
        for t in ast.walk(target)
        if isinstance(t, (ast.Name, ast.Attribute)) and isinstance(t.ctx, ast.Store)
    }


def table_products(source: str) -> list[tuple[str, int]]:
    """(enclosing Class.function, line) of each ``@`` or ``matmul(...)`` with a phase table in an operand.

    A memo is a name or attribute assigned an expression that calls ``phase_tables``, or one
    that calls a function whose ``return`` names a memo; a table is a call of a memo, or a
    name assigned an expression that holds one.  ``out=`` and other keywords are no operand.
    """
    tree = ast.parse(source)
    assigns = [n for n in ast.walk(tree) if isinstance(n, ast.Assign)]
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    memos, makers = set(), {"phase_tables"}
    while True:
        grown = {name for a in assigns if any(_call_name(c) in makers for c in ast.walk(a.value)) for name in _bound_names(a)}
        sources = {
            f.name
            for f in functions
            for r in ast.walk(f)
            if isinstance(r, ast.Return) and r.value is not None
            and any((n.id if isinstance(n, ast.Name) else n.attr) in memos
                    for n in ast.walk(r.value) if isinstance(n, (ast.Name, ast.Attribute)))
        }
        if grown <= memos and sources <= makers:
            break
        memos |= grown
        makers |= sources
    is_read = lambda c: isinstance(c, ast.Call) and _call_name(c) in memos
    tables = {name for a in assigns if any(is_read(c) for c in ast.walk(a.value)) for name in _bound_names(a)}

    def holds_table(operand):
        return any(is_read(n) or (isinstance(n, ast.Name) and n.id in tables) for n in ast.walk(operand))

    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
                operands = [child.left, child.right]
            else:
                operands = child.args if _call_name(child) == "matmul" else []
            if any(holds_table(o) for o in operands):
                found.append((where or "<module>", child.lineno))
            visit(child, where)

    visit(tree, "")
    return found


def test_scanner_flags_table_products():
    # the three products as they stood before one owner kept them on one BLAS thread, beside
    # the owner's calls and products that read no table
    src = (
        "class ContourIntegrand:\n"
        "    def __init__(self, log_g, lx):\n"
        "        self.log_g, self.lx, self.phase = log_g, lx, phase_tables(lx)\n"
        "    def __call__(self, cs, hs, W, wg, out):\n"
        "        for i in range(len(cs)):\n"
        "            np.matmul(wg[i], self.phase(hs[i]), out=out[i])\n"
        "        table_matmul(wg[0], self.phase(hs[0]), out=out[0])\n"
        "        return np.matmul(W, out[0]) + (W @ self.lx)\n"
        "class _MellinGrids:\n"
        "    def grid(self, delta, p):\n"
        "        self._memo = ((delta, p), quadrature.phase_tables(p))\n"
        "        return self._memo[1]\n"
        "def _mellin_nodes(grids, delta, h, fw, e_off, e_c, W, vals, p):\n"
        "    tables = grids.grid(delta, p)\n"
        "    t = tables(h[0])\n"
        "    out = (t[:, :p] * (t[:, p:] @ (fw * e_off).T)) @ e_c\n"
        "    return out + quadrature.table_matmul(e_c, t) + (W @ vals) + np.matmul(e_c, np.exp(tables(h[1])))\n"
    )
    assert table_products(src) == [
        ("ContourIntegrand.__call__", 6), ("_mellin_nodes", 16), ("_mellin_nodes", 16), ("_mellin_nodes", 17),
    ]


def test_table_products_have_one_owner():
    # every product against a phase table is quadrature.table_matmul's, which keeps it on one BLAS thread
    found = [f"{p.relative_to(ROOT)}:{line}: in {where}" for p in SRC for where, line in table_products(p.read_text())]
    assert not found, "a product against a phase table outside quadrature.table_matmul:\n" + "\n".join(found)
    owners = {
        (p.name, where) for p in SRC for where, _ in _enclosed_calls(p.read_text(), ("table_matmul",))
    }
    assert owners == {("bessel.py", "ContourIntegrand.__call__"), ("hankel.py", "_mellin_nodes")}


def syntax_310_errors(path: Path) -> list[str]:
    """'path:line: message' if the Python 3.10 grammar refuses the file, else nothing."""
    try:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: {exc.msg}"]
    return []


def test_scanner_flags_syntax_newer_than_3_10(tmp_path):
    path = tmp_path / "groups.py"
    path.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert syntax_310_errors(path) == [f"{path}:4: Exception groups are only supported in Python 3.11 and greater"]
    path.write_text("match x:\n    case 1:\n        pass\n")
    assert syntax_310_errors(path) == []


def test_every_file_parses_as_python_3_10():
    assert len(CALLERS) > len(FILES) > len(SRC) > 0
    found = [line for p in CALLERS for line in syntax_310_errors(p)]
    assert not found, "syntax the Python 3.10 grammar refuses:\n" + "\n".join(found)
