"""The term representation and the F_p[t] tuples stay inside ``exact_algebra``.

A polynomial stores its terms as exponent vectors, the one term
representation of the package: ``exact_algebra`` has no name-keyed
``Monomial`` view (the tests keep theirs in ``tests/oracles.py``), and the
other modules work on the exponent vectors alone.
Univariate polynomials over F_p are coefficient tuples: the ``num`` and
``den`` of an F_p(t) element, the ``coeffs`` of an F_p[s]/(m) element and
the ``modulus`` of its field, handled by the ``fp_`` routines.
Stored coefficients are field-native (an F_p coefficient is an int residue),
and ``Fp`` is only the public element type they are converted to and from.
No other module of the package reads any of these attributes, imports an
``fp_`` routine, ``Fp`` or ``Monomial``, or uses a private name of
``exact_algebra``, so how terms, coefficients and tuples are stored is
decided in one module.

Outside the ridge and directrix certificates, no module raises a bare
``RuntimeError``, which no documented exit code covers.

A boundary divisor's coordinate is read through
``BoundaryComponent.variable``, which keeps it on the component: outside
``local_frame``, which defines it, no module calls
``coordinate_variable(<x>.generator)``.

nu*, the directrix and the log-directrix are derived in one place: outside
``local_frame``, which defines them, only ``blowup_engine`` (the
``ChartState`` properties) calls ``nu_star``, ``compute_directrix`` or
``add_old_boundary``; every other module reads them off a chart state.

The chart, record and trace shapes have one encoder, in
``resolution_driver``: no other module writes their keys, as dict keys or
as JSON text, and ``resolution_driver`` imports nothing from ``cli``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from surfres import exact_algebra as ea

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surfres"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "exact_algebra.py")
FORBIDDEN_ATTRIBUTES = ("terms", "exps", "num", "den", "coeffs", "modulus")
# the one module that reads a boundary divisor's coordinate off its generator
DIVISOR_MODULE = "local_frame.py"


def _forbidden_name(name: str) -> bool:
    """A name of ``exact_algebra`` no other module may use."""
    return name.startswith("_") or name.startswith("fp_") or name in ("Fp", "Monomial")


def _called(node: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _reads_divisor_variable(node: ast.AST) -> bool:
    """Whether the node is a call ``coordinate_variable(<x>.generator)``."""
    return (isinstance(node, ast.Call)
            and _called(node) == "coordinate_variable" and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "generator")


def violations(source: str, name: str) -> list[str]:
    """Each read of a forbidden attribute, each use of a private or ``fp_``
    name of ``exact_algebra`` and, outside ``DIVISOR_MODULE``, each
    ``coordinate_variable(<x>.generator)`` in the module source, as
    ``name:line what``."""
    tree = ast.parse(source, filename=name)
    aliases = set()  # names the module binds to exact_algebra itself
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.split(".")[-1] == "exact_algebra":
                    aliases.add(alias.asname or alias.name)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in FORBIDDEN_ATTRIBUTES:
                out.append(f"{name}:{node.lineno} reads .{node.attr}")
            elif (_forbidden_name(node.attr) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                out.append(f"{name}:{node.lineno} uses exact_algebra.{node.attr}")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[-1] == "exact_algebra"):
            out.extend(f"{name}:{node.lineno} imports {alias.name}"
                       for alias in node.names if _forbidden_name(alias.name))
        elif name != DIVISOR_MODULE and _reads_divisor_variable(node):
            out.append(f"{name}:{node.lineno} reads a divisor's variable off "
                       "its generator")
    return out


def test_every_package_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"char_polyhedron.py", "local_frame.py", "blowup_engine.py",
            "invariant.py", "resolution_driver.py", "cli.py"} <= names


def test_the_check_finds_each_kind_of_violation():
    source = (
        "from .exact_algebra import Polynomial, _layout, fp_mul\n"
        "from . import exact_algebra as ea\n"
        "def f(g):\n"
        "    return g.terms, g.terms[0][0].exps, ea._canonical\n"
        "def h(c, k):\n"
        "    return c.num, c.den, c.coeffs, k.modulus, ea.fp_gcd\n"
        "from .exact_algebra import Fp\n"
        "def g(p):\n"
        "    return ea.Fp(1, p)\n"
        "from .exact_algebra import INF, Monomial\n"
        "def h(f):\n"
        "    return f.coefficient(ea.Monomial.from_dict({'x': 1}))\n"
        "def v(b, frame, form):\n"
        "    return (coordinate_variable(b.generator), b.variable,\n"
        "            [lf.coordinate_variable(c.generator) for c in frame],\n"
        "            coordinate_variable(form))\n")
    assert sorted(violations(source, "m.py")) == [
        "m.py:1 imports _layout",
        "m.py:1 imports fp_mul",
        "m.py:10 imports Monomial",
        "m.py:12 uses exact_algebra.Monomial",
        "m.py:14 reads a divisor's variable off its generator",
        "m.py:15 reads a divisor's variable off its generator",
        "m.py:4 reads .exps",
        "m.py:4 reads .terms",
        "m.py:4 reads .terms",
        "m.py:4 uses exact_algebra._canonical",
        "m.py:6 reads .coeffs",
        "m.py:6 reads .den",
        "m.py:6 reads .modulus",
        "m.py:6 reads .num",
        "m.py:6 uses exact_algebra.fp_gcd",
        "m.py:7 imports Fp",
        "m.py:9 uses exact_algebra.Fp",
    ]


def test_no_name_keyed_view_of_the_terms():
    assert not hasattr(ea, "Monomial") and not hasattr(ea, "_vector_of")
    assert not any(hasattr(ea.Polynomial, name)
                   for name in ("make", "terms", "coefficient"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_term_representation(path):
    assert violations(path.read_text(encoding="utf-8"), path.name) == []


# ---------------------------------------------------------------------------
# internal errors
# ---------------------------------------------------------------------------

# A valid job ends on a documented exit code; the CLI maps InputError,
# ScopeError and LawViolation to them, and a bare RuntimeError escapes as a
# traceback.  The only sites left to raise one are the ridge and directrix
# certificates, which check a computation against its own result, so they
# fail only on a defect in the program.
RUNTIME_ERROR_SITES = ["local_frame.py:_directrix",
                       "local_frame.py:compute_ridge"]


def runtime_error_sites(source: str, name: str) -> list[str]:
    """``name:function`` of each ``raise RuntimeError`` in the module
    source, by the top-level function it is in (``<module>`` outside any)."""
    out = []
    for top in ast.parse(source, filename=name).body:
        where = (top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    out.append(f"{name}:{where}")
    return out


def test_the_runtime_error_check_finds_each_site():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise RuntimeError('boom')\n"
        "    def g():\n"
        "        raise RuntimeError\n"
        "    raise ScopeError('documented')\n"
        "class C:\n"
        "    def m(self):\n"
        "        raise RuntimeError('in a method')\n"
        "raise RuntimeError('at import')\n")
    assert runtime_error_sites(source, "m.py") == [
        "m.py:f", "m.py:f", "m.py:<module>", "m.py:<module>"]


def test_only_the_certificates_raise_a_bare_runtime_error():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in runtime_error_sites(path.read_text(encoding="utf-8"),
                                             path.name)]
    assert sorted(sites) == RUNTIME_ERROR_SITES


# ---------------------------------------------------------------------------
# one derivation of nu*, the directrix and the log-directrix
# ---------------------------------------------------------------------------

DERIVATIONS = ("nu_star", "compute_directrix", "add_old_boundary")
DERIVING_MODULES = ("local_frame.py", "blowup_engine.py")


def derivation_calls(source: str, name: str) -> list[str]:
    """``name:line function`` of each call of a ``DERIVATIONS`` function in
    the module source, by bare name or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call) and _called(node) in DERIVATIONS:
            out.append(f"{name}:{node.lineno} {_called(node)}")
    return out


def test_the_derivation_check_finds_each_call():
    source = (
        "from .local_frame import nu_star, compute_directrix\n"
        "from . import local_frame as lf\n"
        "def f(c, gens):\n"
        "    nu = nu_star(gens)\n"
        "    r, forms = lf.compute_directrix(gens, c.frame)\n"
        "    return lf.add_old_boundary(r, forms, c.frame, c.variables), nu\n"
        "def g(c):\n"
        "    return c.nu, c.directrix, c.log_directrix\n")
    assert derivation_calls(source, "m.py") == [
        "m.py:4 nu_star", "m.py:5 compute_directrix",
        "m.py:6 add_old_boundary"]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name not in DERIVING_MODULES], ids=lambda p: p.name)
def test_only_the_chart_state_derives_nu_star_and_the_directrix(path):
    assert derivation_calls(path.read_text(encoding="utf-8"), path.name) == []


def test_the_chart_state_is_the_derivation_outside_local_frame():
    source = (PACKAGE / "blowup_engine.py").read_text(encoding="utf-8")
    assert sorted(c.split()[1] for c in derivation_calls(
        source, "blowup_engine.py")) == sorted(DERIVATIONS)


# ---------------------------------------------------------------------------
# one encoder of the chart, record and trace shapes
# ---------------------------------------------------------------------------

# the keys of the chart, record and trace shapes that no other report has;
# ``check_monotone``'s violations hold a record's keys too
SHAPE_KEYS = ("label_mode", "created", "birth_step", "stratum", "conditions",
              "residue_degree", "iota_before", "iota_after", "comparison")
ENCODER_MODULE = "resolution_driver.py"


def shape_key_writes(source: str, name: str) -> list[str]:
    """``name:line key`` of each ``SHAPE_KEYS`` key the module source
    writes: a dict literal's key, a keyword of ``dict(...)``, or the JSON
    text of a key (``"key":``) in a string or f-string."""
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Call) and _called(node) == "dict":
            keys = [k.arg for k in node.keywords]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            keys = [k for k in SHAPE_KEYS if f'"{k}":' in node.value]
        else:
            continue
        out.extend(f"{name}:{node.lineno} {k}" for k in keys if k in SHAPE_KEYS)
    return out


def cli_imports(source: str, name: str) -> list[str]:
    """``name:line`` of each import of the ``cli`` module or of a name
    from it."""
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [node.module or ""] + [f"{node.module}.{alias.name}"
                                           for alias in node.names]
        else:
            continue
        if any(path.split(".")[-1] == "cli" for path in paths):
            out.append(f"{name}:{node.lineno}")
    return out


def test_the_encoder_check_finds_each_kind_of_write():
    source = (
        "from .cli import _report_text\n"
        "from . import cli\n"
        "import surfres.cli as front\n"
        "from .invariant import iota_to_jsonable\n"
        "def chart_to_jsonable(chart):\n"
        "    return {'id': chart.chart_id, 'residue_degree': 1,\n"
        "            'stratum': None, **chart.extra}\n"
        "def record(rec, i):\n"
        "    return (dict(iota_before=1, point=rec.point),\n"
        "            f'{i}\"comparison\": {rec.comparison}',\n"
        "            '\"conditions\": []', rec.get('iota_after'))\n")
    assert sorted(shape_key_writes(source, "m.py")) == [
        "m.py:10 comparison", "m.py:11 conditions", "m.py:6 residue_degree",
        "m.py:6 stratum", "m.py:9 iota_before"]
    assert cli_imports(source, "m.py") == ["m.py:1", "m.py:2", "m.py:3"]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != ENCODER_MODULE], ids=lambda p: p.name)
def test_only_the_encoder_writes_the_chart_and_record_keys(path):
    assert shape_key_writes(path.read_text(encoding="utf-8"), path.name) == []


def test_the_encoder_writes_every_key_and_imports_nothing_from_cli():
    source = (PACKAGE / ENCODER_MODULE).read_text(encoding="utf-8")
    written = {w.split()[1] for w in shape_key_writes(source, ENCODER_MODULE)}
    assert written == set(SHAPE_KEYS)
    assert cli_imports(source, ENCODER_MODULE) == []
