"""Every option has a caller: a defaulted parameter of a function in
``src/powemb`` that no call in ``src/powemb`` or ``perfbench/`` sets is an
option nothing reads, and each one doubles what the tests must cover."""

import ast
from pathlib import Path

from powemb import suite

ROOT = Path(__file__).resolve().parents[1]
TREES = (ROOT / "src" / "powemb", ROOT / "perfbench")

# Defaulted parameters that stay although no call in the two trees sets
# them, each with its reason.
ALLOWED = {
    "norms.besov_norm(sys=)": "perfbench's norm_batch_1d and grid_2d pass "
                              "their own system (through getattr)",
    "norms.triebel_norm(sys=)": "as besov_norm",
    "verify.check_nikolskij(force=)": "tests reach the forced report through it",
    "verify.peak_constants(n_check=)": "tests reach the drift and NaN checks "
                                       "through it",
    "lpengine.load_profile_csv(d=)": "the CSV does not record d",
    "cli.main(argv=)": "tests and embedders pass argv; None reads sys.argv",
    "suite.random_spec(d=)": "tests draw 2-D specs through it",
}


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _scan():
    """(defined, calls): each function of src/powemb with its module, the
    name calls use for it (a class's name for its ``__init__``), its
    positional parameters past ``self`` and its defaulted ones; and each
    call in both trees by name, as (positional count, keywords, unpacked).
    A call is matched by the name it calls alone, so a call to another
    function of that name counts too: the scan errs towards passing."""
    defined, calls = [], []
    for tree in TREES:
        for path in sorted(tree.glob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            methods = {id(item): cls.name for cls in ast.walk(module)
                       if isinstance(cls, ast.ClassDef) for item in cls.body}
            for node in ast.walk(module):
                if isinstance(node, ast.Call) and _callee(node):
                    calls.append((_callee(node),
                                  sum(not isinstance(a, ast.Starred) for a in node.args),
                                  {k.arg for k in node.keywords},
                                  any(isinstance(a, ast.Starred) for a in node.args)
                                  or None in {k.arg for k in node.keywords}))
                if tree is TREES[0] and isinstance(node, ast.FunctionDef):
                    args = node.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    cls = methods.get(id(node))
                    if cls is not None and positional[:1] in (["self"], ["cls"]):
                        positional = positional[1:]
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                  if d is not None]
                    name = cls if node.name == "__init__" else node.name
                    shown = f"{cls}.{node.name}" if cls else node.name
                    defined.append((f"{path.stem}.{shown}", name, positional,
                                    defaulted))
    return defined, calls


def _unread():
    defined, calls = _scan()
    runners = {fn.__name__ for _, fn in suite.CATALOG.values()}
    out = []
    for qualname, name, positional, defaulted in defined:
        if qualname.startswith("suite.") and name in runners:
            continue  # pinned by TestConfigValues.test_every_runner_parameter_has_one_row
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(callee == name and (param in keywords or unpacked
                                           or (index is not None and npos > index))
                       for callee, npos, keywords, unpacked in calls):
                out.append(f"{qualname}({param}=)")
    return out


def test_every_defaulted_parameter_has_a_caller():
    unread = _unread()
    assert sorted(set(unread) - set(ALLOWED)) == []
    # An allowed entry that a call now sets, or that is gone, is dropped.
    assert sorted(set(ALLOWED) - set(unread)) == []
