"""The inventory of settable values, pinned.

A settable value is a defaulted (or ``**kwargs``) parameter of a public
function or method of the package's modules, a field of one of the four
config dataclasses, or a command-line option.  Each one multiplies what the
tests and the benchmark must cover, so adding or removing one edits
``SETTABLE_VALUES`` below, visibly.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

MODULES = ("cli", "harness", "optimizers", "orthogonalize", "linalg", "problems", "rng", "verification")
CONFIG_CLASSES = (
    ("harness", "RunConfig"),
    ("optimizers", "HyperParams"),
    ("orthogonalize", "OrthConfig"),
    ("problems", "NoiseModel"),
)

SETTABLE_VALUES = (
    "HyperParams.clamp_c",
    "HyperParams.epsilon",
    "HyperParams.eta",
    "HyperParams.mu1",
    "HyperParams.mu2",
    "HyperParams.orth",
    "HyperParams.weight_decay",
    "NoiseModel.batch_size",
    "NoiseModel.kind",
    "NoiseModel.sigma",
    "OrthConfig.method",
    "OrthConfig.ns_iterations",
    "RunConfig.dataset_size",
    "RunConfig.hyper",
    "RunConfig.log_every",
    "RunConfig.noise",
    "RunConfig.optimizer",
    "RunConfig.problem",
    "RunConfig.problem_dims",
    "RunConfig.problem_seed",
    "RunConfig.repeats",
    "RunConfig.seed",
    "RunConfig.steps",
    "RunConfig.warmup_steps",
    "cli.main(argv)",
    "harness.build_problem(dataset_size)",
    "harness.default_hyperparams(overrides)",
    "harness.lr_sweep(cs)",
    "harness.rate_experiment(batch_size)",
    "harness.rate_experiment(sigma)",
    "linalg.as_matrix(name)",
    "orthopt batch-adapt --T",
    "orthopt batch-adapt --b",
    "orthopt batch-adapt --dims",
    "orthopt batch-adapt --optimizer",
    "orthopt batch-adapt --out",
    "orthopt batch-adapt --problem",
    "orthopt batch-adapt --problem-seed",
    "orthopt batch-adapt --seeds",
    "orthopt batch-adapt --sigma",
    "orthopt rates --T",
    "orthopt rates --b",
    "orthopt rates --dims",
    "orthopt rates --optimizer",
    "orthopt rates --out",
    "orthopt rates --problem",
    "orthopt rates --problem-seed",
    "orthopt rates --regime",
    "orthopt rates --seed",
    "orthopt rates --sigma",
    "orthopt run --config",
    "orthopt run --out",
    "orthopt sweep --config",
    "orthopt sweep --cs",
    "orthopt sweep --etas",
    "orthopt sweep --out",
    "orthopt verify-lemmas --out",
    "orthopt verify-lemmas --seed",
    "orthopt verify-lemmas --snr-bound-scale",
    "orthopt verify-lemmas --trials",
    "verification.check_snr_bound(bound_scale)",
    "verification.check_snr_bound(dims_max)",
    "verification.check_snr_bound(t_max)",
    "verification.check_trace_inequality(dims_max)",
    "verification.snr_tightness_gap(dim)",
    "verification.snr_tightness_gap(mu)",
    "verification.snr_tightness_gap(t)",
)


def _defaulted(qualname, fn):
    for p in inspect.signature(fn).parameters.values():
        if p.default is not p.empty or p.kind is p.VAR_KEYWORD:
            yield f"{qualname}({p.name})"


def settable_values() -> list[str]:
    found = []
    modules = {name: importlib.import_module(f"orthopt.{name}") for name in MODULES}
    for layer, module in modules.items():
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found += _defaulted(f"{layer}.{name}", value)
            elif inspect.isclass(value):
                for meth, fn in vars(value).items():
                    fn = fn.__func__ if isinstance(fn, (classmethod, staticmethod)) else fn
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found += _defaulted(f"{layer}.{name}.{meth}", fn)
    for layer, name in CONFIG_CLASSES:
        found += [f"{name}.{f.name}" for f in dataclasses.fields(getattr(modules[layer], name))]
    parser = modules["cli"].build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        found += [
            f"orthopt {command} {a.option_strings[-1]}"
            for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
    return sorted(found)


def test_settable_values_are_pinned():
    assert settable_values() == list(SETTABLE_VALUES)


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the package, its tests and the benchmark, keyed by the called name."""
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, index: int, name: str) -> bool:
    """Whether ``call`` sets the parameter at ``index`` named ``name`` (a ``*``/``**`` argument may)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index or any(k.arg in (name, None) for k in call.keywords)


def test_every_default_is_used():
    # a default that every call overrides is a required parameter in disguise
    calls = _calls_by_name()
    overridden = []
    for entry in SETTABLE_VALUES:
        match = re.fullmatch(r"(\w+)\.([\w.]+)\((\w+)\)", entry)
        if match is None:
            continue
        layer, qualname, param = match.groups()
        fn = importlib.import_module(f"orthopt.{layer}")
        for part in qualname.split("."):
            fn = getattr(fn, part)
        params = list(inspect.signature(fn).parameters.values())
        (p,) = [p for p in params if p.name == param]
        if p.kind is p.VAR_KEYWORD:
            continue
        name = qualname.rsplit(".", 1)[-1]
        index = params.index(p) - (params[0].name == "self")  # a method is called on its instance
        if all(_passes(call, index, param) for call in calls.get(name, [])):
            overridden.append(entry)
    assert overridden == []
