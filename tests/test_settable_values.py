"""The inventory of settable values, pinned.

A settable value is a defaulted (or ``**kwargs``) parameter of a public
function or method of the package's modules, a field of one of the four
config dataclasses, or a command-line option.  Each one multiplies what the
tests and the benchmark must cover, so adding or removing one edits
``SETTABLE_VALUES`` below, visibly.
"""

import argparse
import dataclasses
import importlib
import inspect

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
    "harness.batch_adaptation_experiment(problem_seed)",
    "harness.build_problem(dataset_size)",
    "harness.default_hyperparams(eta)",
    "harness.default_hyperparams(overrides)",
    "harness.lr_sweep(cs)",
    "harness.rate_experiment(batch_size)",
    "harness.rate_experiment(problem_seed)",
    "harness.rate_experiment(seed)",
    "harness.rate_experiment(sigma)",
    "linalg.as_matrix(name)",
    "orthogonalize.orthogonalize(cfg)",
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
    "verification.check_phi_eps(eps_grid)",
    "verification.check_phi_eps(x_grid)",
    "verification.check_snr_bound(bound_scale)",
    "verification.check_snr_bound(dims_max)",
    "verification.check_snr_bound(rng)",
    "verification.check_snr_bound(t_max)",
    "verification.check_snr_bound(trials)",
    "verification.check_trace_inequality(dims_max)",
    "verification.check_trace_inequality(rng)",
    "verification.check_trace_inequality(trials)",
    "verification.run_all_checks(bound_scale)",
    "verification.run_all_checks(seed)",
    "verification.run_all_checks(trials)",
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
