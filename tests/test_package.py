"""The package namespace: each public name is declared once, in its module;
the float-arithmetic modules import no numpy; the protocol and learning
layers import nothing from each other; only errors and cli write an
interval message; only adversary names a basis policy; cli charts every
command through one helper and reads the defaults and choices the library
declares; the README's library example runs."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import qlabelsec
import qlabelsec.cli as cli
from qlabelsec import (
    adversary,
    errors,
    info_theory,
    learn_harness,
    pac_bounds,
    protocol,
    qubit,
    stats,
)

MODULES = (errors, pac_bounds, stats, info_theory, qubit, adversary, protocol, learn_harness)


def test_all_is_the_union_of_the_module_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))  # no name exported twice
    assert len(qlabelsec.__all__) == len(set(qlabelsec.__all__))
    assert set(qlabelsec.__all__) == {"__version__", *declared}


def test_every_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qlabelsec, name) is getattr(module, name)
    assert isinstance(qlabelsec.__version__, str)


def test_float_arithmetic_modules_import_no_numpy():
    for module in (stats, pac_bounds, info_theory):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "numpy" for name in names), module.__name__


def _imported_modules(module):
    """Every dotted name a module's source imports, relative ones without dots."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".")}


def test_protocol_and_learning_layers_import_nothing_from_each_other():
    # the session's row function is the only seam, and it is a plain callable
    protocol_layer = {"protocol", "adversary", "qubit"}
    assert not _imported_modules(learn_harness) & protocol_layer
    for module in (protocol, adversary, qubit):
        assert not _imported_modules(module) & {"learn_harness", "reports", "cli"}, module.__name__


def test_import_leaves_the_process_pool_unloaded():
    # only run_trials with workers > 1 imports the pool and multiprocessing
    src = str(Path(qlabelsec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, qlabelsec, qlabelsec.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})


def test_interval_messages_come_only_from_the_errors_module():
    # every rate, probability and threshold check goes through errors.check_interval;
    # the CLI keeps its own ConfigError texts for two options
    package = Path(qlabelsec.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name in ("errors.py", "cli.py"):
            continue
        text = path.read_text()
        for phrase in ("must lie in", "positive and finite"):
            assert phrase not in text, f"{path.name} writes its own interval check: {phrase!r}"


def test_only_adversary_names_a_basis_policy():
    # the rest of the package reads a policy through its z_probability
    members = {policy.name for policy in adversary.BasisPolicy}
    values = {policy.value for policy in adversary.BasisPolicy}
    package = Path(qlabelsec.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "adversary.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                isinstance(node, ast.Attribute) and node.attr in members
                or isinstance(node, ast.Constant) and node.value in values
            )
            assert not named, f"{path.name}:{node.lineno} names a basis policy"


def test_cli_builds_chart_series_in_one_place():
    # learn, sweep-eta and histograms chart their table rows through one helper
    tree = ast.parse((Path(qlabelsec.__file__).resolve().parent / "cli.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ChartSeries"
    ]
    assert len(calls) == 1


def _option(command, key):
    (option,) = [opt for opt in cli._COMMANDS[command][2] if opt.key == key]
    return option


def test_cli_defaults_and_choices_are_the_library_values(capsys):
    config = learn_harness.LearnerConfig()
    for command in ("learn", "sweep-eta", "histograms"):
        for field in dataclasses.fields(config):
            key = {"evaluation_cadence": "cadence"}.get(field.name, field.name)
            assert _option(command, key).default == getattr(config, field.name), key
        assert _option(command, "model").choices == learn_harness.MODEL_KINDS
    for command in ("sweep-eta", "histograms"):
        assert _option(command, "attack_kind").choices == info_theory.CURVE_KINDS
    attack = adversary.InterceptResend()
    assert _option("protocol-run", "policy").default == attack.basis_policy.value
    assert _option("protocol-run", "policy").choices == tuple(
        policy.value for policy in adversary.BasisPolicy
    )
    assert _option("protocol-run", "fraction").default == attack.attack_probability
    assert cli._LEG_CHOICES["both"] == adversary.BOTH_LEGS == attack.legs
    assert _option("protocol-run", "attack").choices[-2:] == info_theory.CURVE_KINDS
    assert info_theory.ATTACK_KINDS[:2] == info_theory.CURVE_KINDS
    assert cli.main(["thresholds"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert tuple(row.split()[0] for row in rows) == info_theory.ATTACK_KINDS
