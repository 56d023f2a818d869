"""Import boundaries: a run loads the modules it calls into, and no others.

Every package ``__init__`` names its exports without importing them
(:mod:`repro._lazy`, DESIGN.md §2), and the registries import a built-in
component on its first lookup.  Each check runs in a fresh interpreter, so
what this test process has already imported cannot mask a module that an
eager import pulls in.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: The directory holding the ``repro`` under test, handed to every child.
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

AGENT_ENGINES = {"repro.simulator.engine", "repro.events.engine"}
#: The kernel driver, the kernels' shared base and one module per kernel family.
KERNEL_DRIVER = {
    "repro.api.kernel_run",
    "repro.simulator.sparse",
    "repro.simulator.vectorized",
    "repro.simulator.push_sum_kernel",
    "repro.simulator.sketch_kernels",
    "repro.simulator.extrema_kernel",
}


def run_source(**overrides) -> str:
    """Source that runs a small Push-Sum-Revert scenario with a mid-run failure."""
    spec = dict(
        protocol="push-sum-revert", protocol_params={"reversion": 0.1}, n_hosts=64,
        rounds=6, seed=3, mode="push",
        events=({"event": "failure", "round": 3, "model": "uncorrelated", "fraction": 0.5},),
        **overrides,
    )
    return (
        "from repro.api import ScenarioSpec, run_scenario\n"
        f"result = run_scenario(ScenarioSpec(**{spec!r}))\n"
        f"assert result.metadata['backend'] == {overrides['backend']!r}"
    )


def run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def loaded_after(code: str) -> set:
    """The module names loaded once ``code`` has run in a fresh interpreter."""
    stdout = run_child(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(stdout.splitlines()[-1]))


def test_the_scenario_api_loads_no_engine_environment_trace_or_pool():
    loaded = loaded_after(
        "import repro.api\n"
        "from repro.api import ScenarioSpec, Sweep, SweepRunner, VectorizedBackend, run_scenario"
    )
    unwanted = AGENT_ENGINES | {
        "repro.mobility",
        "repro.environments.trace",
        "multiprocessing",
    }
    assert not loaded & unwanted


@pytest.mark.parametrize("module", ["repro.core.departure", "repro.simulator.result"])
def test_importing_a_module_runs_none_of_its_siblings(module):
    package = module.rsplit(".", 1)[0]
    loaded = loaded_after(f"import {module}")
    assert {name for name in loaded if name.startswith(f"{package}.")} == {module}


@pytest.mark.parametrize("engine", ["rounds", "events"])
def test_a_vectorised_uniform_run_loads_no_agent_engine(engine):
    loaded = loaded_after(run_source(backend="vectorized", engine=engine))
    assert "repro.api.kernel_run" in loaded
    assert not loaded & AGENT_ENGINES


@pytest.mark.parametrize("protocol, family, others", [
    ("push-sum-revert", "push_sum_kernel", {"sketch_kernels", "extrema_kernel"}),
    ("count-sketch-reset", "sketch_kernels", {"push_sum_kernel"}),
])
def test_a_kernel_run_loads_no_other_kernel_family(protocol, family, others):
    loaded = loaded_after(
        "from repro.api import ScenarioSpec, run_scenario\n"
        f"run_scenario(ScenarioSpec(protocol={protocol!r}, n_hosts=32, rounds=3, "
        "backend='vectorized'))"
    )
    assert f"repro.simulator.{family}" in loaded
    assert not loaded & {f"repro.simulator.{name}" for name in others}


def test_an_agent_rounds_run_loads_no_kernel_driver():
    # The benchmark's ``agent_lossy`` shape: Push-Sum-Revert pushes over a lossy network.
    loaded = loaded_after(
        run_source(backend="agent", network="bernoulli-loss", network_params={"p": 0.2})
    )
    assert "repro.simulator.engine" in loaded
    assert not loaded & KERNEL_DRIVER
    # Nor any sketch module: a cutoff spells out the counter sentinel it needs.
    assert not {name for name in loaded if name.startswith("repro.sketches")}


def test_constructing_a_spec_loads_no_kernel_code():
    # Every registered protocol, in a mode its agent protocol supports.
    loaded = loaded_after(
        "from repro.api import PROTOCOLS, ScenarioSpec\n"
        "for protocol in PROTOCOLS.keys():\n"
        "    try:\n"
        "        ScenarioSpec(protocol=protocol, n_hosts=16, rounds=2)\n"
        "    except ValueError:\n"
        "        ScenarioSpec(protocol=protocol, n_hosts=16, rounds=2, mode='push')"
    )
    assert "repro.simulator.kernels" in loaded
    assert not loaded & KERNEL_DRIVER


def test_every_exported_name_resolves_and_is_listed():
    # A typo in a package's name table shows up here as a missing name.
    stdout = run_child(
        "import importlib, json, pkgutil\n"
        "import repro\n"
        "packages = ['repro'] + sorted(\n"
        "    'repro.' + info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg\n"
        ")\n"
        "problems = []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = set(dir(package))\n"
        "    for export in package.__all__:\n"
        "        try:\n"
        "            getattr(package, export)\n"
        "        except AttributeError as error:\n"
        "            problems.append(f'{name}.{export}: {error}')\n"
        "        if export not in listed:\n"
        "            problems.append(f'{name}.{export}: not in dir()')\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "problems.extend(f'from repro import *: no {export}'\n"
        "                for export in repro.__all__ if export not in namespace)\n"
        "print(json.dumps({'packages': packages, 'problems': problems}))"
    )
    report = json.loads(stdout.splitlines()[-1])
    assert len(report["packages"]) > 10
    assert report["problems"] == []


def test_an_unknown_name_is_an_attribute_error():
    stdout = run_child(
        "import repro.core\n"
        "try:\n"
        "    repro.core.PushSumRevertt\n"
        "except AttributeError as error:\n"
        "    print(error)"
    )
    assert "module 'repro.core' has no attribute 'PushSumRevertt'" in stdout
