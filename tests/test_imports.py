"""What a command loads: importing the package loads no scipy module, nor do
the commands that step no run; a run that steps loads scipy.sparse for its
generator, and nothing of scipy's special, integrate or linalg stacks.  No
command maps an OpenBLAS that was not mapped at import, which is why a run
looks for the libraries it holds at one thread once per process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import modrabi

WATCHED = ("scipy", "scipy.sparse", "scipy.special", "scipy.integrate", "scipy.optimize",
           "scipy.linalg", "scipy.sparse.linalg")

# A fresh interpreter: the test modules themselves import scipy.  It runs the
# commands named in argv, in order, and reports after each which of WATCHED
# are loaded and, under "openblas", which OpenBLAS libraries are mapped.
SCRIPT = """
import json, sys
from modrabi.scenarios import load_scenario_document

WATCHED = %r

def loaded():
    return [m for m in WATCHED if m in sys.modules]

def openblas():
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:       # nothing to find the libraries in
        return []

import modrabi, modrabi.cli
report = {"import": loaded(), "openblas": {"import": openblas()}}
main = modrabi.cli.main

doc, _ = load_scenario_document("fig2a")
doc.update(fock_cutoff=8, grid={"t_end_ns": 0.3, "samples": 4})
with open("fig2a_short.json", "w") as fh:
    json.dump(doc, fh)
doc, _ = load_scenario_document("fig5")
doc.update(fock_cutoff=8, grid={"t_end_ns": 0.3, "samples": 4})
with open("fig5_short.json", "w") as fh:
    json.dump(doc, fh)

doc["integrator"] = {"method": "fixed_rk4"}
with open("fig5_rk4.json", "w") as fh:
    json.dump(doc, fh)

COMMANDS = {
    "validate": ["validate", "fig3d"],
    "design": ["design", "--lambda", "1", "--gratio", "0.3"],
    "gate": ["applications", "gate", "-o", "gate"],
    "simulate_exact": ["simulate", "fig2a_short.json", "-o", "fig2a"],
    "simulate_lossy_effective": ["simulate", "fig5_short.json", "-o", "fig5"],
    "simulate_rk4": ["simulate", "fig5_rk4.json", "-o", "fig5_rk4"],
    "sweep": ["sweep", "fig5_short.json", "--param", "drive.eta2", "--from", "0",
              "--to", "1", "--points", "2", "--threads", "1", "-o", "sweep"],
}
for name in sys.argv[1:]:
    report[name] = [main(COMMANDS[name]), loaded()]
    report["openblas"][name] = openblas()

# the benchmark harness hooks dynamics.solve_ivp, which still resolves to scipy's
import scipy.integrate
report["solve_ivp_is_scipys"] = modrabi.dynamics.solve_ivp is scipy.integrate.solve_ivp
print(json.dumps(report))
""" % (WATCHED,)


def _report(tmp_path, *commands) -> dict:
    src = str(Path(modrabi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *commands], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_no_new_openblas(report):
    """After every command, the OpenBLAS libraries mapped are those mapped at import."""
    mapped = report["openblas"]
    for name, paths in mapped.items():
        assert paths == mapped["import"], name


def test_commands_load_scipy_integrate_and_linalg_only_when_a_run_calls_them(tmp_path):
    stepped = ("simulate_exact", "simulate_lossy_effective", "simulate_rk4")
    report = _report(tmp_path, "validate", "design", "gate", *stepped)
    assert report["import"] == []
    for name in ("validate", "design", "gate"):
        assert report[name] == [0, []], name
    for name in stepped:
        assert report[name] == [0, ["scipy", "scipy.sparse"]], name
    assert report["solve_ivp_is_scipys"] is True
    _assert_no_new_openblas(report)


def test_a_sweep_loads_scipy_sparse_alone(tmp_path):
    report = _report(tmp_path, "sweep")
    assert report["import"] == []
    assert report["sweep"] == [0, ["scipy", "scipy.sparse"]]
    _assert_no_new_openblas(report)
