"""What a command loads: scipy's integrate and linalg stacks stay out of every
process whose run does not call them, and no run calls scipy.integrate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import modrabi

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse.linalg")

# A fresh interpreter: the test modules themselves import scipy.integrate.
SCRIPT = """
import json, sys
from modrabi.scenarios import load_scenario_document

DEFERRED = %r

def loaded():
    return [m for m in DEFERRED if m in sys.modules]

import modrabi, modrabi.cli
report = {"import": loaded()}
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

for name, argv in [
        ("validate", ["validate", "fig3d"]),
        ("design", ["design", "--lambda", "1", "--gratio", "0.3"]),
        ("gate", ["applications", "gate", "-o", "gate"]),
        ("simulate_exact", ["simulate", "fig2a_short.json", "-o", "fig2a"]),
        ("simulate_lossy_effective", ["simulate", "fig5_short.json", "-o", "fig5"]),
        ("simulate_rk4", ["simulate", "fig5_rk4.json", "-o", "fig5_rk4"])]:
    report[name] = [main(argv), loaded()]

# the benchmark harness hooks dynamics.solve_ivp, which still resolves to scipy's
import scipy.integrate
report["solve_ivp_is_scipys"] = modrabi.dynamics.solve_ivp is scipy.integrate.solve_ivp
print(json.dumps(report))
""" % (DEFERRED,)


def test_commands_load_scipy_integrate_and_linalg_only_when_a_run_calls_them(tmp_path):
    src = str(Path(modrabi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["import"] == []
    for name in ("validate", "design", "gate", "simulate_exact", "simulate_lossy_effective",
                 "simulate_rk4"):
        assert report[name] == [0, []], name
    assert report["solve_ivp_is_scipys"] is True
