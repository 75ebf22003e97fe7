"""What the package computes, pinned: the packaged scenarios and the 41-point
fig5 `drive.eta2` sweep of acceptance criterion 11, reduced to

* each manifest without the scenario it echoes (the sweep's also without its
  worker count, which depends on the machine): every diagnostic, and the
  resolved parameters;
* every `ROW_STEP`-th CSV row, from the first;
* each CSV column's max and min.

`tests/data/reference_outputs.json` holds that reduction of the code that
wrote it.  `test_reference_outputs.py` compares a fresh run with it: exact
for integers, booleans and strings; for floats within `RTOL` times
max(1, |column max|) in a CSV column, and times max(1, |value|) elsewhere.
That lets BLAS and numpy roundoff through, but not a change of method or
step.

A change that means to move an output rewrites the file from its own code,

    PYTHONPATH=src python tests/reference_outputs.py

and states the largest move per column in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from modrabi.scenarios import load_scenario, packaged_scenarios, run_simulation, run_sweep

PATH = Path(__file__).parent / "data" / "reference_outputs.json"
ROW_STEP = 30
RTOL = 1e-11
SWEEP_PARAM = "drive.eta2"
SWEEP_VALUES = np.linspace(0.0, 1.2024, 41).tolist()


def run_packaged() -> dict:
    """Name -> `SimulationResult` of each packaged scenario."""
    return {name: run_simulation(load_scenario(name)) for name in packaged_scenarios()}


def run_eta2_sweep() -> tuple:
    """(manifest, header, rows) of criterion 11's sweep of fig5 over eta2."""
    return run_sweep(load_scenario("fig5").raw, SWEEP_PARAM, SWEEP_VALUES, name="fig5_sweep")


def _table(header: list, rows: list) -> dict:
    return {name: {"max": max(column), "min": min(column),
                   "sampled_rows": list(column[::ROW_STEP])}
            for name, column in zip(header, zip(*rows))}


def reduce(packaged: dict, sweep: tuple) -> dict:
    """The pinned part of `run_packaged()` and `run_eta2_sweep()`, as JSON
    reads it back."""
    out = {}
    for name, res in packaged.items():
        manifest = {k: v for k, v in res.manifest.items() if k != "scenario"}
        out[name] = {"manifest": manifest, "columns": _table(res.header, res.rows)}
    manifest, header, rows = sweep
    manifest = {k: v for k, v in manifest.items() if k != "scenario"}
    manifest["sweep"] = {k: v for k, v in manifest["sweep"].items() if k != "threads"}
    out["fig5_sweep"] = {"manifest": manifest, "columns": _table(header, rows)}
    return json.loads(json.dumps(out))


def differences(got, want, where: str = "", scale: float | None = None) -> list[str]:
    """Where `got` departs from `want`; `scale` is that of the CSV column
    being compared, None outside one."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: {got!r}, want the keys {list(want)}"]
        if "sampled_rows" in want:      # a CSV column
            scale = max(1.0, abs(want["max"]))
        return [d for key in want for d in differences(got[key], want[key], f"{where}.{key}", scale)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r}, want {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{where}[{i}]", scale)]
    if type(want) is float and type(got) is float:
        tol = RTOL * (max(1.0, abs(want)) if scale is None else scale)
        if got == want or abs(got - want) <= tol:      # == for infinities
            return []
        return [f"{where}: {got!r}, want {want!r} (|delta| {abs(got - want):.3g} > {tol:.3g})"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r}, want {want!r}"]
    return []


if __name__ == "__main__":
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(reduce(run_packaged(), run_eta2_sweep()), indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes)")
