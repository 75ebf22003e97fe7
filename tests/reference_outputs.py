"""What the package computes, pinned: the packaged scenarios, the 41-point
fig5 `drive.eta2` sweep of acceptance criterion 11 and the files of the
`design` and `applications` commands in `COMMANDS`, reduced to

* each manifest without the scenario it echoes (the sweep's also without its
  worker count, which depends on the machine): every diagnostic, and the
  resolved parameters; each command's JSON file whole;
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

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from modrabi.cli import main
from modrabi.scenarios import load_scenario, packaged_scenarios, run_simulation, run_sweep

PATH = Path(__file__).parent / "data" / "reference_outputs.json"
ROW_STEP = 30
RTOL = 1e-11
SWEEP_PARAM = "drive.eta2"
SWEEP_VALUES = np.linspace(0.0, 1.2024, 41).tolist()
COMMANDS = {
    "design_lambda1_gratio1.2": ["design", "--lambda", "1", "--gratio", "1.2"],
    "design_lambda2.5_gratio0.3_delta1-2": ["design", "--lambda", "2.5", "--gratio", "0.3",
                                            "--delta1-mhz=-2"],
    "design_lambda2.5_gr10": ["design", "--lambda", "2.5", "--gr-mhz", "10"],
    "design_lambda_inf": ["design", "--lambda", "inf"],
    "cat_g_ratio1.2": ["applications", "cat", "--g-ratio", "1.2"],
    "gate": ["applications", "gate"],
}


def run_packaged() -> dict:
    """Name -> `SimulationResult` of each packaged scenario."""
    return {name: run_simulation(load_scenario(name)) for name in packaged_scenarios()}


def run_eta2_sweep() -> tuple:
    """(manifest, header, rows) of criterion 11's sweep of fig5 over eta2."""
    return run_sweep(load_scenario("fig5").raw, SWEEP_PARAM, SWEEP_VALUES, name="fig5_sweep")


def _cell(field: str):
    return int(field) if field.lstrip("-").isdigit() else float(field)


def run_commands(directory: Path) -> dict:
    """Name -> {file name: its document, or (header, rows) of a CSV} of each
    of `COMMANDS`, run into its own subdirectory of `directory`."""
    out = {}
    for name, argv in COMMANDS.items():
        where = Path(directory) / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "-o", str(where)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        files = {}
        for path in sorted(where.iterdir()):
            if path.suffix == ".json":
                files[path.name] = json.loads(path.read_text(encoding="utf-8"))
            else:
                with open(path, newline="", encoding="utf-8") as fh:
                    header, *rows = csv.reader(fh)
                files[path.name] = (header, [list(map(_cell, row)) for row in rows])
        out[name] = files
    return out


def _table(header: list, rows: list) -> dict:
    return {name: {"max": max(column), "min": min(column),
                   "sampled_rows": list(column[::ROW_STEP])}
            for name, column in zip(header, zip(*rows))}


def reduce(packaged: dict, sweep: tuple, commands: dict) -> dict:
    """The pinned part of `run_packaged()`, `run_eta2_sweep()` and
    `run_commands()`, as JSON reads it back."""
    out = {}
    for name, res in packaged.items():
        manifest = {k: v for k, v in res.manifest.items() if k != "scenario"}
        out[name] = {"manifest": manifest, "columns": _table(res.header, res.rows)}
    manifest, header, rows = sweep
    manifest = {k: v for k, v in manifest.items() if k != "scenario"}
    manifest["sweep"] = {k: v for k, v in manifest["sweep"].items() if k != "threads"}
    out["fig5_sweep"] = {"manifest": manifest, "columns": _table(header, rows)}
    for name, files in commands.items():
        out[name] = {file: _table(*doc) if isinstance(doc, tuple) else doc
                     for file, doc in files.items()}
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
    with tempfile.TemporaryDirectory() as directory:
        pinned = reduce(run_packaged(), run_eta2_sweep(), run_commands(directory))
    PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes)")
