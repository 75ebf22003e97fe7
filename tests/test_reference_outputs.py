import json

from reference_outputs import PATH, differences, reduce, run_commands


def test_outputs_match_the_reference(packaged_runs, eta2_sweep, tmp_path):
    want = json.loads(PATH.read_text(encoding="utf-8"))
    found = differences(reduce(packaged_runs, eta2_sweep, run_commands(tmp_path)), want)
    assert not found, f"{len(found)} outputs moved, first:\n" + "\n".join(found[:20])
