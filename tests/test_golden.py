"""Bitwise identity of every preset's outputs against committed digests.

``tests/golden.json`` maps each run directory of ``adalase train --config
<preset> --seed 0`` (``<preset>``, or ``<preset>/point<i>`` for a grid point)
to the sha256 of its ``metrics.csv``, ``ratios.csv`` and ``checkpoint.adlw``,
and to its manifest's ``input_hash``, which pins the synthetic data bytes.
The runs use ``ADALASE_THREADS=1``; the digests hold for one numpy and BLAS
build. A change meant to alter the outputs refreshes the file with

    PYTHONPATH=src python tests/test_golden.py

and says in its description why the bytes moved; the command prints each run
directory whose digests moved against the committed file.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
FILES = ("metrics.csv", "ratios.csv", "checkpoint.adlw")


def preset_digests(out_root):
    """Train every preset at seed 0 under ``out_root`` in one child process with
    ``ADALASE_THREADS=1``; returns ``{run dir: {file: sha256, "input_hash": ...}}``."""
    env = dict(os.environ, ADALASE_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    code = ("import os, sys\n"
            "from adalase.cli import main\n"
            "from adalase.config import list_presets\n"
            "for name in list_presets():\n"
            "    out = os.path.join(sys.argv[1], name)\n"
            "    assert main(['train', '--config', name, '--seed', '0', '--out', out]) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code, out_root], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for run_dir, _, names in sorted(os.walk(out_root)):
        if "manifest.json" not in names:
            continue
        entry = {}
        for name in FILES:
            with open(os.path.join(run_dir, name), "rb") as fh:
                entry[name] = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(run_dir, "manifest.json")) as fh:
            entry["input_hash"] = json.load(fh)["input_hash"]
        digests[os.path.relpath(run_dir, out_root).replace(os.sep, "/")] = entry
    return digests


def test_preset_outputs_match_golden_digests(tmp_path):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = preset_digests(str(tmp_path))
    assert sorted(got) == sorted(want)
    for run in want:
        assert got[run] == want[run], run


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = preset_digests(tmp)
    with open(GOLDEN) as fh:
        old = json.load(fh)
    for run in sorted(set(old) | set(table)):
        if table.get(run) != old.get(run):
            print(f"moved: {run}")
    with open(GOLDEN, "w") as fh:
        fh.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} run digests to {GOLDEN}")
