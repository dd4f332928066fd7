"""Golden outputs: the bytes of the README examples, the canned figures,
``validate --quick``, the law's tables and three demos are pinned across
commits.

Each case runs in-process (``cli.main``, or a demo by ``runpy``) in an empty
directory and is reduced to SHA-256 digests of its exit code, stdout, stderr
and every file it writes.  A changed digest means a changed output byte: a
deliberate change records a new table and declares it.  The table is printed,
never rewritten, by

    PYTHONPATH=src python tests/test_golden.py

``validate --quick`` prints each criterion's runtime, as in
``(1.2s / budget 60s)``; the runtime field is replaced by a fixed token
before its stdout is hashed.  At ~2 s it is the costliest case.
"""

import contextlib
import hashlib
import io
import re
import runpy
from pathlib import Path

import pytest

from sdnqueue import cli

# a criterion's wall time, the one part of ``validate`` output that varies
_RUNTIME = re.compile(r"\(\d+\.\ds / budget")

DEMOS = Path(__file__).resolve().parents[1] / "demos"
LAW = "--q-nf 0.5 --mu-switch-us 9.8 --mu-controller-us 240"

CASES = {
    "readme simulate": (
        f"simulate --lam 2000 {LAW} --packets 200000 --replications 5 --seed 1 "
        "--output sim.csv"),
    "readme chain --simulate": (
        "chain --lam 2000,1000 --q-nf 0.2,1.0 --mu-switch-us 9.8 --mu-controller-us 240 "
        "--simulate --output chain.csv"),
    "figure fig3 --quick": "figure fig3 --quick --output fig3.csv",
    "figure fig4": "figure fig4 --output fig4.csv",
    "validate --quick": "validate --quick",
    "dimension curve csv": f"dimension {LAW} --output curve.csv",
    "dimension curve json": f"dimension {LAW} --output curve.json --format json",
    "distribution table": f"distribution --lam 2000 {LAW} --points 50 --output law.csv",
    "distribution quantiles": (
        f"distribution --lam 2000 {LAW} --quantiles 0.5,0.9,0.99,0.999,0.999999 "
        "--output q.csv"),
    "demo 02": DEMOS / "02_sojourn_distribution.py",
    "demo 03": DEMOS / "03_model_vs_simulation.py",
    "demo 05": DEMOS / "05_two_node_chain.py",
}

# Recorded before replications ran in more than one process.
GOLDEN = {
    "demo 02": {
        "exit": 0,
        "stdout": "895eddbc9842c4bf09cd550f8d89ea263681b15631fbd69eef35398ffaed51be",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "demo 03": {
        "exit": 0,
        "stdout": "b735218cdc2dcfbe9a45607c8cf9116e6bd721051ba54edb8d1cebea372a064d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "demo 05": {
        "exit": 0,
        "stdout": "a27c41fa24036f650f411d2bc4701931086d10104bbd4c5af4380cbe746579a6",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "dimension curve csv": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "curve.csv": "f4b069534673b0bdcb687b27e9783f4aac45e37da09144221e83d0653311d7c2",
    },
    "dimension curve json": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "curve.json": "c5a1422ffd435962354f41cb0180ae71d2b7a392790b8ad9e498d22c096488e5",
    },
    "distribution quantiles": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "q.csv": "9a11f4cc4b642d688b1f800d779cef1a8cb5be5d0b98de1bb8a221bdd55ce03b",
    },
    "distribution table": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "law.csv": "18f7a7f4f985f0c3571d80db8628ed9aefb73f25dc952bc4e4f526f8b6982ea4",
    },
    "figure fig3 --quick": {
        "exit": 0,
        "stdout": "6ce4b02cde74db7564ebbc94766c98c6c158ab41cc4d6eb64471439f2e4620ea",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "fig3.csv": "cc868493c0590dbd85ecd10c7fdb3a6d75f659665bc1c3cd641f2ca0780c05db",
    },
    "figure fig4": {
        "exit": 0,
        "stdout": "c920806a074ef9d09ffabbc2d818903268d139351a9e95df1910bf98a61df45b",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "fig4.csv": "9216c7c31ce58a8b6fd6af74641be9d555d9d723a5c95d109c8c91f9f7394fb1",
    },
    "readme chain --simulate": {
        "exit": 0,
        "stdout": "5b70f0156dff683224c64c7fa346070ec80dd7c3a00b3e7ff28d9d3965dac6fb",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "chain.csv": "abb0c237d8cc3ced1d7dcb1f29b8034f4da731236738e901e570bea95f2a684f",
    },
    "readme simulate": {
        "exit": 0,
        "stdout": "290f77b2608a6f7f7e8eb259145d07845a0abb4069ae8044df40bc4f98ac223c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sim.csv": "9cfa9b6e0ef696742bb98b7d5b51919de31655f726806ab5f234f022ea9ff692",
    },
    "validate --quick": {
        "exit": 0,
        "stdout": "1bedc8c0da017ce1e5496319fbdbaa1bb095352bb3a59abf80c5cd17088c7eb5",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(case: str, workdir: Path) -> dict:
    """Run ``case`` in ``workdir``, the current directory: its exit code and
    the digests of its stdout, stderr and written files, by name."""
    what = CASES[case]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if isinstance(what, Path):
            runpy.run_path(str(what), run_name="__main__")
            code = 0
        else:
            code = cli.main(what.split())
    stdout = _RUNTIME.sub("(<runtime> / budget", out.getvalue())
    digests = {"exit": code, "stdout": _sha(stdout.encode()),
               "stderr": _sha(err.getvalue().encode())}
    for path in sorted(workdir.iterdir()):
        digests[path.name] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    import json
    import os
    import tempfile

    print("GOLDEN = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            digests = _digests(name, Path(tmp))
        print(f'    "{name}": {{')
        for key, value in digests.items():
            print(f'        "{key}": {json.dumps(value)},')
        print("    },")
    print("}")
