"""Every ``gf`` output, pinned by the SHA-256 digest of its bytes.

A case is named by what it runs: ``gf ...`` is the stdout of that command
line, and ``to_json_dict NAME N`` is ``json.dumps`` (sorted keys) of the
named series at order N.  The digests in ``gf_golden.json`` were taken at
commit 1e7fe47, before the renderers shared one pass over the terms and
before the lazy kernel had its own scalar and sum nodes, so any byte that
either change moves fails here, naming its case.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from motzkinperm.cli import GF_FUNCTIONS, main
from motzkinperm.series import SeriesRing

GOLDEN = json.loads(Path(__file__).with_name("gf_golden.json").read_text())

ORDERS = (0, 1, 12, 20)
CLUSTER_FAMILIES = ("HHH,HHU,DHH,DHU", "HU,DU")
#: The ``--eval`` example of the README's command-line section.
README_EVAL = "gf --name f123_inv --N 12 --eval t=1,z=1"


def cases() -> list[str]:
    sources = [f"--name {name}" for name in sorted(GF_FUNCTIONS)]
    sources += [f"--name cluster --S {family}" for family in CLUSTER_FAMILIES]
    out = [f"gf {s} --N {n} --format {fmt}" for s in sources for n in ORDERS for fmt in ("json", "text")]
    out += [README_EVAL, f"{README_EVAL} --format text"]
    out += [f"to_json_dict {name} {n}" for name in sorted(GF_FUNCTIONS) for n in (12, 20)]
    return out


def output(case: str) -> bytes:
    verb, *rest = case.split()
    if verb == "to_json_dict":
        name, order = rest
        return json.dumps(GF_FUNCTIONS[name](int(order)).to_json_dict(), sort_keys=True).encode()
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main([verb, *rest])
    assert code == 0, f"{case} exited {code}"
    return stdout.getvalue().encode()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_matches_its_digest(case):
    assert hashlib.sha256(output(case)).hexdigest() == GOLDEN[case], f"{case!r} differs from its pinned output"


def test_text_renders_the_zero_series_as_one_bracket():
    ring = SeriesRing(3, ("t",))
    assert str(ring.zero()) == "[0]"
    assert ring.zero().format_coefficients() == ["0"] * 4
    assert str(ring.monomial(-2, 3, t=1) + 1) == "[n=0] 1\n[n=3] -2*t"
