"""check-main reports on one rendering of each benchmark verdicts shape,
pinned byte for byte.

The benchmark's verdicts oracle reads only the verdict and the
agreement, so the jet row's cells, the probe (m, e) = (1, 4) included,
are pinned here: six surfaces with a multiplicity-one cone factor
(verdict true) and six with a cone L^a whose jet route says false.  The
rows are spelled out so a failure names the cell that moved; the hash
covers the rest of the report.
"""

import hashlib

import pytest

from jetspace.cli import main

GOLDEN = {
    "3*x*z - 3*y^3": (
        "jet row m=1: value=0 converged=true cells=0:-1,1:2",
        "41cbde108d508ab6c6d795e3d690638060adf6b822fb0af3d75e6a34ca66a6b6",
    ),
    "2*z^2 - 3*x^2 + y^3": (
        "jet row m=1: value=0 converged=true cells=0:-1,1:2",
        "3e7cdb14408e30b1ac6a1cc1960d1929f7ea6ea0db68f83e7ab1793f999028c5",
    ),
    "3*x*z*y - x^4 + z^4": (
        "jet row m=1: value=0 converged=true cells=0:-1,1:-1,2:2",
        "39816eb615c9505faa9e3d5f9fb703d6e2349eca46ecb734a93da416a5b255f5",
    ),
    "-3*x^2*y + z^4": (
        "jet row m=1: value=0 converged=true cells=0:-1,1:-1,2:2",
        "b429941b413b4e62e6d350ab310efe92f183f12f8199f14d7a9af5cf359a39cf",
    ),
    "2*z^2 + 2*x*y + 2*z^3": (
        "jet row m=1: value=0 converged=true cells=0:-1,1:2",
        "784da1ad055e22b78faf2360ea17d7c3ab1b7c5bf63c926f7f7537fb727398fc",
    ),
    "-2*y*x*(y + z) + 3*z^4": (
        "jet row m=1: value=0 converged=true cells=0:-1,1:-1,2:2",
        "d86f9c9ffb2fa73ffa59ee112e1ecc01e47d8eea75863795e9070a4b6b42b960",
    ),
    "-x^2 + 3*z^3 - 2*y^3": (
        "jet row m=1: value=1 converged=true cells=0:-1,1:-1,2:1,3:0,4:0",
        "628ddde9efc4a91e5f16942668133a30600712011fffa2612ef1dbcde92b94aa",
    ),
    "2*z^2 + 3*y^3 - x^4": (
        "jet row m=1: value=1 converged=true cells=0:-1,1:-1,2:1,3:0,4:0",
        "f47af66b356d3d116919e0e96ff0497f41caf19943e7ab991c6d5bcd8165140f",
    ),
    "3*y^2 + 3*x^3 + 3*x*z^3": (
        "jet row m=1: value=1 converged=true cells=0:-1,1:-1,2:-1,3:1,4:-1",
        "ad93d2ea5c316a3966a437535e89b2da86a39324e32f6930d7105a2f310181e5",
    ),
    "-3*y^2 + 3*x^2*z + z^4": (
        "jet row m=1: value=1 converged=true cells=0:-1,1:-1,2:1,3:0,4:0",
        "42074bd73a3c1df3c40b9290035612f499f8bc525fe3a576f6bc4fd8ca2ee945",
    ),
    "2*y^2 - 3*x^2*z + 3*z^3": (
        "jet row m=1: value=1 converged=true cells=0:-1,1:-1,2:1,3:0,4:0",
        "2847f503cd590e163bde3cf759c5dc8d1e21fc1347cd8a527488630977a10e2c",
    ),
    "3*x^3 + 2*z^4 - y^4": (
        "jet row m=1: value=1 converged=true cells=0:-1,1:-1,2:-1,3:1,4:-1",
        "d90538f538dade4d64f2731b5aae478c5e576b75f150e1058e6b2bf5ae607ad2",
    ),
}


@pytest.mark.parametrize("f", list(GOLDEN))
def test_check_main_report_is_pinned(f, tmp_path, capsys):
    src = tmp_path / "surface.jsp"
    src.write_text(f"ring x, y, z\nideal X = {f}\npoint 0, 0, 0\ncommand check-main\n")
    assert main(["run", str(src)]) == 0
    out = capsys.readouterr().out
    rows = [line.strip() for line in out.splitlines() if line.startswith("  jet row ")]
    assert (rows, hashlib.sha256(out.encode()).hexdigest()) == ([GOLDEN[f][0]], GOLDEN[f][1])
