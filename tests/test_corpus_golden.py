"""Golden oracle: every corpus report is pinned byte for byte.

Each entry's exit code and the SHA-256 of its stdout were recorded from
the reference implementation.  A refactor that changes any report byte
fails here; a deliberate report change must update the pinned hash.
"""

import hashlib

import pytest

from jetspace.cli import main
from jetspace.corpus import CORPUS

GOLDEN = {
    "cone": (0, "c5fcc313aee758c71bbaef8ac3dc65682088254994efe0804b6447560502bd40"),
    "cone-dim": (0, "90eb2c41d5463170ef18dea240f4211fb9e3225f37daed5f30fb29ea1dbc2adb"),
    "cusp": (0, "546ec9efc90835361b988a406135794dfbab424dcc62b1d0662b7f2069cab338"),
    "cusp-jets": (0, "55493075dd2673938ed4c86e18cd552587d38ca9c5dd13fdd0c09d2bc74edc57"),
    "cusp-lct": (0, "13904df69a735dcad0bc7a18581e0d524f02aee1c22435f6c76af3a51c2f01d1"),
    "cusp-tangent-cone": (0, "6676bb588474f0b7cdd9a0ee2745438c3d74e63cd0e4171d9220da9dca71d805"),
    "ex313": (0, "b2abc068c3b32959806243dd123fbac957b35d67dca3e30bec59dd0e7a88100b"),
    "ex313-mld": (0, "080495b265fde4ac8f545b7f5279e3d5fb3da90db1d1e62896b87c30bf0ee21f"),
    "ex313-plane": (0, "1664fa9a8d1637a0b18a33ed95dd97665af0a00c9ae67ed2350bb03d41632a47"),
    "lct-mixed": (0, "5e6c693632241c1872a314b34468380c19bd925237bc54370c401adc5c8bf167"),
    "lct-point": (0, "970001c4a8d961fd1559ecb64aa68f3106e7882dd88c07cdcda373151d72ae22"),
    "lct-square": (0, "2c047d76cd9aaebb22c0a889c3ab20023ab89ef0fb0ec9d58e0857ae9a4520d2"),
    "line": (0, "9191182c412eb7ee20492d863a42e3f997677f6d983ae0fc8cb4dbd04e85ef2e"),
    "node": (0, "77c92c14675f0a42b82e7d8e23f8bb4426427b90733b1e8af6912db758b3244a"),
    "sphere": (0, "f2fee0bd70f8f0fa0dcf189a516399bfafa8a56d72128bbe976fdb2577b6e635"),
    "tacnode": (0, "3e9eb780d77c6ca4fd8f47b194d5bfd51a7df1f112e02ee747aa818c9e76b2cc"),
    "tripleline": (0, "d191f134cc041aa9190c7d0cb606e6a684a3385c8606c32f957df877290337b3"),
    "umbrella": (0, "b291a4e18839a6f7150d8bbae08f7e3e9a287ec7882dbdc2c85377849b88e6af"),
}


def test_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_report_is_pinned(name, capsys):
    code = main(["corpus", name])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name]
