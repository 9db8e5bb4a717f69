"""Byte-level guard on CLI reports that print cyclotomic coefficients.

Each run's stdout is pinned by its sha256.  The closed-form runs cover
coefficients at levels 20, 42 and 18; at N = 9 the Gauss sums (level 18) and
the pole data (level 9) meet with character values at level 6, so the printed
level is an lcm of levels that do not divide each other.  The sweep run
covers N = 9, 10, 11 and 12, where several poles per input carry weight
coefficients, and its per-item `conjugate_relation` field.  The expand runs
pin the strict and weak nested series at t = 4, and a weak t = 2 run whose
numerator is neither integral nor admissible, which brute force accepts.  The
verify runs at N = 15 and 21 print certificates whose closed forms evaluate
at levels 60 and 42, where the characters of each (dilation, weight) group
must add up to rational coefficients; the runs at N = 1 and 2 (t = 2 and 3,
with the isobaric closed form) and the N = 1, k = 4 closed form pin the two
rational poles.  Four more closed forms pin the character tables: N = 13
(prime level 156 = lcm(13, 12)), N = 16 (the 2-power group {+-1} x <5>, whose
primitive characters live at smaller moduli with rescaled levels), N = 20
(mixed conductors) and N = 24 (three generators of order 2).  The recorded
digests must only change when the report format is meant to change.
"""

import hashlib

import pytest

from cyclomac.cli import DEFAULT_ORDER_ENV, main

GOLDEN = [
    (["closed-form", "--N", "5", "--k", "1", "--Q", "x + x^3", "--format", "json"],
     "e8cde787e62bbad64f5b3e29ce963d03e40bad432869e601ad8d975ccc36fc73"),
    (["closed-form", "--N", "7", "--k", "1", "--Q", "x^3", "--format", "json"],
     "f1985f2b8c439d4a3907c36500a54368fcf8f12dcb0d2ec0efeeaf2785a15582"),
    (["closed-form", "--N", "9", "--k", "1", "--Q", "x + x^5", "--format", "json"],
     "cf64913cec8aca0630e7a25b8489c931873be778284ec83c0827f2fa43ccc341"),
    (["closed-form", "--N", "2", "--k", "4", "--Q", "x^2", "--format", "json"],
     "f9c84326b3ddd0d80767b6a7b1541bc0c63d8825cc1dcdeaface0463f4b5c65f"),
    (["verify", "--N", "5", "--k", "2", "--Q", "x^4", "--t", "2",
      "--order", "30", "--format", "json"],
     "0961dc6dfc882fb1c9929e759927cbe30b36b5051dcdc7ec07d15e8331a05fa2"),
    (["sweep", "--max-N", "12", "--max-k", "2", "--degree-bound", "10",
      "--order", "20", "--format", "json"],
     "6a31fbd08a4bf83ce832078058b39c2dd59088626c1a80b96c6399165f436e01"),
    (["expand", "--N", "5", "--k", "1", "--Q", "x + x^3", "--t", "4",
      "--order", "60", "--format", "json"],
     "f05570cffc16fbf34c7babe8eba32d8d97fbf8f254e15f94048000800d9227e0"),
    (["expand", "--N", "5", "--k", "1", "--Q", "x + x^3", "--t", "4",
      "--weak", "--order", "60", "--format", "json"],
     "9731593ac2eec1c1ee2d44a66b581eca2f1e857e071137df1fe29af8502bcc03"),
    (["expand", "--N", "12", "--k", "3", "--Q", "1/2*x^2 - x", "--t", "2",
      "--weak", "--order", "50", "--format", "json"],
     "688c1bc7a620f4ea4cb4a6f8daee51274c8ca2019661b3c11241a839c74eb1a8"),
    (["verify", "--N", "15", "--k", "1", "--Q", "x^4", "--order", "40",
      "--format", "json"],
     "458a6f6bcbbf68fffb72b5e6c4078e8477b924dcc604e7c906017f6e81947202"),
    (["verify", "--N", "21", "--k", "1", "--Q", "x^6", "--order", "60",
      "--format", "json"],
     "c8de932719940fb9822761d5f6fb99aea546e9aab32bf879e5dea9ee6f0de5d9"),
    (["verify", "--N", "1", "--k", "3", "--Q", "x - x^2", "--t", "2",
      "--order", "30", "--format", "json"],
     "e1d85c2cd2de49360ba6229d11b0d8b7073f162961b7b46f9c944ace6531cc17"),
    (["verify", "--N", "2", "--k", "3", "--Q", "x + x^2", "--t", "3",
      "--order", "30", "--format", "json"],
     "0e1762b1163b0e441af567552444b0a6a2ccac52f94efd39d6ec566ea7b652ae"),
    (["closed-form", "--N", "1", "--k", "4", "--Q", "x + x^3", "--format", "json"],
     "80694c613ffeeddbc665802cb0e6f4c0dc81ffbcaa0213c905be0ca84a8c071b"),
    (["closed-form", "--N", "13", "--k", "1", "--Q", "x^6", "--format", "json"],
     "e937fae4661e3ea34ed49edc659ceddb7edb8a5bb2c4d3e84b3ed86fa3d61009"),
    (["closed-form", "--N", "16", "--k", "1", "--Q", "x^4", "--format", "json"],
     "f0e24f00123f06c8385c1d0c7f06e99b3bee193c3a6da3019fcc14d0e2adb701"),
    (["closed-form", "--N", "20", "--k", "1", "--Q", "x^2 + x^6", "--format",
      "json"],
     "7ada6a6ee0df0c64699713da86526e782936122c6a797f2fdbaff103613909ce"),
    (["closed-form", "--N", "24", "--k", "1", "--Q", "x + x^7", "--format",
      "json"],
     "5f6a35d00f329f54d70db49eb027eaac631d95a1351a8a93327cffb9e3312fb6"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join(argv[:5] + ["--weak"] * ("--weak" in argv))
                              for argv, _ in GOLDEN])
def test_report_bytes_are_unchanged(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv(DEFAULT_ORDER_ENV, raising=False)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
