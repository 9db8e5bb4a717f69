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
(mixed conductors) and N = 24 (three generators of order 2).  Three more
runs pin the scalar boundaries: `verify --N 35` evaluates its character
tables at level 420, the N = 35 closed form in text format prints every
coefficient and the constant through `str`, and the N = 7, k = 5 expand
inverts a high power of Phi_N with a non-integral numerator.  Two expand runs
pin the common denominator of the integer brute-force recurrence: at N = 1,
k = 3 (weak, t = 3) the k-th power of Phi_1 = x - 1 has constant term -1, as
it has in the depth-1 run with the same numerator at order 60, and at N = 2
(strict, t = 4) the numerator 3/4*x + x^3 puts 4^4 into the denominators of
the nested series.  Three runs pin rational numerators flowing through the
pole data into lowest-terms cyclotomic coefficients: the N = 7, k = 2 closed
form with numerator 1/3*x + 5/7*x^6 + 1/3*x^11, the N = 10, k = 3 closed form
with 2/9*x^6, and the N = 12, k = 2, t = 2 verify with 1/2*x^2 + 1/2*x^6.
Three verify runs pin the isobaric assembly at t >= 4: N = 6, k = 2 at t = 5
and order 100, the rational numerator 1/2*x^2 + 1/2*x^6 at N = 12, t = 4, and
N = 1, where Phi_1 = x - 1 is negated, at t = 6.  Five expand runs pin the
edges of the packed brute-force recurrence: the weak t = 20 series at N = 3,
whose coefficients are the widest, and the strict one at order 400, zero below
q^210; the signed, fractional numerator -7/3*x - 1000*x^11 at N = 5, k = 3,
t = 4 and order 300, strict and weak; and the strict t = 6 series at N = 2,
all zero below its order because the least index sum is 21.  Four closed
forms pin the pole Taylor data where its algebra is least typical: N = 105,
k = 1, Q = x^24, where Phi_105 has a coefficient -2 and the cofactor
(x^105 - 1)/Phi_105 has degree 57; N = 30, k = 4, Q = x^16, a fourth pole
order at a composite level; N = 2, k = 16, Q = x^4 + x^12, the rational pole
at a high order; and N = 9, k = 5 with the non-integral numerator 3/7*x^15.
The N = 3, k = 100 closed form with Q = x^100 pins the pole data and weight
coefficients at weight 100, the largest single k.  Two more closed forms pin
the weight coefficients at phi(N) = 4: N = 12, k = 20 with the rational
numerator 1/3*x^20 + x^40 + 1/3*x^60, and N = 5, k = 30 with x^60.  The
N = 3, k = 8, t = 12 verify pins the isobaric closed form built from single
sums up to weight k t = 96.  The sweep at --max-N 10000, --max-k 100 and degree bound 1 pins
the empty report at the caps, where phi(N) k > 1 for every N and k.
Two runs pin numerators that the parser must bring to lowest terms: the
N = 4, k = 2 expand with 2/4*x + x^3 - x^3 + 3*x^2 - 6/2*x^2 (a reducible
fraction, a cancelled top degree and a cancelled middle term, so Q = 1/2*x),
and the N = 8, k = 1 verify in text format with 2/4*x^2 + x^4 - x^4 +
1/2*x^2, which adds up to the admissible Q = x^2.
One CSV report, the weak t = 2 expand at N = 12 in CSV, pins the CSV bytes
themselves: the header, one `exponent,coefficient` row per exponent, and the
CRLF line ends.
The six help texts (`--help` and each command's `--help`) and four usage
errors (a bad int, an option the command lacks, a numerator that starts
with `-` after a space, and a missing required option) are pinned too, at
COLUMNS=80, the width argparse wraps them to: their stdout, or stderr and
exit code 2.  Three numerator syntax errors pin the error report that `main`
writes to stderr, with exit code 2: a JSON one whose unexpected character is
reported ahead of the grammar error before it, and two text ones, a missing
x after '*' and a zero denominator.
The recorded digests must only change when the report format is meant to
change.  The benchmark's own digests, `perfbench/digests.json`, are replayed
here too, so that a drift in a benchmark op's output fails the test suite
and not only the benchmark run.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from cyclomac import cli
from cyclomac.cli import main

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
    (["verify", "--N", "35", "--k", "1", "--Q", "x^12", "--order", "60",
      "--format", "json"],
     "2e99a2c6c9c1fac12f6ece5c3d2d4e7003809169729aca95649ec8e816a96a45"),
    (["closed-form", "--N", "35", "--k", "1", "--Q", "x^12", "--format",
      "text"],
     "7efb2a9e3ceadaa134deae5a4079c85152f2d4265a55d50867fd4c03a672903e"),
    (["expand", "--N", "7", "--k", "5", "--Q", "x - 1/3*x^4", "--t", "2",
      "--order", "80", "--format", "json"],
     "693db830bb2b8ad832e7d01c358d6fb80f6748a3e6c5116733567ad2a94c3105"),
    (["expand", "--N", "1", "--k", "3", "--Q", "1/2*x - 2/3*x^2", "--t", "3",
      "--weak", "--order", "60", "--format", "json"],
     "38de1947f164aa7562e906a21083ef5174ffaada2e078c161824fa60c9a76fa0"),
    (["expand", "--N", "1", "--k", "3", "--Q", "1/2*x - 2/3*x^2", "--t", "1",
      "--order", "60", "--format", "json"],
     "a1dee6309983dcfbf4d6aaad2928d3a8a76007417da6002b25c5ec9a40c509db"),
    (["expand", "--N", "2", "--k", "1", "--Q", "3/4*x + x^3", "--t", "4",
      "--order", "60", "--format", "json"],
     "9d88d2ccfcaf99e77d6e48e1b32c6c248d97c263017c2ace32475a089a7815de"),
    (["closed-form", "--N", "7", "--k", "2", "--Q",
      "1/3*x + 5/7*x^6 + 1/3*x^11", "--format", "json"],
     "16f80bbf079d07b968a88ba1146ed7b2abfb053d53606f6832920be6d423934c"),
    (["closed-form", "--N", "10", "--k", "3", "--Q", "2/9*x^6", "--format",
      "json"],
     "b1df3957287cea16b1d1758ce70f25499fec69b11b6ad116592ad6a69449b1ee"),
    (["verify", "--N", "12", "--k", "2", "--Q", "1/2*x^2 + 1/2*x^6", "--t",
      "2", "--order", "40", "--format", "json"],
     "6996d024a553ca89a665083249bf5768cf906feafbe93774efc1088587e9f36c"),
    (["closed-form", "--N", "105", "--k", "1", "--Q", "x^24", "--format",
      "json"],
     "dac563f5fcd010d7a0c9060a766867c899078f5db1a55d58458aa85488f1b5dc"),
    (["closed-form", "--N", "30", "--k", "4", "--Q", "x^16", "--format",
      "json"],
     "60f70bb0aebfc925824dd2e54173d9a9648db9f43975f34b0afbec22965ea56d"),
    (["closed-form", "--N", "2", "--k", "16", "--Q", "x^4 + x^12",
      "--format", "json"],
     "67032736d806d1459d740e17a445d52cb00bef05d2af5e5d4ee154f919e49ef2"),
    (["closed-form", "--N", "9", "--k", "5", "--Q", "3/7*x^15", "--format",
      "json"],
     "5d596f1165ae91b72d6bbfe916d28ecb4f0d42c22f5dc4e9589f03f8e4373861"),
    (["closed-form", "--N", "3", "--k", "100", "--Q", "x^100", "--format",
      "json"],
     "6806198ca438a6c68686257904bc7c25f5ba13bef7826301d46e9ed71b155c37"),
    (["closed-form", "--N", "12", "--k", "20", "--Q",
      "1/3*x^20 + x^40 + 1/3*x^60", "--format", "json"],
     "9a9e4b03ad3006f81019cf9cbaccf488ede8e265e21585ab51603232da427c04"),
    (["closed-form", "--N", "5", "--k", "30", "--Q", "x^60", "--format",
      "json"],
     "08e6a84f63c26cb60f125d1ec57b94d02774ccb0c2644de58b2d33dea5f82986"),
    (["sweep", "--max-N", "10000", "--max-k", "100", "--degree-bound", "1",
      "--order", "1", "--format", "json"],
     "39af3745ea4ceafec01431e0df5bd0b17512714636e9889e197794b22d3bfb80"),
    (["expand", "--N", "4", "--k", "2", "--Q",
      "2/4*x + x^3 - x^3 + 3*x^2 - 6/2*x^2", "--t", "2", "--order", "12",
      "--format", "json"],
     "1cff37feef2a45437c25dc7f71b33e9d2d2308162f25e913bea5add2ed24ee3f"),
    (["verify", "--N", "8", "--k", "1", "--Q",
      "2/4*x^2 + x^4 - x^4 + 1/2*x^2", "--t", "2", "--order", "20"],
     "4f9b748783ecd6447face6a0c96716ef14c9913f6ce4c30f4d499c9d6f8063f2"),
]

# Runs at t >= 4; their ids carry t, as N and k alone repeat the ids of
# earlier runs.
GOLDEN_NESTED = [
    (["verify", "--N", "6", "--k", "2", "--Q", "x + x^3", "--t", "5",
      "--order", "100", "--format", "json"],
     "146bc7b351c6f1f670418e7767dcce9b3391e657b2ce547104452ce3595ff4a9"),
    (["verify", "--N", "12", "--k", "2", "--Q", "1/2*x^2 + 1/2*x^6", "--t",
      "4", "--order", "30", "--format", "json"],
     "c98cb3c29de52820ea48f09e5ba80ce33e29ab9ac29433ba699dcd675d7220db"),
    (["verify", "--N", "1", "--k", "3", "--Q", "x - x^2", "--t", "6",
      "--order", "30", "--format", "json"],
     "99e1e13283c1a0f98fe54b23c0aaf278f3ee20338677eb9af3bde7bf5239c979"),
    (["expand", "--N", "3", "--k", "1", "--Q", "x", "--t", "20", "--weak",
      "--order", "100", "--format", "json"],
     "54b940ff00e4e0bfdb77a8dbfda211eb3cba231013ff7a50b955d99f3d555489"),
    (["expand", "--N", "3", "--k", "1", "--Q", "x", "--t", "20", "--order",
      "400", "--format", "json"],
     "f06a456e4cfd00af2821a04aa69dd35ce4cf838ac033b380eb35cee9efbc8676"),
    (["expand", "--N", "5", "--k", "3", "--Q", "-7/3*x - 1000*x^11", "--t",
      "4", "--order", "300", "--format", "json"],
     "8456eac0c215f2d0eb8498b8ffd901aa3b9248e3493d0845dd987cebd6ac04dd"),
    (["expand", "--N", "5", "--k", "3", "--Q", "-7/3*x - 1000*x^11", "--t",
      "4", "--weak", "--order", "300", "--format", "json"],
     "bd7f691ed48c929624532b6203fcb3e6acdb446f0f7453c970fe7526db8a338b"),
    (["expand", "--N", "2", "--k", "1", "--Q", "x", "--t", "6", "--order",
      "20", "--format", "json"],
     "24c0fde599ec44af9dcf3a659b8d4e535648da6d4036205221646bfc6a0afb66"),
    (["verify", "--N", "3", "--k", "8", "--Q", "x^8", "--t", "12", "--order",
      "30", "--format", "json"],
     "371012f5c7c01d63cbf2ce2222a222f7dbaf8392d35101ef78ebda8877e27b03"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN + GOLDEN_NESTED,
                         ids=[" ".join(argv[:5] + ["--weak"] * ("--weak" in argv))
                              for argv, _ in GOLDEN]
                         + [" ".join(argv[:5] + argv[7:9]
                                     + ["--weak"] * ("--weak" in argv))
                            for argv, _ in GOLDEN_NESTED])
def test_report_bytes_are_unchanged(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CSV_GOLDEN = (
    ["expand", "--N", "12", "--k", "3", "--Q", "1/2*x^2 - x", "--t", "2",
     "--weak", "--order", "50", "--format", "csv"],
    "355ed84ab97e5473e28d92f57ed57043ae5bd32f155c8420c1e71ca8b43d89ce")


def test_csv_report_bytes_are_unchanged(capsys):
    argv, digest = CSV_GOLDEN
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


BENCHMARK_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
    .read_text())["digests"]


@pytest.mark.parametrize("command", sorted(BENCHMARK_DIGESTS))
def test_benchmark_reports_match_their_recorded_digests(command, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == BENCHMARK_DIGESTS[command])


def test_warm_caches_print_the_recorded_bytes(capsys):
    # The package keeps per-process caches keyed by N, (N, k) and
    # (N, k, order).  Every report argv above and every benchmark argv runs
    # in this one process with those caches left warm, in order and then
    # reversed, so that a cache keyed by less than its value depends on
    # hands some run data built for another.
    runs = (GOLDEN + GOLDEN_NESTED + [CSV_GOLDEN]
            + [(shlex.split(command), digest)
               for command, digest in sorted(BENCHMARK_DIGESTS.items())])
    for argv, digest in runs + runs[::-1]:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_every_guarded_argv_takes_the_fast_parse():
    # Every benchmark argv and every argv above parses without argparse, to
    # the namespace argparse returns; only the two whose numerator starts
    # with '-' are left to argparse, as every such value is.
    argvs = ([argv for argv, _ in GOLDEN + GOLDEN_NESTED] + [CSV_GOLDEN[0]]
             + [shlex.split(command) for command in BENCHMARK_DIGESTS])
    declined = []
    for argv in argvs:
        fast = cli._fast_parse(argv)
        if fast is None:
            declined.append(argv)
        else:
            assert vars(fast) == vars(cli.build_parser().parse_args(argv))
    assert [argv[argv.index("--Q") + 1] for argv in declined] == [
        "-7/3*x - 1000*x^11"] * 2


HELP_GOLDEN = [
    (["--help"],
     "c96c64982153e80ab00b6ccd34cbd68c8f8f8ee1f43720e17df0820a3f88ca14"),
    (["expand", "--help"],
     "968fb3d72a3cc43fe32e95b081351c7b7aa8be728716a2fc1290a71af88a79da"),
    (["closed-form", "--help"],
     "620e5bfa6100530012bcae734ffecdfca63f08c8e94f5a183cad08d806e5fa0c"),
    (["verify", "--help"],
     "a6f206f510082f826ddcf28ebec4b963bb13dff6f4836e60eb0c82d57d87acd2"),
    (["examples", "--help"],
     "f9a57baaf7fe2fe87f9c57e38d696d3156e260726fbba4e1e8f0de0fa189b000"),
    (["sweep", "--help"],
     "4780b570d10c7f10c38d695aaca20087955a8933892b0cb64824ce113222babe"),
]


@pytest.mark.parametrize("argv, digest", HELP_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in HELP_GOLDEN])
def test_help_bytes_are_unchanged(argv, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


USAGE_ERROR_GOLDEN = [
    (["expand", "--N", "x", "--k", "1", "--Q", "x"],
     "85ecf317d29972b0e7c70a2e78118d0188333b7ef098b616a3dc4b2667d597dc"),
    (["verify", "--N", "3", "--k", "1", "--Q", "x", "--weak"],
     "6e4200685f173c70f9d4f99fe5ad01aa48213b2ae750829a4e7280cff5d687ee"),
    (["closed-form", "--N", "3", "--k", "1", "--Q", "-x"],
     "0ca64cfe8254a4fab76d57327af8211cf71b5be73bd996701b817a95c5d8867b"),
    (["expand", "--N", "3", "--k", "1"],
     "f7f314f7c2cc042ebf6eb8fe2d3341aae6720a6ea81389f834798d4352e30f98"),
]


@pytest.mark.parametrize("argv, digest", USAGE_ERROR_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERROR_GOLDEN])
def test_usage_error_bytes_are_unchanged(argv, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode()).hexdigest() == digest


SYNTAX_ERROR_GOLDEN = [
    (["expand", "--N", "3", "--k", "1", "--Q", "x^ + $", "--format", "json"],
     "653ea6ef35021a971179cb5702f5cb6fdd3026a2fc9ffa03b00f6bf9f3356aac"),
    (["closed-form", "--N", "5", "--k", "1", "--Q", "2 * 3"],
     "5236c3e1016d780bb2a0c8bbe95b2f7cc763eddf4e9f4ed4c52571af20198aaa"),
    (["verify", "--N", "3", "--k", "1", "--Q", "1/0*x"],
     "eeaaed6f338f41e3e576a2c45a375e3778f0e42ba5f872578ad1e4276086bd79"),
]


@pytest.mark.parametrize("argv, digest", SYNTAX_ERROR_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in SYNTAX_ERROR_GOLDEN])
def test_syntax_error_bytes_are_unchanged(argv, digest, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode()).hexdigest() == digest
