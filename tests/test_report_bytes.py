"""Report bytes pinned by SHA-256 for all three runners.

The run set reaches what the benchmark's golden digests do not: two sizes
per run, two primes with u=1, caps tight enough that the "other" bucket
fills, F_2[x] moments with the trivial target, the Galois demo from one
split prime and from a conjugate pair, and SVG output. A change to the
report code that alters a single byte of CSV, JSON or SVG fails here.
"""

import hashlib

import pytest

from coklab.experiments import (
    emit_report,
    parse_config,
    run_distribution_experiment,
    run_galois_demo,
    run_moment_experiment,
)

_Z = {"domain": "Z", "primes": [{"p": 2}, {"p": 3}], "u": 1, "n": [4, 9], "trials": 200,
      "distribution": {"builtin": "bernoulli01", "params": {"q": 0.5}},
      "type_caps": {"exponent": 2, "parts": 1}}
_FX = {"domain": "Fp[x]", "char": 2, "primes": [{"generator": "0,1"}], "u": 0, "n": [3, 8],
       "trials": 200, "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": 3}},
       "type_caps": {"exponent": 2, "parts": 1}, "targets": ["x:(1)", "∅"]}
_ZI = {"domain": "Z[i]", "u": 0, "n": [4, 8], "trials": 200,
       "distribution": {"builtin": "gaussian-basis"}}

_RUNS = {
    "z-dist": (run_distribution_experiment, _Z),
    "z-moments": (run_moment_experiment, {**_Z, "targets": ["2:(1)", "2:(1)|3:(1)"]}),
    "fx-dist": (run_distribution_experiment, _FX),
    "fx-moments": (run_moment_experiment, _FX),
    "galois-split": (run_galois_demo, {**_ZI, "primes": [{"p": 5, "index": 0}]}),
    "galois-pair": (run_galois_demo,
                    {**_ZI, "primes": [{"generator": "2-i"}, {"generator": "2+i"}]}),
}

# (csv, json, svg) SHA-256 per run and seed; a new digest needs a reason the bytes changed
_DIGESTS = {
    ("z-dist", 1): (
        "bf06452dd94fe3fe58da5a8c3b3e39363205654d685a3e9f9a6d5d221cbb600b",
        "2f5495c28337130c0a809c720f6b1152ebd21c6012bb646f8c8051ab5880c954",
        "f0d9ab9dab3ba7acd33ccc0f5f1b3b3eb4e79be0eebf5e0e9d4d45679a0a7f35",
    ),
    ("z-dist", 2): (
        "46a51bead4fb67a9c46635162e64c8144701313545840be8e37ea7cd3e4b07b4",
        "d053cb69d84d007b93d5133b769bf8161d7c7843b31fada47c005ec7948be3a0",
        "23060feb903507f70fb1df52670606309511e1591d3a4035ce461affb089ff56",
    ),
    ("z-moments", 1): (
        "6edb53f78482bcbacad96a946e375d75fd82d827d9db937d2d5d43800f1cd937",
        "59185eedd186eba671eb973a4b3a5ce286efc6f731a8ec1f0a23d09c2f3678ac",
        "32a4e2912a73570e02e4d4f1523eb0e9b94cf1c7c3fe8abadc3d5f5a28c7f064",
    ),
    ("z-moments", 2): (
        "10aa25a30b6b69575d34ff2444f664bcb660807c285c64fd25eec55f8c67e55e",
        "54ba97ad45ca7583e5a8dd68946f1573579fbc4cc57de8e80b4cef50e959105f",
        "768a215d94ac7d6f8a162931b8aa76bd2ed6a7e5e7a53a710b1f9b902f0b01bf",
    ),
    ("fx-dist", 1): (
        "586a80ff7fec2dd6cf258f57509e165692f92b8d4fcdbdbeaa6df642cc489b4b",
        "9c5d10d7309892626fcc46dfc46a0ebcb7b0f41fc673f70c2264d976586e56f4",
        "a515f278663bc24f48a9efaf2023913638634f223c22b31b648b3923fa65421c",
    ),
    ("fx-dist", 2): (
        "92c6e429cca2ce1a6b9a290168d6b456ba0c10d46ecf6427296bc86ef15114ab",
        "1e37d9d976f59c4e92a566530d566437c675ab70980d2e20a97a570f706e1660",
        "2de1ac1daa4d1641fd53ecab757a8c0b0b478f68e55f3d20db8538740086e3b0",
    ),
    ("fx-moments", 1): (
        "18c597a5384ba89a6f0e44971b3ecc2904b6f99560d7044b7b0e17b4ee7debe1",
        "558d7cf41dd910bee3777639fcbd7470f3c5eb5e57a601540f17b4e6821c867f",
        "afb1e63fa427a4101b333c2c87d7bc5205821a5c9cdc37bc2f26aa68a5f7d489",
    ),
    ("fx-moments", 2): (
        "9f3d162a052ef93ce4bff1748b3954b8698ab6d91e424622e6387f7a530b559c",
        "d7d1bb3d3b935e38ddd2654e47cee10513ece0a4539dbee1ad745ce20dfddcc8",
        "e6139cc60efc8f39b6f157f21857a33ffd23a2981d5ab0ab8bee2a7a4d251e2c",
    ),
    ("galois-split", 1): (
        "8dcb888a7ea2e7824af9dd04f9e291e9832d60cbb7aec0cd13a8abc88700af92",
        "da31c6449d52cc11936aaaefbc92c5252b80e76ec49ff6903073c485f95d7eda",
        "da34888d365919a3b1c78e00e8b5d089fe931cae0bd58ea8e38b41a62ededf07",
    ),
    ("galois-split", 2): (
        "c3116252bf3ceedae622e560173faea3926ffe358b3335093458eb6ab0743929",
        "cc38034b89dfcdb40100b76a851b87ffbcb00cddc76924855ee73eb4d9072fef",
        "33510ec8eaecc6b7908f2ce8c6f25d69b4d6f7492fd818f1b7e7f8f6a9ac46ed",
    ),
    ("galois-pair", 1): (
        "8dcb888a7ea2e7824af9dd04f9e291e9832d60cbb7aec0cd13a8abc88700af92",
        "926b7be893dbf6b67f7ee5231851837c295197d71b5af66e690ef7db3ca83d76",
        "da34888d365919a3b1c78e00e8b5d089fe931cae0bd58ea8e38b41a62ededf07",
    ),
    ("galois-pair", 2): (
        "c3116252bf3ceedae622e560173faea3926ffe358b3335093458eb6ab0743929",
        "b451edc82b8c5f7549fd3b91222165bb29e705266ca1fe3af5a460f976f0c132",
        "33510ec8eaecc6b7908f2ce8c6f25d69b4d6f7492fd818f1b7e7f8f6a9ac46ed",
    ),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(_RUNS))
def test_report_bytes_pinned(tmp_path, name, seed):
    runner, data = _RUNS[name]
    summary = runner(parse_config({**data, "seed": seed}))
    paths = emit_report(summary, ("csv", "json", "svg"), str(tmp_path / "r"))
    got = tuple(hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths)
    assert got == _DIGESTS[name, seed]
