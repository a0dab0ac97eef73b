import json
import math
import os
import time
import tracemalloc

import pytest

from coklab import _fppoly as fp
from coklab import experiments, snf
from coklab.cli import main
from coklab.errors import ConfigError
from coklab.experiments import parse_config
from coklab.sampler import builtin_distribution


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "domain": "Z",
        "primes": [{"p": 2}],
        "u": 0,
        "n": [10],
        "trials": 300,
        "distribution": {"builtin": "bernoulli01", "params": {"q": 0.5}},
        "seed": 5,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_dist_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "report")
    assert main(["dist", "--config", cfg, "--out", out, "--format", "csv,json"]) == 0
    captured = capsys.readouterr()
    assert "TV distance" in captured.out
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "report.svg").exists()


def test_dist_svg_emission(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "r2")
    assert main(["dist", "--config", cfg, "--out", out, "--format", "svg"]) == 0
    assert (tmp_path / "r2.svg").exists()


def test_moments_command(tmp_path, capsys):
    cfg = write_config(tmp_path, targets=["2:(1)", "∅"])
    assert main(["moments", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "estimate" in out and "2:(1)" in out


def test_galois_command(tmp_path, capsys):
    # n is kept moderate: tiny 0/1 matrices are often singular over Q, which
    # legitimately lands trials in the indeterminate bucket
    cfg = write_config(tmp_path, domain="Z[i]", primes=[{"p": 5, "index": 0}],
                       distribution={"support": ["0", "1"], "weights": [0.5, 0.5]},
                       n=[16], trials=200)
    assert main(["galois", "--config", cfg, "--no-strict-balance"]) == 0
    out = capsys.readouterr().out
    assert "equal in fraction 1.000000" in out


def test_audit_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["audit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "overall epsilon: 1/2" in out


def test_predict_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["predict", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "0.28878809" in out
    assert "partial sum" in out


def test_predict_lists_at_most_its_type_budget(tmp_path, capsys):
    # 70 types per prime within caps (4, 4): 4900 at two primes are listed,
    # 343000 at three are refused before any is built.
    cfg = write_config(tmp_path, primes=[{"p": 2}, {"p": 3}])
    assert main(["predict", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4900 + 3
    cfg = write_config(tmp_path, primes=[{"p": 2}, {"p": 3}, {"p": 5}])
    start = time.perf_counter()
    assert main(["predict", "--config", cfg]) == 2
    assert time.perf_counter() - start < 5
    assert "predict would list 343000 types" in capsys.readouterr().err


def test_audit_out_creates_its_directory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "new" / "audit"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((tmp_path / "new" / "audit.json").read_text())["overall"] == "1/2"


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["dist", "--config", str(bad)]) == 2
    assert main(["dist", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = write_config(tmp_path, "bad2.json", domain="Q")
    assert main(["dist", "--config", cfg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.write_text("[1, 2]", encoding="utf-8"), "must be a JSON object, not list"),
    (lambda path: path.write_bytes(b'{"domain": "\xff"}'), "not valid UTF-8 JSON"),
    (lambda path: path.mkdir(), "Is a directory"),
], ids=["not-an-object", "not-utf-8", "directory"])
def test_exit_code_2_on_an_unreadable_config(tmp_path, capsys, make, reason):
    # A config that is no JSON object, not UTF-8 or not a file is a config
    # error (exit 2 with a message), not a traceback.
    path = tmp_path / "cfg.json"
    make(path)
    assert main(["dist", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and reason in err


@pytest.mark.parametrize("overrides", [
    {"primes": [{"p": 2 ** 61 - 1}]},
    {"domain": "Z[i]", "primes": [{"generator": "2097164+i"}],
     "distribution": {"builtin": "gaussian-basis"}},
    {"domain": "Fp[x]", "char": 2 ** 61 - 1, "primes": [{"generator": "0,1"}]},
], ids=["z-prime", "gaussian-norm", "poly-char"])
def test_exit_code_2_past_the_factoring_limit(tmp_path, capsys, overrides):
    # Trial division refuses an integer that needs more than 2^20 divisors on
    # every path that reaches it: a rational prime selector, a Gaussian
    # generator's norm (the prime 4398096842897, above 2^40) and a polynomial
    # characteristic.
    cfg = write_config(tmp_path, **overrides)
    start = time.perf_counter()
    assert main(["dist", "--config", cfg]) == 2
    assert time.perf_counter() - start < 5
    assert "too large to factor" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"domain": "Z[i]", "primes": [{"p": 101, "index": 0}, {"p": 103}, {"p": 107}],
     "distribution": {"builtin": "gaussian-basis"}},
    {"primes": [{"p": p} for p in (101, 103, 107, 109, 113, 127)]},
], ids=["gaussian", "integers"])
def test_audit_moduli_past_2_40_of_small_primes(tmp_path, capsys, overrides):
    # Audit moduli above 2^40 are never factored: the audit takes the ideals
    # at each configured prime, here 101 * 103 * 107 over Z[i] and
    # 101 * 103 * ... * 127 over Z.
    cfg = write_config(tmp_path, **overrides)
    assert main(["audit", "--config", cfg]) == 0
    assert "overall epsilon:" in capsys.readouterr().out


# irreducibles over F_2 of degrees 16 and 20, lowest coefficient first
_F2_DEG16 = "1,1,0,1,0,1" + ",0" * 10 + ",1"
_F2_DEG20 = "1,0,0,1" + ",0" * 16 + ",1"


def _f2x_config(tmp_path, *generators):
    return write_config(tmp_path, domain="Fp[x]", char=2,
                        primes=[{"generator": g} for g in generators],
                        distribution={"builtin": "poly-powers", "params": {"p": 2, "m": 3}})


def test_audit_of_a_degree_16_function_field_prime(tmp_path, capsys):
    # The audit scans the 65535 hyperplane directions of the prime against
    # four entries, 262140 pairs. The entries 1, x, x^2, x^3 span a
    # hyperplane of F_2^16, so epsilon is 0 and strict balance is off.
    cfg = _f2x_config(tmp_path, _F2_DEG16)
    start = time.perf_counter()
    assert main(["audit", "--config", cfg, "--no-strict-balance"]) == 0
    assert time.perf_counter() - start < 5
    assert "overall epsilon: 0" in capsys.readouterr().out


def test_exit_code_2_past_the_polynomial_factoring_budget(tmp_path, capsys):
    # No polynomial is factored: the degree-20 prime alone has 1048575
    # hyperplane directions, past the audit budget at four entries.
    cfg = _f2x_config(tmp_path, _F2_DEG16, _F2_DEG20)
    start = time.perf_counter()
    assert main(["audit", "--config", cfg]) == 2
    assert time.perf_counter() - start < 5
    assert ("1048575 hyperplane directions against 4 support elements, 4194300 pairs, "
            "over its budget of 1000000") in capsys.readouterr().err


@pytest.mark.parametrize("generator,m,message", [
    # the degree-16 prime passes at four entries (262140 pairs) but not at
    # the 41 entries 1, x, ..., x^40: each direction counts once per entry
    (_F2_DEG16, 40, "2686935 pairs, over its budget of 1000000"),
    # x^532+x+1 brings 2^532 - 1 directions, counted from its degree before
    # its irreducibility test, which alone takes seconds
    ("1,1" + ",0" * 530 + ",1", 3, f"{2 ** 532 - 1} hyperplane directions"),
], ids=["pairs", "before-rabin"])
def test_exit_code_2_at_once_past_the_audit_budget(tmp_path, capsys, generator, m, message):
    cfg = write_config(tmp_path, domain="Fp[x]", char=2, primes=[{"generator": generator}],
                       distribution={"builtin": "poly-powers", "params": {"p": 2, "m": m}})
    start = time.perf_counter()
    assert main(["audit", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1
    assert message in capsys.readouterr().err


def test_exit_code_2_at_once_past_the_audit_budget_of_many_primes(tmp_path, capsys):
    # 40 irreducibles of degrees 1 to 7 pass one by one, but the products of
    # their 2^40 - 1 nonempty sets bring prod (1 + 2^deg g) - 2^40 directions,
    # counted before any product is built.
    gens = [g for d in range(1, 8) for g in fp.monic_polys(2, d) if fp.is_irreducible(g, 2)][:40]
    cfg = write_config(tmp_path, domain="Fp[x]", char=2,
                       primes=[{"generator": ",".join(map(str, g))} for g in gens],
                       distribution={"builtin": "poly-powers", "params": {"p": 2, "m": 1}})
    start = time.perf_counter()
    assert main(["audit", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1
    directions = math.prod(1 + 2 ** fp.degree(g) for g in gens) - 2 ** 40
    assert (f"{directions} hyperplane directions against 2 support elements, {2 * directions} "
            "pairs, over its budget of 1000000") in capsys.readouterr().err


@pytest.mark.parametrize("index", [{"index": 0}, {}], ids=["one-half", "both-halves"])
def test_exit_code_2_at_once_on_a_huge_split_gaussian_prime(tmp_path, capsys, index):
    # (p) of the split prime p = 1099511627689 brings p + 1 directions,
    # counted before p is factored, which alone takes about a second.
    cfg = write_config(tmp_path, domain="Z[i]", primes=[{"p": 1099511627689, **index}],
                       distribution={"builtin": "gaussian-basis"})
    start = time.perf_counter()
    assert main(["dist", "--config", cfg]) == 2
    assert time.perf_counter() - start < 0.1
    assert "1099511627690 hyperplane directions" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["k_init", "growth"])
def test_exit_code_2_on_a_precision_setting_other_than_k_max(tmp_path, capsys, key):
    cfg = write_config(tmp_path, precision={key: 2})
    assert main(["dist", "--config", cfg]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", ["type_caps", "output"])
def test_exit_code_2_on_a_section_that_is_not_a_mapping(tmp_path, capsys, key):
    cfg = write_config(tmp_path, **{key: 5})
    assert main(["dist", "--config", cfg]) == 2
    assert f"{key} must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"n": "16"}, "n must be an integer, not str '16'"),
    ({"trials": 2.5}, "trials must be an integer, not float 2.5"),
    ({"trials": True}, "trials must be an integer, not bool True"),
    ({"precision": {"k_max": True}}, "k_max must be an integer, not bool True"),
    ({"seed": 2 ** 64}, "seed must be in [0, 2^64), got 18446744073709551616"),
    ({"seed": -1}, "seed must be in [0, 2^64), got -1"),
], ids=["n-string", "trials-float", "trials-bool", "k_max-bool", "seed-2^64", "seed-negative"])
def test_exit_code_2_on_an_integer_field_given_otherwise(tmp_path, capsys, overrides, message):
    # A string n would run n = 1 and 6, a float trials its integer part,
    # and a seed outside 64 bits the tally of another seed.
    cfg = write_config(tmp_path, **overrides)
    assert main(["dist", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


_POLY = {"domain": "Fp[x]", "primes": [{"generator": "0,1"}]}


@pytest.mark.parametrize("overrides, message", [
    ({"primes": [{"p": 2.9}]}, "p must be an integer, not float 2.9"),
    ({"domain": "Z[i]", "primes": [{"p": 5, "index": 0.7}]},
     "index must be an integer, not float 0.7"),
    ({**_POLY, "char": 2.7, "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": 3}}},
     "char must be an integer, not float 2.7"),
    ({**_POLY, "char": 2, "distribution": {"builtin": "poly-powers", "params": {"p": 2.0, "m": 3}}},
     "poly-powers needs an integer prime p"),
    ({**_POLY, "char": 2, "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": True}}},
     "not p=2, m=True"),
    ({"strict_balance": "false"}, "strict_balance must be true or false, not 'false'"),
    ({"targets": "2:(1)"}, "targets must be a list of type strings, not '2:(1)'"),
    ({"precision": [["k_max", 4]]}, "precision must be a mapping, not list"),
], ids=["p-float", "index-float", "char-float", "poly-p-float", "poly-m-bool",
        "strict_balance-string", "targets-string", "precision-list"])
def test_exit_code_2_on_a_field_of_the_wrong_kind(tmp_path, capsys, overrides, message):
    # Each was converted before: p = 2.9 selected 2, index 0.7 selected 0,
    # char 2.7 gave F_2[x], poly-powers p = 2.0 built F_2.0[x] and m = True
    # ran m = 1, "false" read as true, a target string was split into
    # characters, and a list of pairs was read as a precision mapping.
    cfg = write_config(tmp_path, **overrides)
    assert main(["moments", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_exit_code_2_at_once_on_a_moment_target_past_its_budget(tmp_path, capsys):
    # A target of 13 parts at 2 would sum over 2^13 pivot sets for each
    # observed type of 13 parts or more; 12 parts run, and estimate 0 at
    # once for the types of fewer parts, which no map covers.
    cfg = write_config(tmp_path, n=[24], targets=["2:(" + ",".join(["1"] * 13) + ")"])
    start = time.perf_counter()
    assert main(["moments", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1
    assert "has 13 parts at (2), over the budget of 12" in capsys.readouterr().err
    cfg = write_config(tmp_path, n=[24], targets=["2:(" + ",".join(["1"] * 12) + ")"])
    assert main(["moments", "--config", cfg]) == 0


@pytest.mark.parametrize("overrides, message", [
    ({"n": [100000]}, "100000 x 100000 matrices at residue degree 1 have 10000000000 kernel entries"),
    ({"n": [4], "u": 10 ** 9, "type_caps": {"exponent": 0, "parts": 0}},
     "4 x 1000000004 matrices at residue degree 1 have 4000000016 kernel entries"),
    ({"n": [257], "domain": "Z[i]", "primes": [{"p": 3}]},
     "257 x 257 matrices at residue degree 2 have 264196 kernel entries"),
], ids=["n-1e5", "u-1e9", "inert-n-257"])
def test_exit_code_2_on_a_matrix_past_the_shape_budget(tmp_path, capsys, monkeypatch, overrides,
                                                        message):
    # Each run died in the sub-batch allocation with an uncaught memory
    # error under a 3 GB address-space limit. The config is refused before
    # any trial runs or any array is allocated: a run that started would
    # fail here, and the refusal allocates under 1 MB.
    monkeypatch.setattr(experiments, "_run_trials", lambda *args: pytest.fail("a trial ran"))
    cfg = write_config(tmp_path, **overrides)
    tracemalloc.start()
    try:
        assert main(["dist", "--config", cfg]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message in capsys.readouterr().err and peak < 1 << 20


def test_the_largest_matrix_in_the_shape_budget_is_accepted():
    # 512 x 512 at f = 1 and 256 x 256 blocks of 2 x 2 at the inert (3) fill
    # the budget of 2^18 entries, and parse.
    parse_config({"domain": "Z", "primes": [{"p": 2}], "n": [512],
                  "distribution": {"builtin": "bernoulli01", "params": {"q": 0.5}}})
    parse_config({"domain": "Z[i]", "primes": [{"p": 3}], "n": [256],
                  "distribution": {"builtin": "gaussian-basis"}})


@pytest.mark.parametrize("distribution, weight", [
    ('{"builtin": "bernoulli01", "params": {"q": Infinity}}', "inf"),
    ('{"support": ["0", "1"], "weights": [Infinity, 0.5]}', "inf"),
    ('{"support": ["0", "1"], "weights": [1e400, 0.5]}', "inf"),
    ('{"builtin": "bernoulli01", "params": {"q": "1/0"}}', "'1/0'"),
    ('{"support": ["0", "1"], "weights": ["1/2", "1/0"]}', "'1/0'"),
    ('{"support": ["0", "1"], "weights": [NaN, 0.5]}', "nan"),
], ids=["q-infinity", "weight-infinity", "weight-1e400", "q-1-over-0", "weight-1-over-0",
        "weight-nan"])
def test_exit_code_2_on_a_weight_that_is_not_a_finite_rational(tmp_path, capsys, distribution,
                                                                weight):
    # JSON as Python reads it takes Infinity and NaN, and 1e400 is read as
    # inf. The infinite weights and "1/0" raised out of the command with
    # exit 1, and NaN was refused only as a float that is not an integer.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "Z", "primes": [{"p": 2}], "n": [4], "trials": 10,
                               "distribution": "DIST"}).replace('"DIST"', distribution))
    assert main(["dist", "--config", str(cfg)]) == 2
    assert f"weight {weight} is not a finite rational number" in capsys.readouterr().err


def test_exit_code_2_at_once_on_a_poly_powers_top_power_past_its_budget(tmp_path, capsys):
    # m + 1 powers of x, of up to m + 1 coefficients each, were built for
    # any m: m = 2000 ran for 32 s and m = 30000 ran out of memory. m is
    # refused before any power is built; the budget itself is accepted.
    cfg = write_config(tmp_path, domain="Fp[x]", char=2, primes=[{"generator": "1,1,1"}],
                       distribution={"builtin": "poly-powers", "params": {"p": 2, "m": 10 ** 9}})
    start = time.perf_counter()
    assert main(["audit", "--config", cfg]) == 2
    assert time.perf_counter() - start < 0.1
    assert "poly-powers top power m=1000000000 is over its budget of 500" in capsys.readouterr().err
    assert len(builtin_distribution("poly-powers", {"p": 2, "m": 500}).support) == 501


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_exit_code_2_on_a_seed_override_outside_64_bits(tmp_path, capsys, seed):
    # --seed is held to the config's range; the largest seed in it runs.
    cfg = write_config(tmp_path)
    assert main(["dist", "--config", cfg, "--seed", str(seed)]) == 2
    assert f"seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert main(["dist", "--config", cfg, "--seed", str(2 ** 64 - 1)]) == 0


def test_exit_code_2_on_caps_over_the_box_sum_budget(tmp_path, capsys):
    # Caps of (80, 80) would keep the exact box sum busy for minutes; they
    # are refused before it runs.
    cfg = write_config(tmp_path, type_caps={"exponent": 80, "parts": 80})
    start = time.perf_counter()
    assert main(["predict", "--config", cfg]) == 2
    assert time.perf_counter() - start < 5
    assert "type caps (80, 80)" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_exit_code_2_on_threads_below_one(tmp_path, capsys, threads):
    cfg = write_config(tmp_path)
    assert main(["dist", "--config", cfg, "--threads", threads]) == 2
    assert "config error: --threads must be at least 1" in capsys.readouterr().err


def test_exit_code_2_at_once_on_threads_past_the_worker_limit(tmp_path, capsys, monkeypatch):
    # 300 trials run as five sub-batches of 60, so a huge --threads would
    # fork four workers; it is refused before any is forked, also through
    # the runner's threads argument, which is refused below 1 too.
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(snf, "_BATCH_BYTES", 1)
    cfg = write_config(tmp_path)
    start = time.perf_counter()
    assert main(["dist", "--config", cfg, "--threads", str(10 ** 9)]) == 2
    assert time.perf_counter() - start < 1
    assert (f"config error: --threads must be from 1 to {experiments._MAX_WORKERS}, "
            "got 1000000000") in capsys.readouterr().err
    for threads in (10 ** 9, 0):
        with pytest.raises(ConfigError, match=f"from 1 to 64, got {threads}$"):
            experiments.run_distribution_experiment(experiments.load_config(cfg), threads=threads)


def test_exit_code_2_on_threads_without_fork(tmp_path, capsys, monkeypatch):
    # Without os.fork (Windows) more than one worker is refused, not run serially.
    monkeypatch.delattr(os, "fork")
    cfg = write_config(tmp_path)
    assert main(["dist", "--config", cfg, "--threads", "2"]) == 2
    assert "config error: --threads above 1 needs os.fork" in capsys.readouterr().err
    assert main(["dist", "--config", cfg]) == 0


@pytest.mark.parametrize("command", ["dist", "audit"])
def test_exit_code_2_past_the_audit_budget(tmp_path, capsys, command):
    # The inert prime 524287 of Z[i] brings the rank-2 ideal (524287) into the
    # audit: 524288 hyperplane directions against 3 entries, past the budget
    # of 1000000 pairs. They are counted, not walked.
    cfg = write_config(tmp_path, domain="Z[i]", primes=[{"p": 524287}],
                       distribution={"builtin": "gaussian-basis"})
    start = time.perf_counter()
    assert main([command, "--config", cfg]) == 2
    assert time.perf_counter() - start < 5
    assert ("524288 hyperplane directions against 3 support elements, 1572864 pairs, "
            "over its budget of 1000000") in capsys.readouterr().err


def test_audit_of_a_prime_near_the_factoring_limit(tmp_path, capsys):
    # Z at p = 1099511627689 has one hyperplane direction; the audit builds
    # only that one instead of walking all p residues.
    cfg = write_config(tmp_path, primes=[{"p": 1099511627689}])
    start = time.perf_counter()
    assert main(["audit", "--config", cfg]) == 0
    assert time.perf_counter() - start < 5
    assert "overall epsilon: 1/2" in capsys.readouterr().out


def test_audit_of_two_primes_near_2_31(tmp_path, capsys):
    # Z at 2^31 - 1 and 2^31 - 19: one ideal each, never their product
    cfg = write_config(tmp_path, primes=[{"p": 2 ** 31 - 1}, {"p": 2 ** 31 - 19}])
    start = time.perf_counter()
    assert main(["audit", "--config", cfg]) == 0
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    assert f"balance audit modulo {(2 ** 31 - 1) * (2 ** 31 - 19)}:" in out
    assert "overall epsilon: 1/2" in out


def test_exit_code_3_on_strict_balance_violation(tmp_path, capsys):
    cfg = write_config(tmp_path, domain="Z[i]", primes=[{"p": 5, "index": 0}],
                       distribution={"support": ["0", "1"], "weights": [0.5, 0.5]},
                       n=[16], trials=100)
    assert main(["dist", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "balance violation: entry distribution is not balanced: epsilon = 0 at ideal (5)" in err
    # audit prints its report first, then fails with the same message
    assert main(["audit", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "overall epsilon: 0" in captured.out and captured.err == err
    # the same config passes with strict balance disabled
    assert main(["dist", "--config", cfg, "--no-strict-balance"]) == 0


def test_exit_code_4_on_degenerate_distribution(tmp_path, capsys):
    cfg = write_config(tmp_path, distribution={"support": ["0"], "weights": [1]},
                       n=[4], trials=40, strict_balance=False)
    assert main(["dist", "--config", cfg]) == 4
    assert "diagnostics failure" in capsys.readouterr().err


def test_exit_code_5_on_unwritable_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["dist", "--config", cfg, "--out", "/proc/coklab/forbidden"]) == 5
    capsys.readouterr()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for seed, name in [(5, "a"), (5, "b"), (9, "c")]:
        out = str(tmp_path / name)
        assert main(["dist", "--config", cfg, "--seed", str(seed),
                     "--out", out, "--format", "csv"]) == 0
        outs.append((tmp_path / f"{name}.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_threads_flag_preserves_bytes(tmp_path):
    cfg = write_config(tmp_path, trials=400)
    blobs = []
    for threads, name in [(1, "t1"), (2, "t2")]:
        out = str(tmp_path / name)
        assert main(["dist", "--config", cfg, "--threads", str(threads),
                     "--out", out, "--format", "csv,json"]) == 0
        blobs.append(((tmp_path / f"{name}.csv").read_bytes(),
                      (tmp_path / f"{name}.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_overrides_are_echoed_in_the_config_block(tmp_path):
    # --seed and --no-strict-balance on a seed-4 config write the report of
    # a config that says seed 9 and strict_balance false, byte for byte, so
    # the echoed config reruns the run; --out and --format leave it as read.
    overridden = write_config(tmp_path, "a.json", seed=4)
    written = write_config(tmp_path, "b.json", seed=9, strict_balance=False)
    assert main(["dist", "--config", overridden, "--seed", "9", "--no-strict-balance",
                 "--out", str(tmp_path / "a"), "--format", "json"]) == 0
    assert main(["dist", "--config", written, "--out", str(tmp_path / "b"),
                 "--format", "json"]) == 0
    report = (tmp_path / "a.json").read_bytes()
    assert report == (tmp_path / "b.json").read_bytes()
    echo = json.loads(report)["config"]
    assert (echo["seed"], echo["strict_balance"]) == (9, False) and "output" not in echo
