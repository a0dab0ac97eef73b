import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from coklab import experiments
from coklab.cli import main
from coklab.domains import ZZ, poly_domain
from coklab.errors import (
    BalanceError,
    ConfigError,
    DiagnosticsError,
    IndeterminateCokernelError,
    ParameterError,
)
from coklab.experiments import (
    INDETERMINATE,
    _run_trials,
    emit_report,
    parse_config,
    run_balance_gate,
    run_distribution_experiment,
    run_galois_demo,
    run_moment_experiment,
)
from coklab.sampler import sample_index_matrix
from coklab import snf
from coklab.snf import PrecisionPolicy, batch_trials, cokernel_type


def base_config(**overrides):
    data = {
        "domain": "Z",
        "primes": [{"p": 2}],
        "u": 0,
        "n": [12],
        "trials": 400,
        "distribution": {"builtin": "bernoulli01", "params": {"q": 0.5}},
        "seed": 5,
    }
    data.update(overrides)
    return data


def test_parse_config_happy_path():
    cfg = parse_config(base_config())
    assert cfg.domain == ZZ
    assert cfg.primes[0].p == 2
    assert cfg.n_list == (12,)
    assert cfg.policy == PrecisionPolicy(64)
    assert cfg.cap_exponent == 6 and cfg.cap_parts == 6
    assert cfg.strict_balance


@pytest.mark.parametrize("patch", [
    {"domain": "Q"},
    {"primes": []},
    {"primes": [{"p": 6}]},
    {"primes": [{"p": 5, "index": 3}], "domain": "Z[i]"},
    {"primes": [{"generator": "4"}]},
    {"u": -1},
    {"n": [12, 12]},
    {"n": []},
    {"trials": 0},
    {"distribution": {"builtin": "nope"}},
    {"distribution": {}},
    {"output": {"formats": ["pdf"]}},
    {"type_caps": {"exponent": -1}},
    {"type_caps": 5},
    {"output": 5},
    {"n": "16"},
    {"n": ["16"]},
    {"n": 12.0},
    {"n": True},
    {"u": "1"},
    {"u": 1.0},
    {"trials": 2.5},
    {"trials": True},
    {"trials": "400"},
    {"seed": "5"},
    {"seed": 5.0},
    {"seed": False},
    {"seed": 2 ** 64},
    {"seed": -1},
    {"precision": {"k_max": True}},
    {"precision": {"k_max": 8.0}},
    {"type_caps": {"exponent": "6"}},
    {"type_caps": {"parts": 6.5}},
    {"type_caps": {"parts": False}},
    {"primes": [{"p": 2.9}]},
    {"primes": [{"p": True}]},
    {"primes": [{"p": "2"}]},
    {"primes": [{"p": 5, "index": 0.7}], "domain": "Z[i]"},
    {"primes": [{"p": 5, "index": False}], "domain": "Z[i]"},
    {"domain": "Fp[x]", "char": 2.7, "primes": [{"generator": "0,1"}],
     "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": 3}}},
    {"domain": "Fp[x]", "char": "2", "primes": [{"generator": "0,1"}],
     "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": 3}}},
    {"domain": "Fp[x]", "char": 2, "primes": [{"generator": "0,1"}],
     "distribution": {"builtin": "poly-powers", "params": {"p": 2.0, "m": 3}}},
    {"domain": "Fp[x]", "char": 2, "primes": [{"generator": "0,1"}],
     "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": True}}},
    {"domain": "Fp[x]", "char": 2, "primes": [{"generator": "0,1"}],
     "distribution": {"builtin": "poly-powers", "params": {"p": 2, "m": 3.0}}},
    {"strict_balance": "false"},
    {"strict_balance": "no"},
    {"strict_balance": 0},
    {"targets": "2:(1)"},
    {"targets": [5]},
    {"precision": [["k_max", 4]]},
])
def test_parse_config_rejects(patch):
    with pytest.raises(ConfigError):
        parse_config(base_config(**patch))


@pytest.mark.parametrize("key", ["k_init", "growth"])
def test_parse_config_reads_only_k_max(key):
    # k_max is the only precision setting: the ladder's start and step are
    # fixed, and a config that sets either is refused by name.
    assert parse_config(base_config(precision={"k_max": 4})).policy == PrecisionPolicy(4)
    with pytest.raises(ConfigError, match=key):
        parse_config(base_config(precision={key: 2, "k_max": 4}))
    with pytest.raises(ConfigError, match="bad precision policy"):
        parse_config(base_config(precision={"k_max": 0}))


def test_parse_gaussian_generator_selector():
    cfg = parse_config(base_config(domain="Z[i]", primes=[{"generator": "2-i"}],
                                   distribution={"builtin": "gaussian-basis"}))
    assert [pr.descriptor for pr in cfg.primes] == ["2-i"]
    # a unit multiple selects the same ideal: -2+i = (-1)(2-i)
    cfg2 = parse_config(base_config(domain="Z[i]", primes=[{"generator": "-2+i"}],
                                    distribution={"builtin": "gaussian-basis"}))
    assert cfg2.primes == cfg.primes


def test_parse_polynomial_domain():
    cfg = parse_config(base_config(
        domain="Fp[x]", char=2, primes=[{"generator": "0,1"}],
        distribution={"builtin": "poly-powers", "params": {"p": 2, "m": 3}}))
    assert cfg.domain == poly_domain(2)
    assert cfg.primes[0].descriptor == "x"


def test_audit_modulus():
    # the report names the product of the distinct rational primes (over
    # F_p[x], generators) below the configured primes
    cfg = parse_config(base_config(primes=[{"p": 2}, {"p": 3}]))
    assert run_balance_gate(cfg).modulus == "6"
    cfg = parse_config(base_config(domain="Z[i]", primes=[{"p": 5, "index": 0}],
                                   distribution={"builtin": "gaussian-basis"}))
    assert run_balance_gate(cfg).modulus == "5"
    cfg = parse_config(base_config(
        domain="Fp[x]", char=2, primes=[{"generator": "0,1"}, {"generator": "1,1,1"}],
        distribution={"builtin": "poly-powers", "params": {"p": 2, "m": 3}},
        strict_balance=False))
    assert run_balance_gate(cfg).modulus == "x^3+x^2+x"


def test_strict_balance_gate():
    unbalanced = base_config(domain="Z[i]", primes=[{"p": 5, "index": 0}],
                             distribution={"support": ["0", "1"], "weights": [0.5, 0.5]})
    with pytest.raises(BalanceError):
        run_balance_gate(parse_config(unbalanced))
    report = run_balance_gate(parse_config({**unbalanced, "strict_balance": False}))
    assert not report.is_balanced()


def test_bucket_conservation_and_determinism():
    cfg = parse_config(base_config(trials=600))
    a = run_distribution_experiment(cfg)
    b = run_distribution_experiment(cfg)
    block = a.per_n[0]
    assert sum(r.count for r in block.buckets) == cfg.trials
    assert a.to_dict() == b.to_dict()
    assert [b_.frequency for b_ in block.buckets][0] > 0


def test_worker_count_does_not_change_bytes(tmp_path):
    cfg = parse_config(base_config(trials=500, n=[10]))
    outs = []
    for threads in (1, 2):
        s = run_distribution_experiment(cfg, threads=threads)
        paths = emit_report(s, ("csv", "json"), str(tmp_path / f"w{threads}"))
        outs.append(tuple(open(p, "rb").read() for p in paths))
    assert outs[0] == outs[1]


def test_moment_trivial_target_is_exact():
    cfg = parse_config(base_config(targets=["∅"], trials=300))
    s = run_moment_experiment(cfg)
    (row,) = s.rows
    assert row.estimate == 1.0
    assert row.stderr == 0.0


def test_moment_target_validation():
    cfg = parse_config(base_config(targets=["3:(1)"]))
    with pytest.raises(ConfigError):
        run_moment_experiment(cfg)
    cfg2 = parse_config(base_config(targets=[]))
    with pytest.raises(ConfigError):
        run_moment_experiment(cfg2)


def test_moment_target_error_comes_before_the_balance_audit(tmp_path, capsys):
    # the support {0, 1} fails the strict balance gate; the bad target is reported first
    data = base_config(domain="Z[i]", primes=[{"p": 5, "index": 0}], targets=["3:(1)"],
                       distribution={"support": ["0", "1"], "weights": [0.5, 0.5]})
    with pytest.raises(ConfigError, match="bad moment target"):
        run_moment_experiment(parse_config(data))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["moments", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_galois_demo_requires_split_prime():
    cfg = parse_config(base_config(domain="Z[i]", primes=[{"p": 3}],
                                   distribution={"builtin": "gaussian-basis"}))
    with pytest.raises(ParameterError):
        run_galois_demo(cfg)
    cfg2 = parse_config(base_config())
    with pytest.raises(ParameterError):
        run_galois_demo(cfg2)


def test_galois_demo_tau_invariant_support():
    cfg = parse_config(base_config(
        domain="Z[i]", primes=[{"p": 5, "index": 0}], n=[10], trials=300,
        distribution={"support": ["0", "1"], "weights": [0.5, 0.5]},
        strict_balance=False))
    s = run_galois_demo(cfg)
    assert s.equal_fraction == 1.0
    assert s.asymmetric_rows == ()
    assert s.prime == "2+i" and s.conjugate == "2-i"


def test_galois_demo_balanced_control():
    cfg = parse_config(base_config(
        domain="Z[i]", primes=[{"p": 5}], n=[10], trials=400,
        distribution={"builtin": "gaussian-basis"}))
    s = run_galois_demo(cfg)
    assert s.equal_fraction < 1.0
    assert s.asymmetric_rows


@pytest.mark.parametrize("command, runner", [
    ("dist", run_distribution_experiment),
    ("moments", run_moment_experiment),
    ("galois", run_galois_demo),
], ids=["dist", "moments", "galois"])
def test_diagnostics_error_on_degenerate_distribution(tmp_path, capsys, command, runner):
    # the all-zero matrix saturates at every K: every trial is indeterminate
    data = base_config(
        domain="Z[i]", primes=[{"p": 5, "index": 0}], targets=["∅"],
        distribution={"support": ["0"], "weights": [1]},
        strict_balance=False, trials=50, n=[4])
    with pytest.raises(DiagnosticsError, match="50/50 trials indeterminate at n=4"):
        runner(parse_config(data))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 4
    assert "diagnostics failure" in capsys.readouterr().err


def test_emit_report_round_trip(tmp_path):
    cfg = parse_config(base_config(trials=300))
    s = run_distribution_experiment(cfg)
    paths = emit_report(s, ("csv", "json", "svg"), str(tmp_path / "r"))
    assert [p.rsplit(".", 1)[1] for p in paths] == ["csv", "json", "svg"]
    with open(paths[1], encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded == s.to_dict()
    csv_text = open(paths[0], encoding="utf-8").read()
    assert csv_text.startswith("n,type,count,frequency,stderr,prediction,truncation_bound\n")
    svg = open(paths[2], encoding="utf-8").read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_svg_only_when_requested(tmp_path):
    cfg = parse_config(base_config(trials=200))
    s = run_distribution_experiment(cfg)
    paths = emit_report(s, ("csv",), str(tmp_path / "x"))
    assert len(paths) == 1
    assert not (tmp_path / "x.svg").exists()


def test_multi_prime_run():
    cfg = parse_config(base_config(primes=[{"p": 2}, {"p": 3}], trials=400, n=[10]))
    s = run_distribution_experiment(cfg)
    block = s.per_n[0]
    assert sum(r.count for r in block.buckets) == 400
    # both primes appear in some observed type string
    seen = " ".join(r.type_string for r in block.buckets)
    assert "2:" in seen and "3:" in seen


def test_balance_echo_in_summary():
    cfg = parse_config(base_config(
        domain="Z[i]", primes=[{"p": 5, "index": 0}], trials=200, n=[8],
        distribution={"builtin": "gaussian-basis"}))
    s = run_distribution_experiment(cfg)
    eps = {b["ideal"]: b["epsilon"] for b in s.balance}
    assert eps["(5)"] == "1/3"
    assert Fraction(eps["(2+i)"]) == Fraction(2, 3)


def test_sub_batches_tally_in_trial_order():
    # 300 trials at n = 5 fit one sub-batch, so two workers run one share.
    # With K capped at 4, some trials are indeterminate at p=2 only; they
    # leave the batch before p=3. The tally equals one built trial by trial
    # with cokernel_type, keys in order of first appearance.
    cfg = parse_config(base_config(
        primes=[{"p": 2}, {"p": 3}], trials=300, n=[5], precision={"k_max": 4},
        distribution={"builtin": "uniform-support", "params": {"support": ["0", "1", "-1", "6"]}}))
    dist = cfg.distribution
    want = Counter()
    for t in range(cfg.trials):
        idx = sample_index_matrix(dist, 5, cfg.u, cfg.seed, t)
        try:
            key = cokernel_type([[dist.support[j] for j in row] for row in idx.tolist()],
                                cfg.primes, cfg.policy)
        except IndeterminateCokernelError:  # still saturated at the cap
            key = INDETERMINATE
        want[key] += 1
    assert 0 < want[INDETERMINATE] < cfg.trials / 2
    assert any(len(key.components) == 2 for key in want if key != INDETERMINATE)
    for threads in (1, 2):
        assert list(_run_trials(cfg, 5, threads).items()) == list(want.items())


def _counted_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _shares_of(sub_batches: int):
    """A config of as many trials at n = 24 as fill that many sub-batches,
    and the trials of one sub-batch."""
    size = _batch_trials(parse_config(base_config()), 24)
    return parse_config(base_config(trials=sub_batches * size)), size


def test_each_extra_share_forks_once(monkeypatch):
    # Trials of two sub-batches at n = 24 make two shares, so eight
    # requested workers fork one child; one sub-batch's trials make one
    # share and fork none. Tallies, keys in the same order, match the
    # single-worker run.
    cfg, _ = _shares_of(2)
    want = _run_trials(cfg, 24, 1)
    forks = _counted_forks(monkeypatch)
    assert list(_run_trials(cfg, 24, 8).items()) == list(want.items())
    assert len(forks) == 1
    one_share, _ = _shares_of(1)
    assert _run_trials(one_share, 24, 8) == _run_trials(one_share, 24, 1)
    assert len(forks) == 1


def _tally_failing_from(start, error=ParameterError):
    real = experiments._tally_chunk

    def tally(args):
        if args[2] == start:
            raise error(f"share from trial {start} failed")
        return real(args)
    return tally


@pytest.mark.parametrize("child", [True, False], ids=["child", "caller"])
def test_share_errors_reach_the_caller_and_every_child_is_reaped(monkeypatch, child):
    # Trials of two sub-batches at n = 24 split into shares from 0 (this
    # process) and from one sub-batch on (one forked child). Either failure
    # is raised as itself, and no child is left behind.
    cfg, size = _shares_of(2)
    start = size if child else 0
    monkeypatch.setattr(experiments, "_tally_chunk", _tally_failing_from(start))
    with pytest.raises(ParameterError, match=f"^share from trial {start} failed$"):
        _run_trials(cfg, 24, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_unpicklable_child_error_comes_back_named(monkeypatch):
    class LocalError(Exception):  # a class local to a function does not pickle
        pass

    cfg, size = _shares_of(2)
    monkeypatch.setattr(experiments, "_tally_chunk", _tally_failing_from(size, LocalError))
    with pytest.raises(RuntimeError, match=f"LocalError: share from trial {size} failed"):
        _run_trials(cfg, 24, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_importing_experiments_leaves_out_the_pool_modules():
    # The workers are plain forks; the pool modules cost 13-15 ms of set-up.
    code = ("import sys, coklab.experiments; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def _batch_trials(cfg, n):
    return batch_trials(cfg.distribution.support, cfg.primes, cfg.policy, n, cfg.u)


def test_sub_batches_sized_by_kernel_bytes():
    # 512 KiB of the kernel words of each prime's first ladder rung per
    # sub-batch, at the widest prime, and at least 64 matrices: mod2k's
    # uint8 words give 3640 at n = 12 and 227 at n = 48; modpk's int64
    # words 455 at n = 12, also beside p = 2 and on the generic path at
    # (1+i); (3) of residue degree 2 has 32 x 32 int64 blocks at n = 16,
    # under the floor; f2t at (x) has uint32 words at K = 8, and uint16
    # words when k_max = 4 caps its first rung there.
    def size(n, **overrides):
        return _batch_trials(parse_config(base_config(**overrides)), n)
    assert [size(n) for n in (12, 16, 24, 48)] == [3640, 2048, 910, 227]
    assert size(12, u=2) == 3120
    assert size(12, primes=[{"p": 3}]) == size(12, primes=[{"p": 2}, {"p": 3}]) == 455
    assert size(12, domain="Z[i]", primes=[{"generator": "1+i"}],
                distribution={"builtin": "gaussian-basis"}) == 455
    assert size(16, domain="Z[i]", primes=[{"p": 3}]) == 64
    fx = dict(domain="Fp[x]", char=2, primes=[{"generator": "0,1"}],
              distribution={"builtin": "poly-powers", "params": {"p": 2, "m": 3}})
    assert size(48, **fx) == 64 and size(48, precision={"k_max": 4}, **fx) == 113


def _recorded(monkeypatch, module, name, what) -> list:
    """what(args) of each call made to the module's function name."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        calls.append(what(args))
        return real(*args)
    monkeypatch.setattr(module, name, record)
    return calls


def test_a_share_splits_into_near_equal_sub_batches(monkeypatch):
    # 301 trials fit one sub-batch. With the byte budget at its floor of 64
    # matrices they run as five sub-batches of 60 or 61, not 64 + 64 + 64 +
    # 64 + 45, and give the same tally, items and order; at u = 1 and K
    # capped at 4 some trials are indeterminate at p = 2, and skipped at p = 3.
    cfg = parse_config(base_config(
        primes=[{"p": 2}, {"p": 3}], u=1, n=[5], trials=301, precision={"k_max": 4},
        distribution={"builtin": "uniform-support", "params": {"support": ["0", "1", "-1", "6"]}}))
    batches = _recorded(monkeypatch, experiments, "sample_index_batch", lambda args: len(args[5]))
    want = _run_trials(cfg, 5, 1)
    assert want[INDETERMINATE] > 0 and batches == [301]
    monkeypatch.setattr(snf, "_BATCH_BYTES", 1)
    del batches[:]
    assert list(_run_trials(cfg, 5, 1).items()) == list(want.items())
    assert batches == [60, 60, 60, 60, 61]


# (2+i) and (2-i) with the tau-fixed support {0, 1}: every matrix lowers to
# the same arrays at both primes
_TAU_FIXED = dict(domain="Z[i]", primes=[{"generator": "2+i"}, {"generator": "2-i"}], n=[10],
                  trials=300, distribution={"support": ["0", "1"], "weights": [0.5, 0.5]},
                  strict_balance=False)


def _ladder_passes(monkeypatch) -> list:
    """The prime and rungs of each call that cokernel_rows makes to
    _ladder_counts, and how many matrices it hands over: the first rung of
    every prime on the whole batch, then the rest of the ladder on the
    uncertified matrices saturated there."""
    return _recorded(monkeypatch, snf, "_ladder_counts",
                     lambda args: (args[2], args[3], len(args[4])))


def _kernel_passes(calls) -> list:
    """The primes and rungs of the calls that have matrices to run."""
    return [(prime, rungs) for prime, rungs, todo in calls if todo and rungs]


def test_primes_that_lower_alike_share_one_pass(monkeypatch):
    # Each of five sub-batches runs the first rung at (2+i) only, and (2-i)
    # takes its rows; the singular matrices are certified there, so no
    # matrix climbs. The tally equals the one with sharing turned off (a
    # distinct lowering per prime), items and order, where both primes run
    # their first rung on every sub-batch.
    cfg = parse_config(base_config(**_TAU_FIXED))
    first, second = cfg.primes
    rungs = snf.escalation_ladder(first, cfg.policy)
    monkeypatch.setattr(snf, "_BATCH_BYTES", 1)
    calls = _ladder_passes(monkeypatch)
    shared = _run_trials(cfg, 10, 1)
    assert 0 < shared[INDETERMINATE]
    assert _kernel_passes(calls) == [(first, rungs[:1])] * 5
    assert {prime for prime, _, _ in calls} == {first}
    monkeypatch.setattr(snf, "_lowering", lambda support, prime, policy: prime)
    del calls[:]
    assert list(_run_trials(cfg, 10, 1).items()) == list(shared.items())
    assert _kernel_passes(calls) == [(first, rungs[:1]), (second, rungs[:1])] * 5


def test_primes_that_lower_apart_each_run(monkeypatch):
    # gaussian-basis, the Galois demo's balanced control, holds i, which
    # (2+i) and (2-i) reduce apart: the first rung runs at both, on every
    # matrix.
    cfg = parse_config(base_config(**dict(_TAU_FIXED, distribution={"builtin": "gaussian-basis"})))
    calls = _ladder_passes(monkeypatch)
    _run_trials(cfg, 10, 1)
    first_rungs = [(prime, todo) for prime, rungs, todo in calls
                   if rungs == snf.escalation_ladder(prime, cfg.policy)[:1]]
    assert first_rungs == [(prime, cfg.trials) for prime in cfg.primes]


def test_a_lone_prime_builds_only_the_rungs_it_reaches(monkeypatch):
    # Identity matrices settle at the first rung. A lone prime has no
    # lowering to compare, so its support is reduced at that rung only;
    # beside a second prime, the lowerings reduce it at every rung.
    cfg = parse_config(base_config(**_TAU_FIXED))
    support, first = cfg.distribution.support, cfg.primes[0]
    ladder = snf.escalation_ladder(first, cfg.policy)
    idx = np.tile(np.eye(3, dtype=np.uint8), (4, 1, 1))  # support[1] is 1
    snf._lowering.cache_clear()
    rungs = _recorded(monkeypatch, snf, "reduction_table", lambda args: args[2])
    (rows,) = snf.cokernel_rows(idx, support, (first,), cfg.policy)
    assert rows[:, 0].tolist() == [3] * 4 and rungs == [ladder[0]] and len(ladder) > 1
    snf.cokernel_rows(idx, support, cfg.primes, cfg.policy)
    assert set(rungs) == set(ladder)


def test_a_key_one_table_entry_apart_is_not_shared(monkeypatch):
    # The tau-fixed lowerings are equal; with one entry of (2-i)'s cap-rung
    # table changed they are not, and the first rung runs at both primes.
    cfg = parse_config(base_config(**_TAU_FIXED))
    support, (first, second) = cfg.distribution.support, cfg.primes
    assert snf._lowering(support, first, cfg.policy) == snf._lowering(support, second, cfg.policy)
    real = snf.reduction_table

    def table(support, prime, K):
        mode, ring, t = real(support, prime, K)
        if prime == second and K == snf.escalation_ladder(prime, cfg.policy)[-1]:
            t = t.copy()
            t[-1] += 1
        return mode, ring, t
    snf._lowering.cache_clear()
    monkeypatch.setattr(snf, "reduction_table", table)
    try:
        assert snf._lowering(support, first, cfg.policy) != snf._lowering(support, second, cfg.policy)
        calls = _ladder_passes(monkeypatch)
        _run_trials(cfg, 10, 1)
        rungs = snf.escalation_ladder(first, cfg.policy)
        assert _kernel_passes(calls) == [(first, rungs[:1]), (second, rungs[:1])]
    finally:
        monkeypatch.undo()
        snf._lowering.cache_clear()


def test_singular_trials_stop_at_the_first_rung(monkeypatch):
    # The zi-galois-n12 benchmark config at seed 7: its 90 indeterminate
    # trials are singular, and their first-rung rows at (2+i) and (2-i)
    # certify them, so no trial climbs to the cap's Montgomery words, which
    # alone call _batch_inverse. Over Z at p = 2 and n = 48 no trial saturated
    # at the first rung is singular: each of the 6 in 1000 trials climbs
    # and settles.
    inverses = _recorded(monkeypatch, snf, "_batch_inverse", lambda args: len(args[0]))
    cfg = parse_config(base_config(
        domain="Z[i]", primes=[{"generator": "2+i"}, {"generator": "2-i"}], n=[12], trials=500,
        seed=7, strict_balance=False))
    assert _run_trials(cfg, 12, 1)[INDETERMINATE] == 90 and inverses == []
    cfg = parse_config(base_config(n=[48], trials=1000, seed=7))
    saturated = _recorded(monkeypatch, snf, "_certified_singular", lambda args: len(args[0]))
    calls = _ladder_passes(monkeypatch)
    assert INDETERMINATE not in _run_trials(cfg, 48, 1)
    climbed = [todo for _, rungs, todo in calls if rungs and rungs[0] > 8]
    assert sum(climbed) == sum(saturated) == 6
