"""Integer arguments of the public entry points are integers: a bool or a float is rejected, never coerced.

So are the other typed arguments: a sieve is a PrimeSet, a path a str or
an os.PathLike, and a time budget a number that is not NaN.
"""

import os
from pathlib import Path

import pytest

from primeladder import (
    LemoineWitness,
    Partition,
    brute_force_labeling,
    constructions,
    construct_ladder,
    enumerate_canonical,
    find_canonical,
    find_goldbach,
    find_lemoine,
    is_prime,
    lemma_ladder_2p,
    numtheory,
    partitions,
    plan_theorem_swaps,
    sigma_tau,
    verify_lemoine_range,
    verify_strong_range,
)

# each takes the bad value in one integer argument; every other argument is valid
CALLS = {
    "lemoine-workers": lambda v: verify_lemoine_range(7, 99, workers=v),
    "lemoine-chunk_size": lambda v: verify_lemoine_range(7, 99, chunk_size=v),
    "strong-max_terms": lambda v: verify_strong_range(50, 60, max_terms=v),
    "strong-workers": lambda v: verify_strong_range(50, 60, workers=v),
    "find_canonical-max_terms": lambda v: find_canonical(87, max_terms=v),
    "enumerate_canonical-max_terms": lambda v: list(enumerate_canonical(87, max_terms=v)),
    "construct_ladder": construct_ladder,
    "brute_force_labeling": brute_force_labeling,
    "lemma_ladder_2p": lemma_ladder_2p,
    "plan_theorem_swaps": lambda v: plan_theorem_swaps(v, 3),
    "is_prime": is_prime,
    "LemoineWitness-q": lambda v: LemoineWitness(7, 2, v),
}

# built before the fixture below refuses to sieve
SIEVE = numtheory.sieve_primes(100)

# each float passes every other check, a bound its range check, so only the
# integer check stops it
FLOAT_BOUNDS = {
    "lemoine-lo": lambda: verify_lemoine_range(7.0, 99),
    "lemoine-hi": lambda: verify_lemoine_range(7, 99.0),
    "strong-lo": lambda: verify_strong_range(50.0, 60),
    "strong-hi": lambda: verify_strong_range(50, 60.0),
    "find_canonical-n": lambda: find_canonical(87.0),
    "is_prime-9.0": lambda: is_prime(9.0),
    "LemoineWitness": lambda: LemoineWitness(7.0, 2.0, 3),
    "find_lemoine": lambda: find_lemoine(7.0, SIEVE),
    "find_goldbach": lambda: find_goldbach(8.0, SIEVE),
}


# each bad value raises ValueError naming its argument, and not a TypeError
# from a comparison or a slice, a check of another argument, a truth value
# read from a string, or a check put off until the result is iterated
NAMED = {
    "lemoine-lo-str": (lambda: verify_lemoine_range("a", 100), "lo"),
    "strong-lo-str": (lambda: verify_strong_range("a", 100), "lo"),
    "strong-lo-float": (lambda: verify_strong_range(50.0, 100), "lo"),
    "strong-require_strong": (lambda: verify_strong_range(50, 100, require_strong="no"), "require_strong"),
    "find_canonical-require_strong": (lambda: find_canonical(87, require_strong="no"), "require_strong"),
    "brute_force_labeling-time_budget": (lambda: brute_force_labeling(3, True), "time budget"),
    "sigma_tau-k": (lambda: sigma_tau(Partition((3, 11, 73)), 3.0), "k"),
    "enumerate_canonical-n": (lambda: enumerate_canonical(87.0), "n"),
    "brute_force_labeling-nan": (lambda: brute_force_labeling(3, float("nan")), "time budget"),
    "lemoine-witness_csv-fd": (lambda: verify_lemoine_range(7, 99, witness_csv=1), "witness CSV path"),
    "lemoine-checkpoint-fd": (lambda: verify_lemoine_range(7, 99, checkpoint=1), "checkpoint path"),
    "lemoine-checkpoint-float": (lambda: verify_lemoine_range(7, 99, checkpoint=1.5), "checkpoint path"),
    "lemoine-sieve": (lambda: verify_lemoine_range(7, 99, sieve=[1, 2]), "sieve"),
    "find_lemoine-sieve": (lambda: find_lemoine(9, None), "sieve"),
    "find_goldbach-sieve": (lambda: find_goldbach(8, [2, 3]), "sieve"),
    "find_canonical-sieve": (lambda: find_canonical(87, sieve=[1, 2]), "sieve"),
    "primes_in-sieve": (lambda: numtheory.primes_in(2, 10, range(11)), "sieve"),
}


@pytest.fixture(autouse=True)
def no_sieve(monkeypatch):
    """Every check must fire before a sieve is built."""
    def refuse(*args):
        raise AssertionError("a sieve was built for a malformed argument")
    for module in (numtheory, partitions, constructions):
        monkeypatch.setattr(module, "sieve_primes", refuse)


@pytest.mark.parametrize("value", [True, 2.0])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bool_and_float_arguments_are_rejected(call, value):
    # lemma_ladder_2p(True) fails its primality test, which rejects bools too
    with pytest.raises(ValueError, match="must be (an integer|prime)"):
        call(value)


@pytest.mark.parametrize("call", FLOAT_BOUNDS.values(), ids=FLOAT_BOUNDS.keys())
def test_float_bounds_are_rejected(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("call, name", NAMED.values(), ids=NAMED.keys())
def test_each_bad_argument_is_named(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("argument", ["witness_csv", "checkpoint"])
def test_a_file_descriptor_is_not_a_path(argument):
    # open() would take 1 as stdout's descriptor, write to it and close it
    with pytest.raises(ValueError, match="path must be a str or os.PathLike"):
        verify_lemoine_range(7, 99, sieve=SIEVE, **{argument: 1})
    os.fstat(1)  # raises OSError once fd 1 is closed


def test_path_arguments_work_like_their_str(tmp_path):
    # each scan runs twice, the second time resuming from its checkpoint
    outputs = {}
    for kind in (str, Path):
        cp, csv = tmp_path / f"{kind.__name__}.json", tmp_path / f"{kind.__name__}.csv"
        for run in (1, 2):
            report = verify_lemoine_range(7, 99, sieve=SIEVE, chunk_size=8, checkpoint=kind(cp),
                                          witness_csv=kind(csv)).to_json_dict()
            report.pop("elapsed_seconds")
            outputs[kind, run] = report, cp.read_bytes(), csv.read_bytes()
    assert outputs[str, 1] == outputs[str, 2] == outputs[Path, 1] == outputs[Path, 2]
