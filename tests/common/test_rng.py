"""Deterministic RNG tests."""

import pytest

from repro.common.rng import SplitRandom, derive_seed, seeds_for_runs


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_distinct_paths(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_distinct_roots(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit(self):
        assert 0 <= derive_seed(99, "x") < 2 ** 64


class TestSplitRandom:
    def test_same_seed_same_stream(self):
        a, b = SplitRandom(5), SplitRandom(5)
        assert [a.random() for _ in range(10)] == \
               [b.random() for _ in range(10)]

    def test_split_is_keyed_not_sequential(self):
        a = SplitRandom(5)
        a.random()  # consume some state
        b = SplitRandom(5)
        assert a.split("child").random() == b.split("child").random()

    def test_split_children_independent(self):
        root = SplitRandom(5)
        assert root.split("x").random() != root.split("y").random()

    def test_nested_split_path(self):
        root = SplitRandom(5)
        assert root.split("a").split("b").path == ("a", "b")

    def test_constructed_with_a_path_and_split(self):
        """``Random.__new__`` rejects a second positional argument before
        Python 3.11; the path has to reach ``__init__`` alone."""
        import random

        rng = SplitRandom(5, ("store", "retry"))
        assert rng.path == ("store", "retry")
        plain = random.Random(derive_seed(5, "store", "retry"))
        assert rng.random() == plain.random()
        child = rng.split(3)
        assert child.path == ("store", "retry", 3)
        assert child.random() == SplitRandom(5, path=("store", "retry",
                                                      3)).random()

    def test_distinct_values(self):
        values = SplitRandom(5).distinct(10, 0, 100)
        assert len(values) == 10
        assert len(set(values)) == 10
        assert all(0 <= v < 100 for v in values)

    def test_distinct_impossible(self):
        with pytest.raises(ValueError):
            SplitRandom(5).distinct(11, 0, 10)

    def test_weighted_choice_respects_zero_weight(self):
        rng = SplitRandom(5)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0])
                 for _ in range(50)}
        assert picks == {"a"}


class TestSeedsForRuns:
    def test_count_and_determinism(self):
        a = list(seeds_for_runs(7, 5))
        b = list(seeds_for_runs(7, 5))
        assert len(a) == 5
        assert a == b
        assert len(set(a)) == 5
