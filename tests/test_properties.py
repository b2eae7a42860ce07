"""Property tests of ``check`` on generated decomposable states."""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from trischmidt import check

from helpers import basis_state, haar_rotated, permute_parties


@st.composite
def decomposable_states(draw):
    """A rotated single-sum state on up to 6x6x6 and its descending weights.

    Weights are proportional to integer levels 1..4, so equal levels give
    exact ties and distinct weights differ by at least 1/24 > 1e-3: far
    from the near-tie band that ``test_near_tie_weights_accepted`` pins.
    """
    terms = draw(st.integers(1, 6))
    dims = tuple(draw(st.integers(terms, 6)) for _ in range(3))
    levels = draw(st.lists(st.integers(1, 4), min_size=terms, max_size=terms))
    weights = np.sort(np.array(levels, dtype=float) / sum(levels))[::-1]
    state = basis_state(dims, [((i, i, i), np.sqrt(w)) for i, w in enumerate(weights)])
    return haar_rotated(state, draw(st.integers(0, 2**32 - 1))), weights


@given(decomposable_states())
def test_decomposable_states_accepted_under_every_party_order(case):
    state, weights = case
    for perm in itertools.permutations(range(3)):
        verdict = check(permute_parties(state, perm))
        assert verdict.decomposable, perm
        assert np.max(np.abs(verdict.decomposition.weights - weights)) <= 1e-9, perm
