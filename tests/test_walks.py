"""The quotient's walks over its Hasse covers against the rescanning, all-pairs walks."""

from hypothesis import given, settings, strategies as st

import walk_oracle
from test_canonical import bounded_posets
from test_properties import _relabeled, admissible_profiles
from rkdist import monotonicity, pareto_product, product_many, quotient
from rkdist.io import render_ascii


def _starred_product(factors):
    """The product of two factors whose first has names that break pair order."""
    a, b = factors
    starred = _relabeled(a, {v: "b" + "*a" * i for i, v in enumerate(sorted(a.order.vertices))})
    return pareto_product(starred, b)


_FACTORS = st.one_of(admissible_profiles(), bounded_posets(3))


@given(
    st.one_of(
        admissible_profiles(),
        # chains of unequal length below one class, so depths differ among its lower covers
        bounded_posets(10),
        st.lists(_FACTORS, min_size=2, max_size=2).map(product_many),
        st.lists(_FACTORS, min_size=2, max_size=2).map(_starred_product),
    )
)
@settings(max_examples=200, deadline=None)
def test_cover_walks_agree_with_all_pairs_walks(profile):
    q = quotient(profile)
    assert q._linear_extension() == walk_oracle.linear_extension(q)
    assert render_ascii(profile) == walk_oracle.render_ascii(profile)
    assert monotonicity(profile) == walk_oracle.monotonicity(profile)
