"""Differential test: the balancer's derived routable list against the
list-and-``min`` routing it replaced.

``LoadBalancer`` keeps the replicas it may route to as derived state,
rebuilt at the six membership transitions, and picks least-active in one
pass.  The reference below recomputes the routable list from the membership
sets on every pick, exactly as routing used to.  Random sequences of
transitions interleaved with active-count changes must leave the balancer
picking the same replica, for every ``exclude`` shape.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.middleware import LoadBalancer
from repro.sim import Environment

from .conftest import fixed_latency_network, make_catalog

#: initial members, listed out of name order so the (active, name)
#: tie-break and the list order disagree
MEMBERS = ["r2", "r10", "r1", "r7"]
#: names a brand-new joiner may take
NEWCOMERS = ["r0", "r11"]
NAMES = MEMBERS + NEWCOMERS
TRANSITIONS = (
    "replica_down",
    "replica_up",
    "admit_joining",
    "set_live",
    "quarantine_replica",
    "unquarantine_replica",
)


def reference_pick(balancer, exclude):
    """Routing as it was before the routable list became derived state."""
    routable = [
        r
        for r in balancer._replicas
        if r in balancer._up
        and r not in balancer._quarantined
        and r not in balancer._joining
    ]
    candidates = [r for r in routable if r not in exclude]
    if not candidates:
        candidates = routable
    if not candidates:
        return None
    return min(candidates, key=lambda r: (balancer._active_count[r], r))


def build_balancer():
    env = Environment()
    network = fixed_latency_network(env)
    for name in NAMES:
        network.register(name)
    return LoadBalancer(
        env=env,
        network=network,
        replica_names=list(MEMBERS),
        level="sc-coarse",
        templates=make_catalog(("t",)),
    )


def check_every_pick(balancer):
    members = list(balancer._replicas)
    excludes = [frozenset(), *(frozenset({r}) for r in members), frozenset(members)]
    for exclude in excludes:
        expected = reference_pick(balancer, exclude)
        got = balancer._pick_replica(exclude=exclude)
        assert got == expected, sorted(exclude)


#: (transition or "active", replica, active count — used by "active" only)
steps = st.lists(
    st.tuples(
        st.sampled_from((*TRANSITIONS, "active")),
        st.sampled_from(NAMES),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=10,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(steps)
def test_derived_routing_matches_the_list_and_min_reference(sequence):
    balancer = build_balancer()
    check_every_pick(balancer)
    for action, replica, count in sequence:
        if action != "active":
            getattr(balancer, action)(replica)
        elif replica in balancer._active_count:
            balancer._active_count[replica] = count
        check_every_pick(balancer)
