"""Differential test: the balancer's derived routable list against the
list-and-``min`` routing it replaced.

``LoadBalancer`` keeps the replicas it may route to as derived state,
rebuilt at the six membership transitions, and picks least-active in one
pass.  The reference below recomputes the routable list from the membership
sets on every pick, exactly as routing used to.  Random sequences of
transitions interleaved with active-count changes must leave every routing
policy picking the same replica, for every ``exclude`` shape, with the same
round-robin index and the same random draws.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.consistency import ConsistencyLevel
from repro.core.partition import PartitionMap
from repro.middleware import LoadBalancer
from repro.sim import Environment
from repro.sim.rng import Rng

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
AFFINITY_SHAPES = (None, (0,), (1,), (2,), (5,), (0, 1))
SEED = 11


def reference_pick(balancer, exclude, partitions, state):
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
    if balancer.routing == "round-robin":
        pick = candidates[state["rr"] % len(candidates)]
        state["rr"] += 1
        return pick
    if balancer.routing == "random":
        return state["rng"].choice(candidates)
    if (
        balancer.routing == "partition-affinity"
        and partitions is not None
        and len(partitions) == 1
    ):
        home = balancer._replicas[partitions[0] % len(balancer._replicas)]
        if home in candidates:
            return home
    return min(candidates, key=lambda r: (balancer._active_count[r], r))


def build_balancers():
    env = Environment()
    network = fixed_latency_network(env)
    for name in NAMES:
        network.register(name)
    balancers = {}
    for routing in LoadBalancer.ROUTING_POLICIES:
        balancers[routing] = LoadBalancer(
            env=env,
            network=network,
            replica_names=list(MEMBERS),
            level=ConsistencyLevel.SC_COARSE,
            templates=make_catalog(("t",)),
            name=f"lb-{routing}",
            routing=routing,
            rng=Rng(SEED, "routing"),
            partition_map=PartitionMap(4),
        )
    return balancers


def check_every_pick(balancers, states):
    for routing, balancer in balancers.items():
        state = states[routing]
        members = list(balancer._replicas)
        excludes = [frozenset(), *(frozenset({r}) for r in members), frozenset(members)]
        shapes = AFFINITY_SHAPES if routing == "partition-affinity" else (None,)
        for exclude in excludes:
            for partitions in shapes:
                expected = reference_pick(balancer, exclude, partitions, state)
                got = balancer._pick_replica(exclude=exclude, partitions=partitions)
                assert got == expected, (routing, sorted(exclude), partitions)
        assert balancer._round_robin_next == state["rr"]


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
    balancers = build_balancers()
    states = {
        routing: {"rr": 0, "rng": Rng(SEED, "routing")} for routing in balancers
    }
    check_every_pick(balancers, states)
    for action, replica, count in sequence:
        for balancer in balancers.values():
            if action != "active":
                getattr(balancer, action)(replica)
            elif replica in balancer._active_count:
                balancer._active_count[replica] = count
        check_every_pick(balancers, states)
