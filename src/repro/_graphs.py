"""Small graph algorithms on node lists and ``(source, target)`` edge pairs.

Results follow ``nodes`` order wherever an order is observable.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar

Node = TypeVar("Node", bound=Hashable)
Edges = Iterable[Tuple[Node, Node]]


def _successors(nodes: Iterable[Node], edges: Edges) -> Dict[Node, List[Node]]:
    successors: Dict[Node, List[Node]] = {node: [] for node in nodes}
    for source, target in edges:
        successors[source].append(target)
    return successors


def strongly_connected_components(nodes: Iterable[Node], edges: Edges) -> List[List[Node]]:
    """Tarjan's strongly connected components, without recursion."""
    successors = _successors(nodes, edges)
    index: Dict[Node, int] = {}
    low: Dict[Node, int] = {}  # only for nodes still on the stack
    stack: List[Node] = []
    components: List[List[Node]] = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    work.append((child, iter(successors[child])))
                    break
                if child in low:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    for member in component:
                        del low[member]
                    components.append(component)
    return components


def topological_order(nodes: Iterable[Node], edges: Edges) -> Optional[List[Node]]:
    """Kahn's topological order, or ``None`` when the graph has a cycle."""
    successors = _successors(nodes, edges)
    indegree = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for target in targets:
            indegree[target] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    order: List[Node] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for target in successors[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return order if len(order) == len(successors) else None


def undirected_components(nodes: Iterable[Node], edges: Edges) -> Iterator[List[Node]]:
    """Connected components ignoring edge direction.

    A component is yielded when its first node in ``nodes`` order is
    reached, so the components come out in the order of their first nodes.
    """
    neighbours: Dict[Node, List[Node]] = {node: [] for node in nodes}
    for source, target in edges:
        neighbours[source].append(target)
        neighbours[target].append(source)
    seen: Set[Node] = set()
    for root in neighbours:
        if root in seen:
            continue
        seen.add(root)
        component = [root]
        for node in component:  # breadth-first: the list grows while read
            for neighbour in neighbours[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    component.append(neighbour)
        yield component


def repetition_vector(
    nodes: Iterable[Node], channels: Iterable[Tuple[Node, Node, int, int]]
) -> Dict[Node, int]:
    """Smallest positive ``q`` per weakly connected component with
    ``q(source)·produced = q(target)·consumed`` on a spanning tree of it.

    The rates are consistent exactly when that holds on every channel, which
    callers check so they can name the offending one.  Exact integer
    arithmetic: each node's ratio to its component's root is a reduced
    fraction ``(numerator, denominator)``.
    """
    neighbours: Dict[Node, List[Tuple[Node, int, int]]] = {node: [] for node in nodes}
    for source, target, produced, consumed in channels:
        neighbours[source].append((target, produced, consumed))
        neighbours[target].append((source, consumed, produced))
    ratio: Dict[Node, Tuple[int, int]] = {}
    counts: Dict[Node, int] = {}
    for root in neighbours:
        if root in ratio:
            continue
        ratio[root] = (1, 1)
        component = [root]
        for node in component:  # breadth-first: the list grows while read
            numerator, denominator = ratio[node]
            for other, times, over in neighbours[node]:
                if other in ratio:
                    continue
                if times == over:
                    ratio[other] = ratio[node]
                else:
                    top, bottom = numerator * times, denominator * over
                    common = gcd(top, bottom)
                    ratio[other] = (top // common, bottom // common)
                component.append(other)
        scale = lcm(*(ratio[node][1] for node in component))
        scaled = [ratio[node][0] * (scale // ratio[node][1]) for node in component]
        common = gcd(*scaled)
        counts.update((node, value // common) for node, value in zip(component, scaled))
    return {node: counts[node] for node in neighbours}


def simple_cycles(nodes: Iterable[Node], edges: Edges) -> Iterator[List[Node]]:
    """The simple cycles through two or more nodes, as node lists ``[v0, ..., vk]``.

    ``v0`` is the cycle's first node in ``nodes`` order; self-loops and
    parallel edges are ignored.  The search from each node walks only later
    nodes of its strongly connected component.  There can be exponentially many.
    """
    successors = {n: list(dict.fromkeys(ts)) for n, ts in _successors(nodes, edges).items()}
    pairs = ((source, target) for source, targets in successors.items() for target in targets)
    component_of = {}
    for index, component in enumerate(strongly_connected_components(successors, pairs)):
        component_of.update(dict.fromkeys(component, index))
    rank = {node: index for index, node in enumerate(successors)}
    for start in successors:
        path = [start]
        work = [iter(successors[start])]
        while work:
            for node in work[-1]:
                if node == start and len(path) > 1:
                    yield list(path)
                elif (
                    rank[node] > rank[start]
                    and component_of[node] == component_of[start]
                    and node not in path
                ):
                    path.append(node)
                    work.append(iter(successors[node]))
                    break
            else:
                work.pop()
                path.pop()
