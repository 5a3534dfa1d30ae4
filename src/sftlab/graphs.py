"""Graph searches shared by the certificates: breadth-first search, path
read-back and cycle finding.

Determinism contract: start nodes are visited in the order given and the
successors of a node in the order ``step`` (or ``succ[node]``) yields them.
Parent maps, discovery orders and cycles are therefore the same on every
run, and so is every certificate, witness and error message read from them.
"""
from __future__ import annotations

from collections import deque


def bfs(starts, step, goal=None) -> dict:
    """Breadth-first search from the hashable nodes ``starts``.

    ``step(node)`` yields ``(label, successor)`` pairs.  Returns the parent
    map ``{node: (parent, label)}``, ``None`` for a start node, in discovery
    order.  The search stops as soon as ``goal`` is discovered."""
    parents = dict.fromkeys(starts)
    if goal is not None and goal in parents:
        return parents
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        for label, nxt in step(node):
            if nxt not in parents:
                parents[nxt] = (node, label)
                if nxt == goal:
                    return parents
                queue.append(nxt)
    return parents


def path(parents: dict, node) -> tuple:
    """The labels along the tree path of ``parents`` from a start node down
    to ``node``."""
    labels = []
    while parents[node] is not None:
        node, label = parents[node]
        labels.append(label)
    labels.reverse()
    return tuple(labels)


def find_cycle(succ):
    """Iterative depth-first search over the nodes ``0..len(succ)-1`` in
    index order, following the lists ``succ[node]`` in order.  Returns the
    first node found to close a cycle (it lies on that cycle), or None when
    the graph is acyclic."""
    color = [0] * len(succ)           # 0 new, 1 on the stack, 2 done
    for root in range(len(succ)):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    return nxt
                if not color[nxt]:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None
