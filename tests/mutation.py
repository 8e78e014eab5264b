"""Random edits of JSON documents, for property tests that feed mutated files
to the loaders: a loader must refuse a mutated document with a ValueError that
names what is wrong, or read it into something the package can run.

A document sits in a one-element list, its box, so that an edit can replace
the root itself. ``node_paths`` lists every node's path; ``mutate`` applies one
of ``EDITS`` to the node at a path.
"""

import math


def node_paths(node, path=()):
    """The path to every node of a JSON document, the root's included."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from node_paths(child, (*path, key))


# Values swapped in for a node: other JSON types, non-finite numbers, and
# numbers out of (or at the edge of) the ranges the loaders check.
SWAPS = (math.nan, math.inf, -math.inf, "1", True, False, None, [], {}, 0, 1, -1, 0.5, 2,
         2 ** 31, -1e30, 1e30, -1e308, 1e308, [1.0, 2.0, 0.5])
# What a mutation does to a node: swap in a value, or drop it from its
# parent, empty it, add a key to it, or push a number by negating it,
# scaling it by 10**6 or adding 1.
EDITS = ("drop", "empty", "add key", "negate", "scale", "nudge") + tuple(
    ("swap", value) for value in SWAPS)


def mutate(box: list, path: tuple, edit) -> None:
    """Apply ``edit`` to the node at ``path`` of the document ``box[0]``; a path
    that an earlier mutation removed changes nothing."""
    parent, key = box, 0
    for step in path:
        node = parent[key]
        if not (isinstance(node, dict) and step in node
                or isinstance(node, list) and isinstance(step, int) and step < len(node)):
            return
        parent, key = node, step
    node = parent[key]
    number = isinstance(node, (int, float)) and not isinstance(node, bool)
    if isinstance(edit, tuple):
        parent[key] = edit[1]
    elif edit == "drop" and parent is not box:
        del parent[key]
    elif edit == "empty" and isinstance(node, (dict, list)):
        node.clear()
    elif edit == "add key" and isinstance(node, dict):
        node["extra"] = 1
    elif number and edit in ("negate", "scale", "nudge"):
        parent[key] = {"negate": -node, "scale": node * 10 ** 6, "nudge": node + 1}[edit]
