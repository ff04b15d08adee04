"""Mutations of a valid JSON document for the loader fuzz tests: a node
replaced by a list, an int, a str, None or {}, a key dropped, or a variable
renamed."""

import copy
import functools
import operator

from hypothesis import strategies as st


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def mutations(doc, renamed=("exponents", "variables")):
    """Strategy of (kind, path, value) mutations of doc; a "rename" hits a key
    of an exponent map or an entry of a variables list (`renamed` parents)."""
    nodes = list(_paths(doc))
    kinds = [
        st.tuples(
            st.just("replace"),
            st.sampled_from(nodes),
            st.one_of(st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=3),
                      st.none(), st.just({})),
        ),
        st.tuples(
            st.just("drop"),
            st.sampled_from([p for p in nodes if p and isinstance(p[-1], str)]),
            st.none(),
        ),
    ]
    renamable = [p for p in nodes if p[-2:-1] in tuple((r,) for r in renamed)]
    if renamable:
        kinds.append(st.tuples(st.just("rename"), st.sampled_from(renamable),
                               st.sampled_from(["x", "y", "z"])))
    return st.one_of(*kinds)


def mutated(doc, mutation):
    """A deep copy of doc with the mutation applied."""
    kind, path, value = mutation
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if kind == "replace":
        parent[path[-1]] = value
    elif kind == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):  # an exponent map: rename the key
        parent[value] = parent.pop(path[-1])
    else:  # the variables list
        parent[path[-1]] = value
    return doc
