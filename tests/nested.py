"""Re-nest the flat JSON documents into the nested shapes they replaced.

The proof log, the strategy and the AST are written as flat lists of nodes
that name each other by index. The pins recorded on the nested shapes still
check the content through these decoders: a decoded document hashes as the
nested one did, byte for byte. ``json_depth`` measures how deep a document
nests.
"""


def nested_proof(tableau: list[dict]) -> dict:
    """The proof log as one dict per node, each branch point's cases
    inside it: ``{"steps", "closed"}`` or ``{"steps", "branch": {"on",
    "cases"}}``."""
    built: list[dict] = []
    for node in tableau:
        out = {"steps": node["steps"]}
        if "closed" in node:
            out["closed"] = node["closed"]
        else:
            out["branch"] = {"on": node["branch"]["on"], "cases": []}
        if node["parent"] is not None:
            built[node["parent"]]["branch"]["cases"].append(out)
        built.append(out)
    return built[0]


def nested_verdict(doc: dict) -> dict:
    """``verdict_to_json``'s document with a valid verdict's log nested."""
    if not doc["valid"]:
        return doc
    proof = doc["proof"]
    return {**doc, "proof": {**proof, "tableau": nested_proof(proof["tableau"])}}


def nested_strategy(nodes: list[dict] | None) -> dict | None:
    """The strategy as one dict per position: ``{"turn", "end"}`` where the
    mover cannot move, ``{"turn", "move", "next"}`` for P's choice, and
    ``{"turn", "children": [{"move", "next"}, ...]}`` for O's moves."""
    if nodes is None:
        return None
    built: list[dict] = []
    for node in nodes:
        out = {"turn": node["turn"]}
        if "end" in node:
            out["end"] = node["end"]
        if node["parent"] is not None:
            parent = built[node["parent"]]
            if parent["turn"] == "P":
                parent["move"], parent["next"] = node["move"], out
            else:
                parent.setdefault("children", []).append(
                    {"move": node["move"], "next": out}
                )
        built.append(out)
    return built[0]


def nested_ast(doc: dict) -> dict:
    """The AST as one dict per node, ``{kind: value}``, each child's dict
    where its index was."""
    built: list[dict] = []
    for node in doc["nodes"]:
        ((kind, value),) = node.items()
        if isinstance(value, int):
            value = built[value]
        elif isinstance(value, list):
            value = [built[i] for i in value]
        elif isinstance(value, dict):
            value = {**value, "body": built[value["body"]]}
        built.append({kind: value})
    return built[-1]


def json_depth(doc) -> int:
    """How many levels a JSON value nests: 1 for a scalar or an empty
    container, one more than its deepest item for any other container."""
    depth, stack = 1, [(doc, 1)]
    while stack:
        value, d = stack.pop()
        depth = max(depth, d)
        if isinstance(value, dict):
            stack.extend((item, d + 1) for item in value.values())
        elif isinstance(value, list):
            stack.extend((item, d + 1) for item in value)
    return depth
