"""Mutations of decoded JSON for the refusal tests: every location inside a
document, and one change made at one of them."""

OTHER_TYPE = {str: 0, int: "1", float: "1.0", list: {}, dict: []}


def locations(value, at=()):
    """The path of every value inside `value`, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*at, key)
        yield from locations(child, (*at, key))


def mutate(document, where, how, offset):
    """Apply one mutation at `where`: "delete" it, "retype" it, make it a
    "bool", "flip-hex" one digit of a 0x string, or insert a lone
    "surrogate" into a string; False when `how` does not apply there."""
    *up, last = where
    parent = document
    for key in up:
        parent = parent[key]
    value = parent[last]
    if how == "delete":
        del parent[last]
    elif how == "retype":
        parent[last] = OTHER_TYPE[type(value)]
    elif how == "bool":
        parent[last] = True
    elif not isinstance(value, str):
        return False
    elif how == "flip-hex":
        if not value.startswith("0x") or len(value) < 3:
            return False
        k = 2 + offset % (len(value) - 2)
        parent[last] = value[:k] + "0123456789abcdef"[int(value[k], 16) ^ 1] + value[k + 1:]
    else:
        k = offset % (len(value) + 1)
        parent[last] = value[:k] + "\ud800" + value[k:]
    return True
