"""Bundled example networks.

Each bundled instance is one JSON file in `qnc4/data/`, in the general
layout.  `read_json` is the one reader for bundled names and file paths
alike; `bundled(name)` parses a bundled instance into a (Network,
ClassicalProtocol) pair ready for validation, normalization and
compilation.
"""

import json

from .errors import SchemaError
from .netgraph import ClassicalProtocol, LetterMap, Network, instance_from_json

HIGH_BIT = LetterMap((0, 0, 2, 2))
LOW_BIT = LetterMap((0, 1, 0, 1))

BUNDLED = ("butterfly", "butterfly-z4", "single-edge", "two-to-one-diamond")


def _object(pairs: list) -> dict:
    """A JSON object; json.loads alone keeps the last of repeated keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(name: str):
    """The JSON document of a bundled instance name or of a file path.

    Raises SchemaError when the file cannot be read, is not JSON or repeats
    a key within one object.
    """
    if name in BUNDLED:
        from importlib import resources

        text = resources.files("qnc4.data").joinpath(name + ".json").read_text()
    else:
        try:
            with open(name) as fh:
                text = fh.read()
        except FileNotFoundError:
            known = ", ".join(BUNDLED)
            raise SchemaError(
                f"{name!r} is neither a file nor a bundled instance ({known})"
            ) from None
        except OSError as e:
            raise SchemaError(f"{name}: cannot read ({e.strerror})") from None
        except UnicodeDecodeError as e:
            raise SchemaError(f"{name}: not valid JSON ({e})") from None
    try:
        return json.loads(text, object_pairs_hook=_object)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError(f"{name}: not valid JSON ({e})") from None
    except SchemaError as e:
        raise SchemaError(f"{name}: {e}") from None


def bundled(name: str) -> tuple[Network, ClassicalProtocol]:
    """The bundled instance `name`, parsed from its JSON file."""
    return instance_from_json(read_json(name))

