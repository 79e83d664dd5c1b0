"""The ``--json`` renderer: ``indented(payload)`` is
``json.dumps(payload, indent=2)``, byte for byte.

``indent`` switches the stdlib to its pure-Python encoder, too slow for the
long row lists ``enumerate`` (up to 2,601 rows) and ``surface-classes``
(104 at genus 50) write, so the common shapes are written here.
``seifinv.cli`` imports this module, and with it ``json``, only for a
command run with ``--json``.
"""

from __future__ import annotations

from itertools import chain
from json import dumps
from json.encoder import encode_basestring_ascii as text


def _scalar(v):
    """The JSON text of a str, int, bool or None, else None."""
    if type(v) is str:
        return text(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    return int.__repr__(v) if type(v) is int else None


def _value(v):
    """The JSON text of a value of the payload, one level deep."""
    if (s := _scalar(v)) is not None:
        return s
    keys = type(v) is list and v and type(v[0]) is dict and tuple(v[0])
    if keys and all(type(row) is dict and tuple(row) == keys for row in v):
        cells = tuple(map(_scalar, chain.from_iterable(map(dict.values, v))))
        if None not in cells:
            fields = ",\n      ".join([text(k).replace("%", "%%") + ": %s" for k in keys])
            rows = ",\n    ".join(["{\n      " + fields + "\n    }"] * len(v))
            return "[\n    " + rows % cells + "\n  ]"
    return dumps(v, indent=2).replace("\n", "\n  ")


def indented(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte.

    A value of a non-empty dict payload that is a str, int, bool or None, or
    a list of dicts all with the first one's keys, in its order, and such
    values, is written here, a list by one %-format of its rows' template
    repeated; everything else goes to ``json.dumps``.
    """
    if type(payload) is not dict or not payload:
        return dumps(payload, indent=2)
    return "{\n  " + ",\n  ".join([text(k) + ": " + _value(v) for k, v in payload.items()]) + "\n}"
