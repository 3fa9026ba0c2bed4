"""Minimal MaxMind DB (.mmdb) encoder — spec-based, for fixtures/tests.

Writes a valid ip_version=4, record_size=24 database from a list of
(cidr, attrs) pairs, per the public MaxMind DB File Format Specification
v2.0. Exists so the reader (enrich/mmdb.py) can be conformance-tested in
a sandbox with no downloadable databases; it is also a usable tool for
packaging small curated range sets as standard .mmdb files.

Nested networks split on insert (a /24 inside a /16 pushes the /16's
data down the other branches), so lookups follow longest-prefix-wins —
the same disjoint-tree shape real databases have.
"""

from __future__ import annotations

import ipaddress
import struct
import time


def _enc_size(typ: int, size: int, ext: int | None = None) -> bytes:
    """Control byte(s) for a type and payload size."""
    head = typ << 5 if ext is None else 0
    out = bytearray()
    if size < 29:
        out.append(head | size)
    elif size < 285:
        out.append(head | 29)
        ext_bytes = bytes([size - 29])
    elif size < 65821:
        out.append(head | 30)
        ext_bytes = struct.pack(">H", size - 285)
    else:
        out.append(head | 31)
        ext_bytes = (size - 65821).to_bytes(3, "big")
    if ext is not None:
        out.append(ext)
    if size >= 29:
        out.extend(ext_bytes)
    return bytes(out)


def _enc_value(v) -> bytes:
    if isinstance(v, bool):
        # extended type 14; the size field IS the value, payload empty
        return bytes([(0 << 5) | (1 if v else 0), 14 - 7])
    if isinstance(v, str):
        b = v.encode("utf-8")
        return _enc_size(2, len(b)) + b
    if isinstance(v, bytes):
        return _enc_size(4, len(v)) + v
    if isinstance(v, float):
        return _enc_size(3, 8) + struct.pack(">d", v)
    if isinstance(v, int):
        if v < 0:
            return _enc_size(0, 4, ext=8 - 7) + struct.pack(">i", v)
        if v < 1 << 16:
            b = v.to_bytes((v.bit_length() + 7) // 8, "big") if v else b""
            return _enc_size(5, len(b)) + b
        if v < 1 << 32:
            b = v.to_bytes((v.bit_length() + 7) // 8, "big")
            return _enc_size(6, len(b)) + b
        b = v.to_bytes((v.bit_length() + 7) // 8, "big")
        return _enc_size(0, len(b), ext=9 - 7) + b
    if isinstance(v, dict):
        out = bytearray(_enc_size(7, len(v)))
        for k, val in v.items():
            out.extend(_enc_value(str(k)))
            out.extend(_enc_value(val))
        return bytes(out)
    if isinstance(v, (list, tuple)):
        out = bytearray(_enc_size(0, len(v), ext=11 - 7))
        for val in v:
            out.extend(_enc_value(val))
        return bytes(out)
    raise TypeError(f"cannot encode {type(v)}")


class _Node:
    __slots__ = ("left", "right")

    def __init__(self):
        self.left = None   # None | _Node | ("data", idx)
        self.right = None


def write_mmdb(path: str, networks: list[tuple[str, dict]],
               database_type: str = "axosyslog-ray-Test",
               record_size: int = 24) -> None:
    if record_size not in (24, 28, 32):
        raise ValueError("record_size must be 24, 28 or 32")
    root = _Node()
    data_items: list[dict] = []

    def insert(net: ipaddress.IPv4Network, idx: int):
        node = root
        addr = int(net.network_address)
        for depth in range(net.prefixlen):
            bit = (addr >> (31 - depth)) & 1
            attr = "right" if bit else "left"
            child = getattr(node, attr)
            last = depth == net.prefixlen - 1
            if last:
                setattr(node, attr, ("data", idx))
                return
            if child is None:
                nxt = _Node()
                setattr(node, attr, nxt)
            elif isinstance(child, tuple):
                # split: push existing data down both branches
                nxt = _Node()
                nxt.left = child
                nxt.right = child
                setattr(node, attr, nxt)
            else:
                nxt = child
            node = nxt

    for cidr, attrs in sorted(networks, key=lambda p: ipaddress.ip_network(
            p[0], strict=False).prefixlen):
        net = ipaddress.ip_network(cidr, strict=False)
        data_items.append(attrs)
        insert(net, len(data_items) - 1)

    # number nodes (pre-order) and serialize the data section
    nodes: list[_Node] = []

    def collect(n: _Node):
        nodes.append(n)
        for c in (n.left, n.right):
            if isinstance(c, _Node):
                collect(c)

    collect(root)
    node_ids = {id(n): i for i, n in enumerate(nodes)}
    node_count = len(nodes)

    data = bytearray()
    offsets = []
    for item in data_items:
        offsets.append(len(data))
        data.extend(_enc_value(item))

    def record(c) -> int:
        if c is None:
            return node_count           # "no data" sentinel
        if isinstance(c, _Node):
            return node_ids[id(c)]
        return node_count + 16 + offsets[c[1]]

    tree = bytearray()
    for n in nodes:
        l, r = record(n.left), record(n.right)
        if record_size == 24:
            tree.extend(l.to_bytes(3, "big"))
            tree.extend(r.to_bytes(3, "big"))
        elif record_size == 28:
            # 7 bytes: left low 24 bits, middle byte = both high nibbles,
            # right low 24 bits (spec 'Record Layout')
            tree.extend((l & 0xFFFFFF).to_bytes(3, "big"))
            tree.append(((l >> 24) << 4) | (r >> 24))
            tree.extend((r & 0xFFFFFF).to_bytes(3, "big"))
        else:
            tree.extend(struct.pack(">II", l, r))

    meta = {
        "binary_format_major_version": 2,
        "binary_format_minor_version": 0,
        "build_epoch": int(time.time()),
        "database_type": database_type,
        "description": {"en": "synthetic test db"},
        "ip_version": 4,
        "languages": ["en"],
        "node_count": node_count,
        "record_size": record_size,
    }
    with open(path, "wb") as fh:
        fh.write(bytes(tree))
        fh.write(b"\x00" * 16)
        fh.write(bytes(data))
        fh.write(b"\xab\xcd\xefMaxMind.com")
        fh.write(_enc_value(meta))
