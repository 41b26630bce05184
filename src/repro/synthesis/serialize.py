"""SNode (de)serialization and dictionary fingerprinting.

Synthesized programs reference live ``AutoLLVMOp``/``TargetBinding``
objects, which only exist relative to one generated dictionary.  To
persist a :class:`~repro.synthesis.cache.CacheEntry` across processes we
serialize programs structurally — instruction applications are stored by
their target-instruction name and re-resolved through the dictionary's
reverse index on load.  A cache written against one dictionary is only
sound against an identical one, so every on-disk store is namespaced by
:func:`dictionary_fingerprint`, which hashes the dictionary's full
class/binding structure together with the grammar and format versions.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.autollvm.intrinsics import AutoLLVMDictionary
from repro.synthesis.cache import CacheEntry
from repro.persist import GRAMMAR_VERSION
from repro.synthesis.program import (
    SConcat,
    SConstant,
    SHole,
    SInput,
    SNode,
    SOp,
    SSlice,
    SSwizzle,
)

# Bump when the on-disk program encoding changes shape.
SERIALIZE_VERSION = 1


class SerializeError(ValueError):
    """A program cannot be encoded or decoded (e.g. unknown instruction)."""


def snode_to_obj(node: SNode) -> dict[str, Any]:
    """A JSON-able structural encoding of a candidate program."""
    if isinstance(node, SInput):
        return {
            "kind": "input",
            "name": node.name,
            "lanes": node.lanes,
            "elem_width": node.elem_width,
        }
    if isinstance(node, SConstant):
        return {
            "kind": "const",
            "value": node.value,
            "lanes": node.lanes,
            "elem_width": node.elem_width,
        }
    if isinstance(node, SHole):
        # Holes never appear in cache entries — only in rule templates
        # (rules.json carries its own RULES_VERSION), so this kind does
        # not bump SERIALIZE_VERSION.
        return {
            "kind": "hole",
            "name": node.name,
            "lanes": node.lanes,
            "elem_width": node.elem_width,
        }
    if isinstance(node, SSlice):
        return {"kind": "slice", "high": node.high, "src": snode_to_obj(node.src)}
    if isinstance(node, SConcat):
        return {
            "kind": "concat",
            "high": snode_to_obj(node.high_part),
            "low": snode_to_obj(node.low_part),
        }
    if isinstance(node, SSwizzle):
        return {
            "kind": "swizzle",
            "pattern": node.pattern,
            "args": [snode_to_obj(a) for a in node.args],
            "elem_width": node.elem_width,
            "out_bits": node.out_bits,
            "amount": node.amount,
        }
    if isinstance(node, SOp):
        return {
            "kind": "op",
            "spec": node.binding.spec.name,
            "args": [snode_to_obj(a) for a in node.args],
            "imm_values": list(node.imm_values),
            "scaled_values": (
                None if node.scaled_values is None else list(node.scaled_values)
            ),
            "out_bits": node.out_bits,
        }
    raise SerializeError(f"cannot serialize node type {type(node).__name__}")


def snode_from_obj(obj: dict[str, Any], dictionary: AutoLLVMDictionary) -> SNode:
    """Rebuild a program, resolving instructions through ``dictionary``."""
    kind = obj.get("kind")
    if kind == "input":
        return SInput(obj["name"], obj["lanes"], obj["elem_width"])
    if kind == "const":
        return SConstant(obj["value"], obj["lanes"], obj["elem_width"])
    if kind == "hole":
        return SHole(obj["name"], obj["lanes"], obj["elem_width"])
    if kind == "slice":
        return SSlice(snode_from_obj(obj["src"], dictionary), obj["high"])
    if kind == "concat":
        return SConcat(
            snode_from_obj(obj["high"], dictionary),
            snode_from_obj(obj["low"], dictionary),
        )
    if kind == "swizzle":
        return SSwizzle(
            obj["pattern"],
            tuple(snode_from_obj(a, dictionary) for a in obj["args"]),
            obj["elem_width"],
            obj["out_bits"],
            obj.get("amount", 0),
        )
    if kind == "op":
        spec_name = obj["spec"]
        op = dictionary.by_target_instruction.get(spec_name)
        if op is None:
            raise SerializeError(f"unknown target instruction {spec_name!r}")
        binding = next(
            (b for b in op.bindings if b.spec.name == spec_name), None
        )
        if binding is None:
            raise SerializeError(f"no binding for {spec_name!r} in {op.name}")
        scaled = obj.get("scaled_values")
        return SOp(
            op,
            binding,
            tuple(snode_from_obj(a, dictionary) for a in obj["args"]),
            tuple(obj.get("imm_values", ())),
            None if scaled is None else tuple(scaled),
            obj["out_bits"],
        )
    raise SerializeError(f"unknown node kind {kind!r}")


def entry_to_obj(key: str, entry: CacheEntry) -> dict[str, Any]:
    """One cache entry as a JSON-able record (the key is stored for gc/stats)."""
    return {
        "version": SERIALIZE_VERSION,
        "key": key,
        "program": snode_to_obj(entry.program),
        "cost": entry.cost,
        "input_order": list(entry.input_order),
    }


def entry_from_obj(
    obj: dict[str, Any], dictionary: AutoLLVMDictionary
) -> tuple[str, CacheEntry]:
    if obj.get("version") != SERIALIZE_VERSION:
        raise SerializeError(f"unsupported entry version {obj.get('version')!r}")
    entry = CacheEntry(
        snode_from_obj(obj["program"], dictionary),
        float(obj["cost"]),
        list(obj["input_order"]),
    )
    return obj["key"], entry


def entry_to_json(key: str, entry: CacheEntry) -> str:
    return json.dumps(entry_to_obj(key, entry), sort_keys=True)


def entry_from_json(
    text: str, dictionary: AutoLLVMDictionary
) -> tuple[str, CacheEntry]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializeError(f"corrupt cache entry: {exc}") from exc
    return entry_from_obj(obj, dictionary)


def dictionary_fingerprint(
    dictionary: AutoLLVMDictionary, extra: tuple[str, ...] = ()
) -> str:
    """A stable hash of everything a cached program's validity depends on.

    Covers the serialization format, the grammar version, and the full
    dictionary structure (class ids, member instruction names and their
    parameter vectors).  Any dictionary regeneration that changes a class
    or a member's parameters changes the fingerprint, soundly invalidating
    every persisted entry produced under the old one.

    The plain digest (no ``extra``) is memoised on the dictionary object:
    hashing ~250 ops costs tens of milliseconds, every cache open needs
    it, and a dictionary never changes after it is built.
    """
    if not extra and dictionary._fingerprint is not None:
        return dictionary._fingerprint
    digest = hashlib.sha256()
    digest.update(f"serialize:{SERIALIZE_VERSION}\n".encode())
    digest.update(f"grammar:{GRAMMAR_VERSION}\n".encode())
    digest.update(f"isas:{','.join(dictionary.isas)}\n".encode())
    for op in sorted(dictionary.ops, key=lambda o: o.name):
        digest.update(f"op:{op.name}:{op.class_id}\n".encode())
        for binding in sorted(op.bindings, key=lambda b: b.spec.name):
            values = ",".join(str(v) for v in binding.member.values())
            digest.update(f"  member:{binding.spec.name}:{values}\n".encode())
    for item in extra:
        digest.update(f"extra:{item}\n".encode())
    fingerprint = digest.hexdigest()
    if not extra:
        dictionary._fingerprint = fingerprint
    return fingerprint
