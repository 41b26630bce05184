"""The on-disk IR-generation artifact: the equivalence classes.

The paper runs the Automatic IR Generator once, offline, over every
target's specs; this module makes that phase a cacheable artifact over
every registered ISA (an ISA subset is a restriction of it, see
:func:`repro.similarity.eqclass.restrict_classes`).  Layout under a
cache root directory (mirroring :mod:`repro.service.store`'s
conventions)::

    <root>/
      <fingerprint16>/
        meta.json        # fingerprint, versions, isas, build stats
        artifact.json    # equivalence classes with full symbolic semantics

The fingerprint (:func:`irgen_fingerprint`) hashes every registered
spec's text and structure (name, operands, output width, pseudocode,
family, extension) together with the engine/grammar/format versions, so
any change to a vendor spec, to the registry or to the similarity
algorithm lands in a fresh namespace and stale artifacts are never
replayed.  Writes are atomic and idempotent;
racing builders produce byte-identical files.

Class members persist with their *full* parameterized semantics, so a
warm load reconstructs the AutoLLVM dictionary without parsing a single
line of vendor pseudocode — target :class:`InstructionSpec` objects are
re-resolved from the cheap, freshly generated catalogs (their fuzzer
reference callables cannot be serialized, and re-resolving keeps them
live).  ``artifact.json`` (format 2) holds one node table
(:mod:`repro.hydride_ir.serialize`) under ``nodes`` — each distinct IR
subtree of every member once — and per class a list of ``[arg_order,
record]`` members, whose :func:`symbolic_record` refers to table rows by
index.  The parse pool sends the same records to the parent.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import faults
from repro.hydride_ir.ast import BvExpr, Input
from repro.hydride_ir.indexexpr import IndexExpr
from repro.hydride_ir.serialize import NodeTable, node_at
from repro.isa.registry import load_catalog, supported_isas
from repro.persist import GRAMMAR_VERSION, atomic_write
from repro.similarity.constants import SymbolicSemantics
from repro.similarity.engine import ENGINE_VERSION, EngineStats
from repro.similarity.eqclass import ClassMember, EquivalenceClass

# Bump when the artifact encoding changes shape.
IRGEN_FORMAT_VERSION = 2

META_FILE = "meta.json"
ARTIFACT_FILE = "artifact.json"
FINGERPRINT_DIR_CHARS = 16


class ArtifactError(ValueError):
    """An artifact cannot be encoded, decoded, or trusted."""


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------


def irgen_fingerprint(
    subset: tuple[str, ...] = (),
    extra: tuple[str, ...] = (),
    catalogs: dict[str, Any] | None = None,
) -> str:
    """A stable hash of everything the generated IR depends on.

    Covers the artifact format, the similarity-engine version, the
    synthesis grammar version, and the full spec text of every registered
    ISA.  ``catalogs`` (ISA -> specs) is injectable for tests and then
    stands in for the registry; by default the (cheap) generated catalogs
    are used.  ``subset`` does not enter the hash: every ISA subset is
    served by the one artifact.  It is a shim for ``bench_e2e/report.py``,
    which still passes an ISA tuple; delete it once the benchmark stops.
    """
    isas = tuple(catalogs) if catalogs is not None else supported_isas()
    digest = hashlib.sha256()
    digest.update(f"irgen:{IRGEN_FORMAT_VERSION}\n".encode())
    digest.update(f"engine:{ENGINE_VERSION}\n".encode())
    digest.update(f"grammar:{GRAMMAR_VERSION}\n".encode())
    digest.update(f"isas:{','.join(isas)}\n".encode())
    for isa in isas:
        catalog = catalogs[isa] if catalogs is not None else load_catalog(isa)
        for spec in catalog:
            operands = ",".join(
                f"{op.name}:{op.width}:{int(op.is_immediate)}"
                for op in spec.operands
            )
            digest.update(
                f"spec:{spec.isa}:{spec.name}:{spec.family}:{spec.extension}"
                f":{spec.output_width}:[{operands}]\n".encode()
            )
            digest.update(spec.pseudocode.encode())
            digest.update(b"\n")
    for item in extra:
        digest.update(f"extra:{item}\n".encode())
    return digest.hexdigest()


def partition_digest(classes: list[EquivalenceClass]) -> str:
    """A hash of the class partition: member names, orders, parameter
    vectors and fixed parameters.  Serial, sharded and artifact-loaded
    runs must agree on this digest bit-for-bit — the determinism gate
    ``tests/test_irgen.py`` enforces."""
    digest = hashlib.sha256()
    for cls in classes:
        digest.update(f"class:{cls.class_id}\n".encode())
        for member in cls.members:
            values = ",".join(str(v) for v in member.values())
            order = ",".join(str(i) for i in member.arg_order)
            digest.update(
                f"  member:{member.isa}:{member.name}:[{order}]:[{values}]"
                f":{len(member.symbolic.param_names)}\n".encode()
            )
        fixed = ",".join(
            f"{k}={v}" for k, v in sorted(cls.fixed_params.items())
        )
        digest.update(f"  fixed:[{fixed}]\n".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The artifact object
# ----------------------------------------------------------------------


@dataclass
class IrgenArtifact:
    """Everything the offline phase produces, plus build provenance."""

    isas: tuple[str, ...]
    fingerprint: str
    classes: list[EquivalenceClass]
    stats: EngineStats
    phase_seconds: dict[str, float] = field(default_factory=dict)
    jobs: int = 1
    built_at: str = ""
    # Path the artifact was loaded from; None for freshly built ones.
    loaded_from: str | None = None
    # Rows of its node table on disk; 0 until persisted or loaded.
    nodes: int = 0

    @property
    def loaded(self) -> bool:
        return self.loaded_from is not None

    def digest(self) -> str:
        return partition_digest(self.classes)

    def summary(self) -> dict:
        return {
            "isas": list(self.isas),
            "fingerprint": self.fingerprint,
            "classes": len(self.classes),
            "instructions": self.stats.instructions,
            "jobs": self.jobs,
            "built_at": self.built_at,
            "loaded_from": self.loaded_from,
            "format": IRGEN_FORMAT_VERSION,
            "nodes": self.nodes,
            "stats": self.stats.to_dict(),
            "phase_seconds": {
                k: round(v, 4) for k, v in sorted(self.phase_seconds.items())
            },
        }


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def symbolic_record(table: NodeTable, symbolic: SymbolicSemantics) -> list:
    """``symbolic`` as ``[name, isa, inputs, body, params, skeleton]``,
    its IR interned into ``table``: each input is ``[name, width row,
    is_immediate]``, ``body`` is a row, and ``params`` are ordered
    ``[name, value]`` pairs (the canonical alpha_1..alpha_r order)."""
    return [
        symbolic.name,
        symbolic.isa,
        [
            [inp.name, table.add(inp.width), int(inp.is_immediate)]
            for inp in symbolic.inputs
        ],
        table.add(symbolic.body),
        [[name, symbolic.param_values[name]] for name in symbolic.param_names],
        symbolic.skeleton,
    ]


def symbolic_from_record(nodes: list, record: list) -> SymbolicSemantics:
    """Inverse of :func:`symbolic_record` over the decoded table ``nodes``."""
    name, isa, inputs, body, params, skeleton = record
    return SymbolicSemantics(
        name,
        isa,
        tuple(
            Input(input_name, node_at(nodes, width, IndexExpr), bool(immediate))
            for input_name, width, immediate in inputs
        ),
        node_at(nodes, body, BvExpr),
        tuple(param for param, _value in params),
        {param: value for param, value in params},
        skeleton,
    )


def artifact_to_obj(artifact: IrgenArtifact) -> dict[str, Any]:
    table = NodeTable()
    classes = [
        {
            "id": cls.class_id,
            "members": [
                [list(m.arg_order), symbolic_record(table, m.symbolic)]
                for m in cls.members
            ],
        }
        for cls in artifact.classes
    ]
    return {
        "version": IRGEN_FORMAT_VERSION,
        "fingerprint": artifact.fingerprint,
        "isas": list(artifact.isas),
        "jobs": artifact.jobs,
        "built_at": artifact.built_at,
        "stats": artifact.stats.to_dict(),
        "phase_seconds": artifact.phase_seconds,
        "nodes": table.rows,
        "classes": classes,
    }


def artifact_from_obj(obj: dict[str, Any]) -> IrgenArtifact:
    version = obj.get("version") if isinstance(obj, dict) else None
    if version != IRGEN_FORMAT_VERSION:
        raise ArtifactError(f"unsupported artifact version {version!r}")
    try:
        rows = obj["nodes"]
        nodes = NodeTable().extend(rows)
        classes: list[EquivalenceClass] = []
        for cls_obj in obj["classes"]:
            cls = EquivalenceClass(int(cls_obj["id"]))
            cls.members = [
                ClassMember(symbolic_from_record(nodes, record), tuple(order))
                for order, record in cls_obj["members"]
            ]
            # Cheaper to recompute than to trust: fixed parameters are a
            # pure function of the member parameter vectors.
            cls.compute_fixed_params()
            classes.append(cls)
        return IrgenArtifact(
            isas=tuple(obj["isas"]),
            fingerprint=obj["fingerprint"],
            classes=classes,
            stats=EngineStats.from_dict(obj.get("stats", {})),
            phase_seconds=dict(obj.get("phase_seconds", {})),
            jobs=int(obj.get("jobs", 1)),
            built_at=obj.get("built_at", ""),
            nodes=len(rows),
        )
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise ArtifactError(f"corrupt artifact payload: {exc!r}") from exc


# ----------------------------------------------------------------------
# Store I/O
# ----------------------------------------------------------------------


def artifact_dir(root: str | Path, fingerprint: str) -> Path:
    return Path(root) / fingerprint[:FINGERPRINT_DIR_CHARS]


def _payload_path(root: str | Path, fingerprint: str) -> Path:
    return artifact_dir(root, fingerprint) / ARTIFACT_FILE


def artifact_stored(root: str | Path, fingerprint: str) -> bool:
    """True when the store under ``root`` holds a payload for
    ``fingerprint`` (whether it decodes is :func:`load_artifact`'s call)."""
    return _payload_path(root, fingerprint).exists()


def persist_artifact(root: str | Path, artifact: IrgenArtifact) -> Path:
    """Atomically write ``meta.json`` + ``artifact.json``; returns the
    namespace directory."""
    faults.trip("irgen.save", detail=artifact.fingerprint[:FINGERPRINT_DIR_CHARS])
    directory = artifact_dir(root, artifact.fingerprint)
    directory.mkdir(parents=True, exist_ok=True)
    payload = artifact_to_obj(artifact)
    artifact.nodes = len(payload["nodes"])
    atomic_write(
        directory / META_FILE,
        json.dumps(artifact.summary(), sort_keys=True, indent=2),
    )
    atomic_write(
        _payload_path(root, artifact.fingerprint),
        json.dumps(payload, sort_keys=True, separators=(",", ":")),
    )
    return directory


def load_artifact(
    root: str | Path, fingerprint: str
) -> IrgenArtifact | None:
    """Load the artifact for ``fingerprint``; None when absent/corrupt/stale.

    A payload whose recorded fingerprint disagrees with the requested one
    (e.g. a truncated-directory-name collision) is treated as a miss, so
    the caller rebuilds rather than trusting a mismatched artifact.
    Every miss on an *existing* file — torn write, corrupt JSON, stale
    schema — counts as a recovery: the caller rebuilds and overwrites
    instead of crashing.
    """
    if not artifact_stored(root, fingerprint):
        return None
    path = _payload_path(root, fingerprint)
    # The decoded trees are acyclic, so the cyclic collector would only
    # walk the growing heap over and over; pause it for the decode.
    collecting = gc.isenabled()
    gc.disable()
    try:
        faults.trip("irgen.load", detail=path.name)
        obj = json.loads(path.read_text())
        artifact = artifact_from_obj(obj)
    except (json.JSONDecodeError, OSError, ArtifactError):
        faults.recovered()
        return None
    finally:
        if collecting:
            gc.enable()
    if artifact.fingerprint != fingerprint:
        faults.recovered()
        return None
    artifact.loaded_from = str(path)
    return artifact


def store_inventory(root: str | Path) -> list[dict]:
    """Every persisted artifact namespace under ``root`` (CLI ``stats``).

    ``.tmp-*`` litter from killed writers is reported per namespace and
    excluded from the byte counts; files vanishing mid-scan are skipped.
    """
    root = Path(root)
    namespaces: list[dict] = []
    if not root.is_dir():
        return namespaces
    for directory in sorted(p for p in root.iterdir() if p.is_dir()):
        meta_path = directory / META_FILE
        payload = directory / ARTIFACT_FILE
        size = 0
        tmp_litter = 0
        for path in directory.glob("*.json"):
            if path.name.startswith(".tmp-"):
                tmp_litter += 1
                continue
            try:
                size += path.stat().st_size
            except OSError:
                continue
        entry: dict = {
            "dir": directory.name,
            "bytes": size,
            "tmp_litter": tmp_litter,
            "complete": payload.exists(),
        }
        try:
            entry.update(json.loads(meta_path.read_text()))
        except (json.JSONDecodeError, OSError):
            if meta_path.exists():
                entry["complete"] = False
        namespaces.append(entry)
    return namespaces


def timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")
