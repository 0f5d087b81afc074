"""Binary adapter checkpoints.

Layout (all integers and floats little-endian):

    magic            4 bytes  b"SNLA"
    format version   u16      currently 1
    layer count      u32
    per layer:
        m, n, r      u32 x 3
        kind id      u16      (the kind's kind_id in kernels.KINDS)
        coeff count  u32
        coeffs       f64 x count   (in the order of the kind's row)
        A blob       f64 x (n * r), row-major
        B blob       f64 x (m * r), row-major
    checksum         8 bytes  blake2b(digest_size=8) of everything above

Only the learnable adapter state is stored (factors and kernel
coefficients); frozen base weights are not part of the format. Round-trips
are bit-exact. A file whose sizes disagree with its payload, whose rank
lies outside [1, min(m, n)], or whose coefficient count does not fit its
kind is rejected with a CheckpointError.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import KINDS, KernelKind, KernelSpec, LowRankPair
from .tensor import Tensor

MAGIC = b"SNLA"
FORMAT_VERSION = 1
_LAYER_HEADER = struct.Struct("<IIIHI")


class CheckpointError(ValueError):
    """Base class for checkpoint problems."""


class BadMagicError(CheckpointError):
    pass


class UnsupportedVersionError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


@dataclass
class LayerRecord:
    m: int
    n: int
    r: int
    kind: KernelKind
    coefficients: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def to_pair_and_spec(self, trainable: bool = True):
        pair = LowRankPair(
            A=Tensor(self.a, requires_grad=trainable),
            B=Tensor(self.b, requires_grad=trainable),
        )
        spec = KernelSpec.from_coefficient_values(self.kind, self.coefficients, trainable)
        return pair, spec


def _layer_records(source) -> list:
    if hasattr(source, "adapted_layers"):
        layers = source.adapted_layers()
    else:
        layers = list(source)
    records = []
    for layer in layers:
        pair, spec = layer.pair, layer.spec
        records.append(
            LayerRecord(
                m=pair.m,
                n=pair.n,
                r=pair.r,
                kind=spec.kind,
                coefficients=spec.coefficient_values(),
                a=np.ascontiguousarray(pair.A.data),
                b=np.ascontiguousarray(pair.B.data),
            )
        )
    return records


def _f64_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(source, path) -> None:
    """Write the adapter state of a model (or list of adapted layers)."""
    records = _layer_records(source)
    parts = [MAGIC, struct.pack("<H", FORMAT_VERSION), struct.pack("<I", len(records))]
    for rec in records:
        parts.append(_LAYER_HEADER.pack(rec.m, rec.n, rec.r,
                                        KINDS[rec.kind].kind_id, rec.coefficients.size))
        parts.append(_f64_bytes(rec.coefficients))
        parts.append(_f64_bytes(rec.a))
        parts.append(_f64_bytes(rec.b))
    payload = b"".join(parts)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    Path(path).write_bytes(payload + digest)


def load_checkpoint(path) -> list:
    """Read layer records back; every float is bit-identical to what was saved."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError(f"not an adapter checkpoint: bad magic {blob[:4]!r}")
    if len(blob) < 6:
        raise ChecksumError("file truncated before version field")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    if len(blob) < 8 + 10:
        raise ChecksumError("file truncated")
    payload, digest = blob[:-8], blob[-8:]
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise ChecksumError("checksum mismatch (file corrupted or truncated)")

    (count,) = struct.unpack_from("<I", payload, 6)
    offset = 10
    records = []
    for i in range(count):
        if _LAYER_HEADER.size > len(payload) - offset:
            raise CheckpointError(f"layer {i} header runs past the payload")
        m, n, r, kind_id, n_coeff = _LAYER_HEADER.unpack_from(payload, offset)
        offset += _LAYER_HEADER.size
        row = next((row for row in KINDS.values() if row.kind_id == kind_id), None)
        if row is None:
            raise CheckpointError(f"unknown kernel kind id {kind_id}")
        if r > min(m, n):
            raise CheckpointError(f"layer {i}: rank {r} exceeds min(m, n) = {min(m, n)}")
        if r == 0:
            raise CheckpointError(f"layer {i}: rank 0 (no writer stores a layer without factors)")
        try:
            pieces = row.pieces_for(n_coeff)
        except ValueError as err:
            raise CheckpointError(f"layer {i}: {err}") from None
        if row.piecewise and pieces > r:
            raise CheckpointError(f"layer {i}: piece count {pieces} exceeds rank {r}")
        sizes = (n_coeff, n * r, m * r)
        if 8 * sum(sizes) > len(payload) - offset:
            raise CheckpointError(f"layer {i} needs {8 * sum(sizes)} bytes, the payload has "
                                  f"{len(payload) - offset} left")
        blobs = []
        for size in sizes:
            blobs.append(np.frombuffer(payload, dtype="<f8", count=size, offset=offset).copy())
            offset += 8 * size
        coeffs, a, b = blobs
        records.append(LayerRecord(m=m, n=n, r=r, kind=row.kind, coefficients=coeffs,
                                   a=a.reshape(n, r), b=b.reshape(m, r)))
    if offset != len(payload):
        raise CheckpointError(f"{len(payload) - offset} trailing bytes after last layer")
    return records


def install_records(model, records) -> None:
    """Write records into an existing model's adapter tensors, in place.

    Every record must match its layer's shape, rank, kernel kind and piece
    count; a mismatch is a CheckpointError raised before any layer changes.
    Writing in place keeps each tensor's identity, so a grouped layer's
    tensors stay views of its group's parameter blocks.
    """
    layers = model.adapted_layers() if hasattr(model, "adapted_layers") else list(model)
    if len(layers) != len(records):
        raise CheckpointError(f"model has {len(layers)} layers, checkpoint {len(records)}")
    specs = []
    for i, (layer, rec) in enumerate(zip(layers, records)):
        if (layer.m, layer.n) != (rec.m, rec.n):
            raise CheckpointError(
                f"layer is {(layer.m, layer.n)} but record is {(rec.m, rec.n)}"
            )
        spec = KernelSpec.from_coefficient_values(rec.kind, rec.coefficients, trainable=False)
        have, want = _layout(layer.pair.r, layer.spec), _layout(rec.r, spec)
        if have != want:
            raise CheckpointError(f"layer {i} is {have} but its record is {want}")
        shapes = (np.shape(rec.a), np.shape(rec.b))
        if shapes != (layer.pair.A.data.shape, layer.pair.B.data.shape):
            raise CheckpointError(f"layer {i}: record factors have shapes {shapes}")
        specs.append(spec)
    for layer, rec, spec in zip(layers, records, specs):
        layer.pair.A.data[...] = rec.a
        layer.pair.B.data[...] = rec.b
        for tensor, value in zip(layer.spec.coeffs, spec.coeffs):
            tensor.data[...] = value.data


def _layout(r: int, spec: KernelSpec) -> str:
    """Rank, kind and, for kinds with per-piece coefficients, piece count."""
    pieces = f" with {spec.pieces} pieces" if KINDS[spec.kind].piecewise else ""
    return f"rank {r} {spec.kind.value}{pieces}"
