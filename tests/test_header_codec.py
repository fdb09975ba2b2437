"""Tests for the header wire format (repro.runtime.codec)."""

from __future__ import annotations

import random

import pytest

from repro.api import Network
from repro.graph.generators import random_strongly_connected
from repro.runtime.codec import BitReader, BitWriter, CodecError, HeaderCodec
from repro.runtime.scheme import Forward, Header
from repro.runtime.simulator import Simulator
from repro.runtime.sizing import header_bits, log2_squared
from repro.rtz.routing import R3Label
from repro.rtz.spanner import R2Label
from repro.schemes.exstretch import ExStretchScheme
from repro.schemes.polystretch import PolynomialStretchScheme
from repro.schemes.stretch6 import StretchSixScheme
from repro.tree_routing.fixed_port import TreeAddress


def normalize(value):
    """Tuples become lists across the wire; compare up to that."""
    if isinstance(value, (list, tuple)):
        return [normalize(x) for x in value]
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    return value


class TestBitPrimitives:
    def test_writer_reader_roundtrip(self):
        w = BitWriter()
        w.write(5, 4)
        w.write(1, 1)
        w.write(1023, 10)
        r = BitReader(w.getvalue())
        assert r.read(4) == 5
        assert r.read(1) == 1
        assert r.read(10) == 1023
        assert r.remaining == 0

    def test_writer_overflow_rejected(self):
        w = BitWriter()
        with pytest.raises(CodecError):
            w.write(16, 4)
        with pytest.raises(CodecError):
            w.write(-1, 4)

    def test_reader_truncation_detected(self):
        r = BitReader([1, 0, 1])
        with pytest.raises(CodecError):
            r.read(4)


class TestScalarEncoding:
    def test_scalars_roundtrip(self):
        codec = HeaderCodec(64)
        header: Header = {
            "mode": "out",
            "dest": 17,
            "dict_node": None,
            "returning": True,
            "hop": 2,
        }
        assert codec.decode(codec.encode(header)) == header

    def test_labels_roundtrip(self):
        codec = HeaderCodec(64)
        addr = TreeAddress(tree_id=3 * (1 << 20) + 7, dfs=11)
        r3 = R3Label(dest=5, center=9, addr=TreeAddress(2, 4))
        r2 = R2Label(addr.tree_id, addr, TreeAddress(addr.tree_id, 12))
        header: Header = {
            "src_label": r3,
            "label": r2,
            "src_addr": addr,
        }
        decoded = codec.decode(codec.encode(header))
        assert decoded["src_label"] == r3
        assert decoded["src_addr"] == addr
        out = decoded["label"]
        assert (out.addr_from, out.addr_to) == (r2.addr_from, r2.addr_to)

    def test_stack_roundtrip(self):
        codec = HeaderCodec(32)
        r2 = R2Label(1, TreeAddress(1, 2), TreeAddress(1, 3))
        header: Header = {"stack": [(4, r2), (7, r2.reversed())]}
        decoded = codec.decode(codec.encode(header))
        assert normalize(decoded["stack"])[0][0] == 4
        assert decoded["stack"][1][1].addr_to == r2.addr_from

    def test_unregistered_field_rejected(self):
        codec = HeaderCodec(16)
        with pytest.raises(CodecError):
            codec.encode({"bogus_field": 1})

    def test_unencodable_value_rejected(self):
        codec = HeaderCodec(16)
        with pytest.raises(CodecError):
            codec.encode({"dest": object()})

    def test_non_ascii_mode_rejected(self):
        codec = HeaderCodec(16)
        with pytest.raises(CodecError):
            codec.encode({"mode": "ü"})


def capture_headers(scheme, net: Network, pairs) -> list:
    """Route pairs and collect every in-flight header."""
    captured = []
    real_forward = scheme.forward

    def tap(at, header):
        decision = real_forward(at, header)
        if isinstance(decision, Forward):
            captured.append(decision.header)
        return decision

    scheme.forward = tap  # type: ignore[method-assign]
    sim = Simulator(scheme)
    for (s, t) in pairs:
        sim.roundtrip(s, net.naming().name_of(t))
    scheme.forward = real_forward  # type: ignore[method-assign]
    return captured


class TestLiveHeaders:
    @pytest.fixture(scope="class")
    def net(self) -> Network:
        g = random_strongly_connected(24, rng=random.Random(1))
        return Network(g, seed=2, store=None)

    @pytest.mark.parametrize("which", ["stretch6", "exstretch", "poly"])
    def test_every_live_header_roundtrips(self, net: Network, which: str):
        if which == "stretch6":
            scheme = StretchSixScheme(
                net.metric(), net.naming(), rng=random.Random(3)
            )
        elif which == "exstretch":
            scheme = ExStretchScheme(
                net.metric(), net.naming(), k=2, rng=random.Random(4)
            )
        else:
            scheme = PolynomialStretchScheme(net.metric(), net.naming(), k=2)
        pairs = [(s, (s + 7) % 24) for s in range(0, 24, 3)]
        headers = capture_headers(scheme, net, pairs)
        assert headers
        codec = HeaderCodec(24)
        for h in headers:
            decoded = codec.decode(codec.encode(h))
            assert normalize(decoded) == normalize(h)

    def test_encoded_size_tracks_estimate(self, net: Network):
        # The real encoding and the accounting estimate agree within a
        # small factor, and both respect the log^2 budget.
        scheme = StretchSixScheme(
            net.metric(), net.naming(), rng=random.Random(5)
        )
        pairs = [(0, t) for t in range(1, 24, 4)]
        headers = capture_headers(scheme, net, pairs)
        codec = HeaderCodec(24)
        for h in headers:
            real = codec.encoded_bits(h)
            estimate = header_bits(h, 24)
            assert real <= 4 * estimate + 64
            assert estimate <= 4 * real + 64
            assert real <= 12 * log2_squared(24)
