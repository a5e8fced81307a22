import dataclasses
import socket
import threading

import numpy as np
import pytest

from aeal.errors import DomainError, ProtocolError, TransportFailure
from aeal.messages import (PROTOCOL_VERSION, GradShare, Handshake, Offset,
                           PredictContribution, ResponseShare, ScreenResult, SketchOffer,
                           Stop, decode, encode, format_float)
from aeal.transport import Recorder, SocketChannel, connect, local_pair, serve_one

ALL_MESSAGES = [
    Handshake(version=PROTOCOL_VERSION, n=10, family="logistic", lam=0.0),
    SketchOffer(projected=((1.0, 2.0), (0.1, -0.25)), t=2, noised=True,
                epsilon=0.5, c2=1.25, rows_excluded=(3, 7)),
    SketchOffer(projected=((0.0,),), t=1, noised=False, epsilon=None, c2=None,
                rows_excluded=()),
    ScreenResult(statistic=5.25, df=2, p_value=0.07243, reject=False, alpha=0.05),
    ResponseShare(y=(0.0, 1.0, 1.0), masked=True, flip_prob=0.1),
    Offset(round=3, vector=(0.1, -2.5e-17, 3.0, -0.0, 5e-324)),
    PredictContribution(nu=-1.5, sigma=0.25),
    Stop(reason="CoefDelta"),
    GradShare(round=1, vector=np.array([1e300, -1e-300, -2.2250738585072014e-308])),
]

# fields carried as base64 binary64; every other field is plain JSON
PAYLOAD_FIELDS = {"projected", "y", "vector"}


class TestRoundTrip:
    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_bitwise(self, msg):
        got = decode(encode(msg))
        assert type(got) is type(msg)
        for fld in dataclasses.fields(msg):
            sent, back = getattr(msg, fld.name), getattr(got, fld.name)
            if fld.name in PAYLOAD_FIELDS:
                assert back.shape == np.shape(sent)
                assert back.tobytes() == np.asarray(sent, "<f8").tobytes()
            else:
                assert back == sent

    def test_payloads_decode_read_only_float64(self):
        got = decode(encode(ALL_MESSAGES[1]))
        assert got.projected.dtype == np.float64 and got.projected.shape == (2, 2)
        with pytest.raises(ValueError):
            got.projected[0, 0] = 1.0
        assert len(got.projected) == 2 and [len(row) for row in got.projected] == [2, 2]

    def test_at_most_10_7_bytes_per_double(self):
        line = encode(Offset(round=0, vector=np.linspace(-1.0, 1.0, 3000)))
        assert len(line) <= 10.7 * 3000

    def test_float_format_exact(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate([
            rng.normal(size=30_000),
            rng.normal(size=30_000) * 1e300,
            rng.normal(size=30_000) * 1e-300,
            np.array([0.0, -0.0, 0.1, 1 / 3, 2 / 3]),
        ])
        for x in samples:
            assert float(format_float(x)) == x


class TestStrictness:
    def test_unknown_type(self):
        with pytest.raises(ProtocolError):
            decode('{"type":"Gossip","round":1}')

    def test_unknown_field(self):
        with pytest.raises(ProtocolError):
            decode('{"type":"Stop","reason":"x","extra":1}')

    def test_missing_field(self):
        with pytest.raises(ProtocolError):
            decode('{"type":"Offset","round":1}')

    def test_wrong_field_type(self):
        with pytest.raises(ProtocolError):
            decode('{"type":"Offset","round":"one","vector":[1.0]}')

    def test_malformed_json(self):
        with pytest.raises(ProtocolError):
            decode("{nope")

    def test_non_object(self):
        with pytest.raises(ProtocolError):
            decode("[1,2]")

    @pytest.mark.parametrize("line", [
        '{"type":"Offset","round":1,"vector":[1.0]}',               # aeal/1 JSON array
        '{"type":"Offset","round":1,"vector":"AAAA*AAAAAA="}',      # not base64
        '{"type":"Offset","round":1,"vector":"AAAAAAAAAAAAAAAA"}',  # 12 bytes
        '{"type":"Offset","round":1,"vector":"AAAAAAAA+H8="}',      # NaN
        '{"type":"SketchOffer","projected":{"shape":[2,2],"data":"AAAAAAAA8D8AAAAAAADwPw=="},'
        '"t":2,"noised":false,"epsilon":null,"c2":null,"rows_excluded":[]}',
        '{"type":"SketchOffer","projected":{"shape":[-1,1],"data":"AAAAAAAA8D8="},'
        '"t":1,"noised":false,"epsilon":null,"c2":null,"rows_excluded":[]}',
        '{"type":"SketchOffer","projected":[[1.0]],'
        '"t":1,"noised":false,"epsilon":null,"c2":null,"rows_excluded":[]}',
        '{"type":"PredictContribution","nu":NaN,"sigma":0.25}',
    ], ids=["json-array", "bad-base64", "12-bytes", "nan-payload", "shape-vs-bytes",
            "negative-shape", "matrix-as-array", "nan-scalar"])
    def test_bad_payload(self, line):
        with pytest.raises(ProtocolError):
            decode(line)


NAN_OFFSET = Offset(round=0, vector=(1.0, float("nan")))


class TestNonFinite:
    @pytest.mark.parametrize("msg", [
        NAN_OFFSET,
        GradShare(round=2, vector=np.array([0.0, np.inf])),
        SketchOffer(projected=((1.0, 2.0), (-np.inf, 0.0)), t=2, noised=False,
                    epsilon=None, c2=None, rows_excluded=()),
        PredictContribution(nu=float("nan"), sigma=0.0),
    ], ids=lambda m: type(m).__name__)
    def test_encode_refuses(self, msg):
        with pytest.raises(DomainError):
            encode(msg)

    def test_local_send_refuses(self):
        rec = Recorder()
        a, _ = local_pair(rec)
        with pytest.raises(DomainError):
            a.send(NAN_OFFSET)
        assert rec.lines == []

    def test_socket_send_refuses(self, socket_pair):
        chan, _ = socket_pair
        with pytest.raises(DomainError):
            chan.send(NAN_OFFSET)


@pytest.fixture
def socket_pair():
    """A recording socket channel and the raw socket of its peer."""
    left, right = socket.socketpair()
    chan = SocketChannel(left, name="A", peer="B", recorder=Recorder())
    yield chan, right
    chan.close()
    right.close()


class TestLocalTransport:
    def test_send_recv_and_accounting(self):
        rec = Recorder()
        a, b = local_pair(rec)
        msg = Offset(round=0, vector=(1.0, 2.0))
        a.send(msg)
        assert b.recv() == msg
        b.send(Stop(reason="MaxRounds"))
        assert a.recv() == Stop(reason="MaxRounds")
        assert len(rec.lines) == 2
        assert rec.bytes_transmitted == sum(len(l.encode()) + 1 for _, l in rec.lines)
        assert rec.offset_count() == 1
        assert rec.vector_sends == 1

    def test_timeout(self):
        import aeal.transport as tr
        old = tr.RECV_TIMEOUT
        tr.RECV_TIMEOUT = 0.05
        try:
            a, _ = local_pair()
            with pytest.raises(TransportFailure):
                a.recv()
        finally:
            tr.RECV_TIMEOUT = old


class TestSocketTransport:
    def test_loopback_roundtrip(self):
        port_box = []
        ready = threading.Event()
        result = {}

        def server():
            chan = serve_one("127.0.0.1", 0, name="B", peer="A",
                             ready_event=ready, bound_port=port_box)
            result["got"] = chan.recv()
            chan.send(Stop(reason="done"))
            chan.close()

        th = threading.Thread(target=server)
        th.start()
        ready.wait(5)
        rec = Recorder()
        chan = connect("127.0.0.1", port_box[0], name="A", peer="B", recorder=rec)
        chan.send(Offset(round=0, vector=(4.5,)))
        reply = chan.recv()
        chan.close()
        th.join(5)
        got = result["got"]
        assert isinstance(got, Offset) and got.round == 0
        assert got.vector.tobytes() == np.array([4.5]).tobytes()
        assert reply == Stop(reason="done")
        # sends and receives both recorded
        assert [s for s, _ in rec.lines] == ["A", "B"]

    @pytest.mark.parametrize("raw", [b'{"type":"Stop","reason":"\xc3\xa9"}\n',
                                     b'{"type":"Stop","reason":"\xff"}\n'],
                             ids=["utf8", "invalid-utf8"])
    def test_recv_refuses_non_ascii(self, socket_pair, raw):
        chan, peer = socket_pair
        peer.sendall(raw)
        with pytest.raises(ProtocolError):
            chan.recv()
