import threading

import numpy as np
import pytest

from aeal.errors import ProtocolError, TransportFailure
from aeal.messages import (GradShare, Handshake, Offset, PredictContribution,
                           ResponseShare, ScreenResult, SketchOffer, Stop, decode,
                           encode, format_float)
from aeal.transport import Recorder, connect, local_pair, serve_one

ALL_MESSAGES = [
    Handshake(version="aeal/1", n=10, family="logistic", lam=0.0),
    SketchOffer(projected=((1.0, 2.0), (0.1, -0.25)), t=2, noised=True,
                epsilon=0.5, c2=1.25, rows_excluded=(3, 7)),
    SketchOffer(projected=((0.0,),), t=1, noised=False, epsilon=None, c2=None,
                rows_excluded=()),
    ScreenResult(statistic=5.25, df=2, p_value=0.07243, reject=False, alpha=0.05),
    ResponseShare(y=(0.0, 1.0, 1.0), masked=True, flip_prob=0.1),
    Offset(round=3, vector=(0.1, -2.5e-17, 3.0)),
    PredictContribution(nu=-1.5, sigma=0.25),
    Stop(reason="CoefDelta"),
    GradShare(round=1, vector=(1e300, -1e-300)),
]


class TestRoundTrip:
    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_bitwise(self, msg):
        assert decode(encode(msg)) == msg

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
        assert result["got"] == Offset(round=0, vector=(4.5,))
        assert reply == Stop(reason="done")
        # sends and receives both recorded
        assert [s for s, _ in rec.lines] == ["A", "B"]
