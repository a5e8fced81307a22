"""Channels carrying wire messages between the two agents.

Both the in-process and the socket channel serialize every message to its
wire line, so the numeric state either agent observes is identical across
transports (and transcripts are byte-comparable). The in-process pair runs
the agents on two threads in lockstep; the protocol is strictly alternating,
so scheduling cannot affect results.
"""

import queue
import socket
import threading
from collections import Counter

from .errors import ProtocolError, TransportFailure
from .messages import decode, encode

RECV_TIMEOUT = 120.0


class Recorder:
    """Ordered transcript of wire lines with byte and per-type message counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self.lines = []              # (sender, line) in send order
        self.bytes_transmitted = 0
        self.counts = Counter()      # message type name -> lines recorded

    def record(self, sender, msg, line):
        with self._lock:
            self.lines.append((sender, line))
            self.bytes_transmitted += len(line) + 1  # ASCII wire: chars = bytes, + newline
            self.counts[type(msg).__name__] += 1

    @property
    def vector_sends(self):
        return self.counts["Offset"] + self.counts["GradShare"]

    def offset_count(self):
        return self.counts["Offset"]


class LocalChannel:
    """One endpoint of an in-memory duplex pair.

    Every message is serialized, for the transcript and byte accounting and
    so a message the wire refuses fails here as on a socket, but the peer
    receives the original object: decoding a line gives back the very bytes
    of each payload, so this is bit-identical to the socket transport, which
    parses the line back.
    """

    def __init__(self, name, outbox, inbox, recorder):
        self.name = name
        self._outbox = outbox
        self._inbox = inbox
        self._recorder = recorder

    def send(self, msg):
        line = encode(msg)
        if self._recorder is not None:
            self._recorder.record(self.name, msg, line)
        self._outbox.put(msg)

    def recv(self):
        try:
            return self._inbox.get(timeout=RECV_TIMEOUT)
        except queue.Empty:
            raise TransportFailure("peer did not respond")

    def close(self):
        pass


def local_pair(recorder=None):
    """Connected (alice_channel, bob_channel) endpoints sharing a recorder."""
    a_to_b = queue.Queue()
    b_to_a = queue.Queue()
    return (LocalChannel("A", a_to_b, b_to_a, recorder),
            LocalChannel("B", b_to_a, a_to_b, recorder))


class SocketChannel:
    """Newline-delimited JSON over a connected TCP socket.

    Records received lines as well as sent ones, so a single process sees
    the same full transcript the in-process transport produces.
    """

    def __init__(self, sock, name="?", peer="?", recorder=None):
        self.name = name
        self.peer = peer
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._recorder = recorder

    def send(self, msg):
        line = encode(msg)
        if self._recorder is not None:
            self._recorder.record(self.name, msg, line)
        try:
            self._file.write(line.encode("ascii") + b"\n")
            self._file.flush()
        except OSError as exc:
            raise TransportFailure(f"send failed: {exc}") from None

    def recv(self):
        try:
            raw = self._file.readline()
        except OSError as exc:
            raise TransportFailure(f"recv failed: {exc}") from None
        if not raw:
            raise TransportFailure("connection closed by peer")
        try:  # the wire is ASCII, so the recorder's len(line) + 1 is the bytes read
            line = raw.decode("ascii").rstrip("\n")
        except UnicodeDecodeError:
            raise ProtocolError("non-ASCII bytes on the wire") from None
        msg = decode(line)
        if self._recorder is not None:
            self._recorder.record(self.peer, msg, line)
        return msg

    def close(self):
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass


def connect(host, port, name="?", peer="?", recorder=None, timeout=30.0):
    """Connect to the peer, retrying while it is still coming up."""
    import time
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            break
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportFailure(f"could not reach peer: {exc}") from None
            time.sleep(0.1)
    sock.settimeout(RECV_TIMEOUT)
    return SocketChannel(sock, name=name, peer=peer, recorder=recorder)


def serve_one(host, port, name="?", peer="?", recorder=None, timeout=120.0,
              ready_event=None, bound_port=None):
    """Accept exactly one peer connection and return its channel."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    srv.settimeout(timeout)
    if bound_port is not None:
        bound_port.append(srv.getsockname()[1])
    if ready_event is not None:
        ready_event.set()
    try:
        conn, _ = srv.accept()
    except socket.timeout:
        raise TransportFailure("no peer connected")
    finally:
        srv.close()
    conn.settimeout(RECV_TIMEOUT)
    return SocketChannel(conn, name=name, peer=peer, recorder=recorder)
