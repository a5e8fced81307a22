"""Channels carrying wire messages between the two agents.

Every sent line is encoded and counted by Tally.count, whichever channel
carries it, and each end of either kind records in its own Tally (a Recorder
also keeps the lines) what it sends and receives, so the state either agent
observes is identical across transports. The in-process pair holds each
direction's messages in a deque; protocol.run_pair steps both agents over it
on one thread, and the protocol alternates, so scheduling cannot affect results.
"""

import socket
from collections import Counter, deque

from .errors import ProtocolError, TransportFailure
from .messages import decode, encode

RECV_TIMEOUT = 120.0  # of a socket receive


class Tally:
    """Byte and per-type message counters of the wire lines; keeps no line."""

    def __init__(self):
        self.bytes_transmitted = 0
        self.counts = Counter()      # message type name -> lines recorded

    def count(self, sender, msg):
        """Encode msg (refusing non-finite values), record its line as sender's, return it."""
        line = encode(msg)
        self.record(sender, msg, line)
        return line

    def record(self, sender, msg, line):
        self.bytes_transmitted += len(line) + 1  # ASCII wire: chars = bytes, + newline
        self.counts[type(msg).__name__] += 1

    @property
    def vector_sends(self):
        return self.counts["Offset"] + self.counts["GradShare"]


class Recorder(Tally):
    """A Tally that also keeps the ordered transcript of wire lines."""

    def __init__(self):
        super().__init__()
        self.lines = []              # (sender, line) in send order

    def record(self, sender, msg, line):
        super().record(sender, msg, line)
        self.lines.append((sender, line))


class LocalChannel:
    """One endpoint of an in-memory duplex pair.

    Every message is serialized, for the transcript and byte accounting and
    so a message the wire refuses fails here as on a socket, and queued with
    its line; the peer records that line and receives the original object:
    decoding a line gives back the very bytes of each payload, so this is
    bit-identical to the socket transport, which parses the line back. With
    its inbox empty, a receive raises ProtocolError: no other thread will send.
    """

    def __init__(self, name, peer, outbox, inbox, tally):
        self.name = name
        self.peer = peer
        self._outbox = outbox
        self.inbox = inbox           # (message, line) pairs sent here and not yet received
        self._tally = tally

    def send(self, msg):
        self._outbox.append((msg, self._tally.count(self.name, msg)))

    def recv(self):
        if not self.inbox:
            raise ProtocolError(f"{self.name} waits for a message {self.peer} has not sent")
        msg, line = self.inbox.popleft()
        self._tally.record(self.peer, msg, line)
        return msg


def local_pair(recorder=None):
    """Connected (alice_channel, bob_channel) endpoints; Alice's end records in
    recorder (a new Tally if None), Bob's in a Tally of its own."""
    a_to_b, b_to_a = deque(), deque()
    return (LocalChannel("A", "B", a_to_b, b_to_a, Tally() if recorder is None else recorder),
            LocalChannel("B", "A", b_to_a, a_to_b, Tally()))


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
        self._tally = Tally() if recorder is None else recorder

    def send(self, msg):
        line = self._tally.count(self.name, msg)
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
        try:  # the wire is ASCII, so the tally's len(line) + 1 is the bytes read
            line = raw.decode("ascii").rstrip("\n")
        except UnicodeDecodeError:
            raise ProtocolError("non-ASCII bytes on the wire") from None
        msg = decode(line)
        self._tally.record(self.peer, msg, line)
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
    with socket.create_server((host, port), backlog=1) as srv:  # SO_REUSEADDR on POSIX
        srv.settimeout(timeout)
        if bound_port is not None:
            bound_port.append(srv.getsockname()[1])
        if ready_event is not None:
            ready_event.set()
        try:
            conn, _ = srv.accept()
        except socket.timeout:
            raise TransportFailure("no peer connected")
    conn.settimeout(RECV_TIMEOUT)
    return SocketChannel(conn, name=name, peer=peer, recorder=recorder)
