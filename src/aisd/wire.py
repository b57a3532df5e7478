"""Socket protocol between monitoring clients and a tissue server, plus the
replay client.

The wire format is newline-delimited ASCII, one message per line:

    HELLO <version> <roles>          roles: comma-joined antigen,signal,response
    ANTIGEN <nr> <label>
    SIGNAL <name> <value>
    RESPONSE <nr> <cell-id> <t>      server -> response-role clients
    BYE

Every session starts with HELLO; antigen/signal messages are only accepted
from clients that declared the matching role.  A frame is at most
``MAX_FRAME_BYTES`` bytes, newline included.  The server reads each session
in chunks of up to ``READ_BYTES``, splits a chunk into lines and keeps the
line a read cut off until the rest arrives, then decodes each line on its
own: an oversized frame (complete, or pending with no newline yet), a
non-ASCII one or one cut off by the disconnect is a protocol error that
closes the session, and the frames before it still apply.  Frames after a
bad frame, or after ``BYE``, are ignored.

``WireMessage`` is a frozen slots dataclass.  The ``2 * SYSCALL_RANGE``
``ANTIGEN`` messages, one per syscall number and label, are built once at
import and shared: ``WireMessage.antigen`` returns them.  A fixed table maps
the canonical frame of each, as a server session splits it off a read without
the newline, to its message; it is built with the messages and never written
after.

``TissueServer`` runs on ``socketserver.ThreadingTCPServer``, one thread per
client.  A session's read loop handles every frame kind in one place: it adds
an ``ANTIGEN`` frame from a session that declared the antigen role to the
compartment (the only place that adds antigen), a canonical one straight from
the frame table without ``decode``, sets signals, and raises the protocol
errors, ``ANTIGEN`` before ``HELLO`` or without the role among them.
"""
from __future__ import annotations

import enum
import logging
import math
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from .tissue import Compartment, ResponseRecord
from .trace_model import LABEL_TEXT, LABELS, SYSCALL_RANGE, Label, ReplayLog, check_finite

logger = logging.getLogger(__name__)

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 256
READ_BYTES = 64 * 1024  # asked of each recv by a server session
VALID_ROLES = frozenset({"antigen", "signal", "response"})

DEFAULT_HOST = os.environ.get("AISD_HOST", "127.0.0.1")


class MessageKind(str, enum.Enum):
    HELLO = "HELLO"
    ANTIGEN = "ANTIGEN"
    SIGNAL = "SIGNAL"
    RESPONSE = "RESPONSE"
    BYE = "BYE"


class ProtocolError(ValueError):
    pass


def _check_port(port: int) -> None:
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0..65535, got {port}")


def default_port() -> int:
    """The port in ``AISD_PORT``, or 7004 when it is unset.

    Read when a command needs it, so a bad value fails that command, not the
    import of the package.
    """
    text = os.environ.get("AISD_PORT", "7004")
    try:
        port = int(text)
    except ValueError:
        raise ValueError(f"AISD_PORT must be an integer, got {text!r}") from None
    _check_port(port)
    return port


@dataclass(frozen=True, slots=True)
class WireMessage:
    """One protocol message; the fields its kind does not use are left at
    their defaults.  Frozen, since ``antigen`` hands the same instance to
    every caller and every session thread."""

    kind: MessageKind
    version: int | None = None
    roles: tuple[str, ...] = ()
    number: int | None = None
    label: Label | None = None
    name: str | None = None
    value: float | None = None
    cell_id: int | None = None
    timestamp: float | None = None

    @classmethod
    def hello(cls, roles: Iterable[str], version: int = PROTOCOL_VERSION) -> WireMessage:
        return cls(_HELLO, version, tuple(roles))

    @classmethod
    def antigen(cls, number: int, label: Label = Label.NORMAL) -> WireMessage:
        """The interned message for an int ``number`` in ``[0, SYSCALL_RANGE)``
        and a ``Label``; a fresh one for anything else."""
        if type(label) is Label and type(number) is int and 0 <= number < SYSCALL_RANGE:
            return _ANTIGENS[label][number]
        return cls(_ANTIGEN, None, (), number, label)

    @classmethod
    def signal(cls, name: str, value: float) -> WireMessage:
        return cls(_SIGNAL, None, (), None, None, name, value)

    @classmethod
    def response(cls, number: int, cell_id: int, timestamp: float) -> WireMessage:
        return cls(_RESPONSE, None, (), number, None, None, None, cell_id, timestamp)

    @classmethod
    def bye(cls) -> WireMessage:
        return cls(_BYE)


_HELLO, _ANTIGEN, _SIGNAL = MessageKind.HELLO, MessageKind.ANTIGEN, MessageKind.SIGNAL
_RESPONSE, _BYE = MessageKind.RESPONSE, MessageKind.BYE

# label -> the ANTIGEN message of each syscall number, built once and shared
_ANTIGENS = {
    label: tuple(WireMessage(_ANTIGEN, None, (), number, label) for number in range(SYSCALL_RANGE))
    for label in Label
}


def encode(message: WireMessage) -> str:
    """One protocol line, without the trailing newline.

    Floats use repr() so decode(encode(m)) == m exactly.
    """
    kind = message.kind
    if kind is _ANTIGEN:
        return f"ANTIGEN {message.number} {LABEL_TEXT[message.label]}"
    if kind is _HELLO:
        return f"HELLO {message.version} {','.join(message.roles)}"
    if kind is _SIGNAL:
        return f"SIGNAL {message.name} {message.value!r}"
    if kind is _RESPONSE:
        return f"RESPONSE {message.number} {message.cell_id} {message.timestamp!r}"
    if kind is _BYE:
        return "BYE"
    raise ProtocolError(f"cannot encode message kind {kind!r}")


def _int_field(kind: str, index: int, name: str, token: str, minimum: int = 0) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ProtocolError(
            f"{kind}: field {index} ({name}) must be an integer, got {token!r}"
        ) from None
    if value < minimum:
        raise ProtocolError(f"{kind}: field {index} ({name}) must be >= {minimum}")
    return value


def _float_field(kind: str, index: int, name: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ProtocolError(
            f"{kind}: field {index} ({name}) must be a number, got {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ProtocolError(f"{kind}: field {index} ({name}) must be finite, got {token!r}")
    return value


# Canonical ANTIGEN frame, as a session splits it off a read, -> its interned
# message.  Fixed at import: sessions only read it, so they share it freely.
_ANTIGEN_FRAMES: dict[bytes, WireMessage] = {
    encode(message).encode("ascii"): message for row in _ANTIGENS.values() for message in row
}


def decode(line: str | bytes) -> WireMessage:
    """Parse one complete protocol line.

    A server session looks canonical ``ANTIGEN`` frames up in the frame table
    itself and calls ``decode`` only for the other frames.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"non-ASCII frame: {exc}") from None
    tokens = line.strip().split()
    if not tokens:
        raise ProtocolError("empty frame")
    keyword = tokens[0]
    args = tokens[1:]
    if keyword == "HELLO":
        if len(args) != 2:
            raise ProtocolError(f"HELLO: expected 2 fields, got {len(args)}")
        version = _int_field("HELLO", 1, "version", args[0], minimum=1)
        roles = tuple(r for r in args[1].split(",") if r)
        if not roles:
            raise ProtocolError("HELLO: field 2 (roles) must name at least one role")
        for role in roles:
            if role not in VALID_ROLES:
                raise ProtocolError(f"HELLO: field 2 (roles) has unknown role {role!r}")
        return WireMessage.hello(roles, version=version)
    if keyword == "ANTIGEN":
        if len(args) != 2:
            raise ProtocolError(f"ANTIGEN: expected 2 fields, got {len(args)}")
        number = _int_field("ANTIGEN", 1, "syscall number", args[0])
        if number >= SYSCALL_RANGE:
            raise ProtocolError(f"ANTIGEN: field 1 (syscall number) must be < {SYSCALL_RANGE}")
        label = LABELS.get(args[1])
        if label is None:
            raise ProtocolError(
                f"ANTIGEN: field 2 (label) must be normal or attack, got {args[1]!r}"
            )
        return WireMessage.antigen(number, label)
    if keyword == "SIGNAL":
        if len(args) != 2:
            raise ProtocolError(f"SIGNAL: expected 2 fields, got {len(args)}")
        return WireMessage.signal(args[0], _float_field("SIGNAL", 2, "value", args[1]))
    if keyword == "RESPONSE":
        if len(args) != 3:
            raise ProtocolError(f"RESPONSE: expected 3 fields, got {len(args)}")
        return WireMessage.response(
            _int_field("RESPONSE", 1, "syscall number", args[0]),
            _int_field("RESPONSE", 2, "cell id", args[1]),
            _float_field("RESPONSE", 3, "timestamp", args[2]),
        )
    if keyword == "BYE":
        if args:
            raise ProtocolError("BYE takes no fields")
        return WireMessage.bye()
    raise ProtocolError(f"unknown message keyword {keyword!r}")


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class _Session(socketserver.BaseRequestHandler):
    """One client connection; the listener runs ``handle`` in its own thread."""

    server: _Listener

    def setup(self) -> None:
        self.conn: socket.socket = self.request
        self.address = self.client_address
        self.roles: set[str] = set()  # empty until HELLO, which names at least one role
        self.write_lock = threading.Lock()

    def handle(self) -> None:
        self.server.tissue._serve_client(self)

    def send_line(self, line: str) -> None:
        with self.write_lock:
            self.conn.sendall((line + "\n").encode("ascii"))


class _Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    request_queue_size = 32

    def __init__(self, tissue: TissueServer):
        self.tissue = tissue
        super().__init__((tissue.host, tissue.port), _Session)

    def handle_error(self, request, client_address) -> None:
        # An error a session did not handle is a fault, not a protocol error:
        # let it reach threading.excepthook instead of being printed here.
        raise


class TissueServer:
    """Accepts monitoring clients and feeds a compartment.

    A ``socketserver.ThreadingTCPServer`` accepts connections and runs each
    client's session in a thread of its own, mirroring the realtime
    architecture; ``stop`` shuts the listening socket down, so the accept
    loop ends at once instead of at its next 0.2 s poll, then shuts the
    sessions down and joins their threads.  A session reads its socket in
    chunks of up to ``READ_BYTES`` and takes the frames of each chunk one by
    one, as split and without their newline, in a single read loop.  It looks
    each frame up in the frame table itself: a canonical ``ANTIGEN``
    frame from an antigen-role session goes straight to ``add_antigen`` (its
    number only) with no ``decode`` call.  Every other frame goes through the
    module-global ``decode`` and is checked against the session's state there
    too.  A session reads ``compartment.add_antigen`` once, when it starts: a
    wrapper installed before the server starts is seen, one rebound while a
    session is live is not.  ``add_antigen`` hands the number to the
    compartment's inbox, so a session never waits for the compartment lock to
    add antigen, even beside a pacer that cycles back to back; a ``SIGNAL``
    frame still takes the lock in ``set_signal``.  If ``cycles_per_second`` is
    given (finite and > 0), a pacer thread cycles the compartment while the
    server runs; when a cycle overruns, the pacer does not catch up, and
    counts the whole intervals it missed in ``cycles_skipped_total``.
    A response client whose send fails is dropped, and the response it
    missed is counted in ``responses_dropped_total``.  A frame that fails to
    decode or breaks the protocol closes its session and is counted in
    ``frames_rejected_total``; the frames before it still apply.
    """

    def __init__(
        self,
        compartment: Compartment,
        host: str = DEFAULT_HOST,
        port: int = 0,
        cycles_per_second: float | None = None,
    ):
        _check_port(port)
        if cycles_per_second is not None:
            check_finite("cycles_per_second", cycles_per_second, positive=True)
        self.compartment = compartment
        self.host = host
        self.port = port
        self.cycles_per_second = cycles_per_second
        self._listener: _Listener | None = None
        self._pacer: threading.Thread | None = None
        self._sessions: list[_Session] = []
        self._sessions_lock = threading.Lock()
        self.responses_dropped_total = 0
        self.frames_rejected_total = 0
        self.cycles_skipped_total = 0
        self._stopping = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._listener = listener = _Listener(self)  # closes its socket if bind fails
        self.port = listener.server_address[1]
        self.compartment.start_realtime_clock()
        self.compartment.response_listener = self._forward_response
        if self.cycles_per_second is not None:
            self._pacer = threading.Thread(target=self._pace_cycles, daemon=True)
            self._pacer.start()
        threading.Thread(target=listener.serve_forever, args=(0.2,), daemon=True).start()

    def stop(self) -> None:
        # from here on no session registers, so the list below is complete
        with self._sessions_lock:
            self._stopping.set()
            sessions = list(self._sessions)
        for session in sessions:
            try:
                session.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._listener is not None:
            # wakes the accept loop's poll, so shutdown() need not wait it out
            try:
                self._listener.socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.shutdown()  # returns once the accept loop has exited
            self._listener.server_close()  # joins every session thread
        if self._pacer is not None:
            self._pacer.join(timeout=5.0)
        self.compartment.response_listener = None

    def __enter__(self) -> TissueServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- internals ----------------------------------------------------------

    def _pace_cycles(self) -> None:
        interval = 1.0 / float(self.cycles_per_second)
        next_at = time.monotonic()
        while not self._stopping.is_set():
            self.compartment.cycle()
            next_at += interval
            delay = next_at - time.monotonic()
            if delay > 0:
                self._stopping.wait(delay)
            else:  # fell behind: count the whole intervals missed, don't catch up
                self.cycles_skipped_total += int(-delay // interval)
                next_at = time.monotonic()

    def _serve_client(self, session: _Session) -> None:
        with self._sessions_lock:
            if self._stopping.is_set():
                return  # stop() has listed the sessions it shuts down
            self._sessions.append(session)
        antigen = MessageKind.ANTIGEN
        adds_antigen = False  # "antigen" in session.roles, which only HELLO sets
        add_antigen = self.compartment.add_antigen  # read once: a later rebinding is not seen
        canonical = _ANTIGEN_FRAMES.get  # no key is MAX_FRAME_BYTES long
        pending = b""  # the frame the last read cut off, without a newline yet
        recv = session.conn.recv
        try:
            while chunk := recv(READ_BYTES):
                frames = (pending + chunk).split(b"\n")
                pending = frames.pop()
                for frame in frames:
                    message = canonical(frame)
                    if message is not None and adds_antigen:
                        add_antigen(message.number)
                        # the common frame skips decode and the tests below.  The
                        # loop over a read's frames jumps backward once per frame,
                        # which CPython 3.11 counts toward specializing this
                        # function, even when each read holds one frame
                        continue
                    if len(frame) >= MAX_FRAME_BYTES:
                        raise ProtocolError(f"frame longer than {MAX_FRAME_BYTES} bytes")
                    message = decode(frame)
                    kind = message.kind
                    if kind is antigen and adds_antigen:  # a non-canonical spelling
                        add_antigen(message.number)
                    elif kind is MessageKind.HELLO:
                        if session.roles:
                            raise ProtocolError("duplicate HELLO")
                        if message.version != PROTOCOL_VERSION:
                            raise ProtocolError(f"unsupported protocol version {message.version}")
                        session.roles = set(message.roles)
                        adds_antigen = "antigen" in session.roles
                    elif not session.roles:
                        raise ProtocolError(f"{kind.value} before HELLO")
                    elif kind is antigen:
                        raise ProtocolError("ANTIGEN from client without antigen role")
                    elif kind is MessageKind.SIGNAL:
                        if "signal" not in session.roles:
                            raise ProtocolError("SIGNAL from client without signal role")
                        try:
                            self.compartment.set_signal(message.name, message.value)
                        except ValueError as exc:
                            raise ProtocolError(str(exc)) from None
                    elif kind is MessageKind.RESPONSE:
                        raise ProtocolError("RESPONSE flows server to client only")
                    else:  # BYE: the frames after it in this read are ignored
                        return
                if len(pending) >= MAX_FRAME_BYTES:  # no newline can make it fit
                    raise ProtocolError(f"frame longer than {MAX_FRAME_BYTES} bytes")
            if pending:
                raise ProtocolError(f"frame cut off at disconnect: {pending!r}")
        except ProtocolError as exc:
            logger.warning("client %s protocol error: %s", session.address, exc)
            with self._sessions_lock:
                self.frames_rejected_total += 1
        except OSError:
            pass
        finally:  # the listener closes the connection once this returns
            with self._sessions_lock:
                if session in self._sessions:
                    self._sessions.remove(session)

    def _forward_response(self, record: ResponseRecord) -> None:
        line = encode(
            WireMessage.response(record.matched_value, record.cell_id, record.wall_time)
        )
        with self._sessions_lock:
            targets = [s for s in self._sessions if "response" in s.roles]
        for session in targets:
            try:
                session.send_line(line)
            except OSError:
                logger.warning("dropping response client %s", session.address)
                with self._sessions_lock:
                    self.responses_dropped_total += 1
                    if session in self._sessions:
                        self._sessions.remove(session)
                try:  # ends the session's reader thread, which closes it
                    session.conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


# ---------------------------------------------------------------------------
# Replay client
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplayConfig:
    host: str = DEFAULT_HOST
    port: int = field(default_factory=default_port)
    rate_multiplier: float = 1.0
    start_delay: float = 0.0
    tail_time: float = 0.0

    def __post_init__(self) -> None:
        _check_port(self.port)
        check_finite("rate_multiplier", self.rate_multiplier, positive=True)
        check_finite("start_delay", self.start_delay)
        check_finite("tail_time", self.tail_time)


@dataclass(frozen=True)
class ReplaySummary:
    sent_antigen: int
    sent_signals: int
    wall_time: float


class ReplayError(RuntimeError):
    def __init__(self, message: str, sent_antigen: int = 0, sent_signals: int = 0):
        super().__init__(message)
        self.sent_antigen = sent_antigen
        self.sent_signals = sent_signals


def replay(log: ReplayLog, config: ReplayConfig) -> ReplaySummary:
    """Send a log to a server, pacing inter-record delays by the rate.

    Delays reproduce the original timestamp deltas divided by the rate
    multiplier; the connection stays open for ``tail_time`` after the last
    record, then says BYE.  ``wall_time`` covers first to last send.
    """
    if config.start_delay:
        time.sleep(config.start_delay)
    sent_antigen = 0
    sent_signals = 0
    try:
        sock = socket.create_connection((config.host, config.port), timeout=30)
    except OSError as exc:
        raise ReplayError(f"connect to {config.host}:{config.port} failed: {exc}")
    try:
        sock.sendall((encode(WireMessage.hello(("antigen", "signal"))) + "\n").encode("ascii"))
        event_times, signal_times = log.event_times, log.signal_times
        start = time.monotonic()
        t0 = min(event_times[:1] + signal_times[:1], default=0.0)
        for k in log.merged_order:  # k >= 0 is event k, ~k is signal k
            if k >= 0:
                timestamp = event_times[k]
                message = WireMessage.antigen(log.event_numbers[k], log.event_labels[k])
            else:
                timestamp = signal_times[~k]
                message = WireMessage.signal(log.signal_names[~k], log.signal_values[~k])
            target = start + (timestamp - t0) / config.rate_multiplier
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sock.sendall((encode(message) + "\n").encode("ascii"))
            if k >= 0:
                sent_antigen += 1
            else:
                sent_signals += 1
        wall_time = time.monotonic() - start
        if config.tail_time:
            time.sleep(config.tail_time)
        sock.sendall((encode(WireMessage.bye()) + "\n").encode("ascii"))
    except OSError as exc:
        raise ReplayError(
            f"connection lost after {sent_antigen} antigen / {sent_signals} signals: {exc}",
            sent_antigen,
            sent_signals,
        )
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return ReplaySummary(sent_antigen, sent_signals, wall_time)
