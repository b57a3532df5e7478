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
``MAX_FRAME_BYTES`` bytes, newline included.  The server reads bytes and
decodes each line on its own: an oversized frame, a non-ASCII one or one cut
off by the disconnect is a protocol error that closes the session, and the
frames before it still apply.

``decode`` memoizes canonical ``ANTIGEN`` frames: a bytes line that equals
``encode(message) + "\n"`` for the ``ANTIGEN`` message it parses to is kept
with that message, and the next identical line is answered from the memo
without a parse.  Only exact canonical spellings are stored, so the memo holds
at most ``2 * SYSCALL_RANGE`` entries (one per syscall number and label)
whatever clients send; any other line, and every str line, takes the parse.
"""
from __future__ import annotations

import enum
import logging
import math
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Iterable

from .tissue import Compartment, ResponseRecord
from .trace_model import LABELS, SYSCALL_RANGE, Label, ReplayLog, SyscallEvent

logger = logging.getLogger(__name__)

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 256
VALID_ROLES = frozenset({"antigen", "signal", "response"})

DEFAULT_HOST = os.environ.get("AISD_HOST", "127.0.0.1")
DEFAULT_PORT = int(os.environ.get("AISD_PORT", "7004"))


class MessageKind(str, enum.Enum):
    HELLO = "HELLO"
    ANTIGEN = "ANTIGEN"
    SIGNAL = "SIGNAL"
    RESPONSE = "RESPONSE"
    BYE = "BYE"


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class WireMessage:
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
        return cls(MessageKind.HELLO, version=version, roles=tuple(roles))

    @classmethod
    def antigen(cls, number: int, label: Label = Label.NORMAL) -> WireMessage:
        return cls(MessageKind.ANTIGEN, number=number, label=label)

    @classmethod
    def signal(cls, name: str, value: float) -> WireMessage:
        return cls(MessageKind.SIGNAL, name=name, value=value)

    @classmethod
    def response(cls, number: int, cell_id: int, timestamp: float) -> WireMessage:
        return cls(MessageKind.RESPONSE, number=number, cell_id=cell_id, timestamp=timestamp)

    @classmethod
    def bye(cls) -> WireMessage:
        return cls(MessageKind.BYE)


def encode(message: WireMessage) -> str:
    """One protocol line, without the trailing newline.

    Floats use repr() so decode(encode(m)) == m exactly.
    """
    kind = message.kind
    if kind is MessageKind.HELLO:
        return f"HELLO {message.version} {','.join(message.roles)}"
    if kind is MessageKind.ANTIGEN:
        return f"ANTIGEN {message.number} {message.label.value}"
    if kind is MessageKind.SIGNAL:
        return f"SIGNAL {message.name} {message.value!r}"
    if kind is MessageKind.RESPONSE:
        return f"RESPONSE {message.number} {message.cell_id} {message.timestamp!r}"
    if kind is MessageKind.BYE:
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


# Canonical ANTIGEN frame -> its parse; see the module docstring for the bound.
# Sessions share it: a racing insert stores an equal message under the same key.
_ANTIGEN_FRAMES: dict[bytes, WireMessage] = {}


def decode(line: str | bytes) -> WireMessage:
    """Parse one complete protocol line.

    A bytes line that is a canonical ``ANTIGEN`` frame is parsed once and then
    answered from the memo; str lines are never looked up, so a str is never
    compared with the bytes keys.
    """
    if not isinstance(line, bytes):
        return _parse(line)
    message = _ANTIGEN_FRAMES.get(line)
    if message is None:
        message = _parse(line)
        if message.kind is MessageKind.ANTIGEN and line == f"{encode(message)}\n".encode("ascii"):
            _ANTIGEN_FRAMES[line] = message
    return message


def _parse(line: str | bytes) -> WireMessage:
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

class _Session:
    def __init__(self, conn: socket.socket, address):
        self.conn = conn
        self.address = address
        self.roles: set[str] = set()
        self.helloed = False
        self.write_lock = threading.Lock()

    def send_line(self, line: str) -> None:
        with self.write_lock:
            self.conn.sendall((line + "\n").encode("ascii"))


class TissueServer:
    """Accepts monitoring clients and feeds a compartment.

    One thread accepts connections and starts a thread per client, mirroring
    the realtime architecture; it drops finished client threads from
    ``_threads`` as it adds new ones.  If ``cycles_per_second`` is given, a
    pacer thread cycles the compartment while the server runs.  A response
    client whose send fails is dropped, and the response it missed is
    counted in ``responses_dropped_total``.  A frame that fails to decode or
    to dispatch closes its session and is counted in
    ``frames_rejected_total``; the frames before it still apply.
    """

    def __init__(
        self,
        compartment: Compartment,
        host: str = DEFAULT_HOST,
        port: int = 0,
        cycles_per_second: float | None = None,
    ):
        self.compartment = compartment
        self.host = host
        self.port = port
        self.cycles_per_second = cycles_per_second
        self._listener: socket.socket | None = None
        self._sessions: list[_Session] = []
        self._sessions_lock = threading.Lock()
        self.responses_dropped_total = 0
        self.frames_rejected_total = 0
        self._accept_thread: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._response_listener = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(32)
        except OSError:
            listener.close()
            raise
        listener.settimeout(0.2)  # lets the accept loop notice shutdown
        self._listener = listener
        self.port = listener.getsockname()[1]
        self.compartment.start_realtime_clock()

        self._response_listener = self._forward_response
        self.compartment.add_response_listener(self._response_listener)

        if self.cycles_per_second:
            pacer = threading.Thread(target=self._pace_cycles, daemon=True)
            pacer.start()
            self._threads.append(pacer)
        # started last: from here on only the accept loop changes _threads
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._threads.append(self._accept_thread)
        self._accept_thread.start()

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # once the accept loop has exited, no session or thread is added
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._sessions_lock:
            sessions = list(self._sessions)
        for session in sessions:
            try:
                session.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                session.conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._response_listener is not None:
            self.compartment.remove_response_listener(self._response_listener)
            self._response_listener = None

    def __enter__(self) -> TissueServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

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
            else:
                next_at = time.monotonic()  # fell behind; don't try to catch up

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, address = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(None)
            session = _Session(conn, address)
            with self._sessions_lock:
                self._sessions.append(session)
            thread = threading.Thread(
                target=self._serve_client, args=(session,), daemon=True
            )
            thread.start()
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _serve_client(self, session: _Session) -> None:
        try:
            with session.conn.makefile("rb") as reader:
                while raw := reader.readline(MAX_FRAME_BYTES):
                    if raw[-1] != 10:  # b"\n"
                        if len(raw) == MAX_FRAME_BYTES:
                            raise ProtocolError(f"frame longer than {MAX_FRAME_BYTES} bytes")
                        raise ProtocolError(f"frame cut off at disconnect: {raw!r}")
                    message = decode(raw)
                    self._dispatch(session, message)
                    if message.kind is MessageKind.BYE:
                        break
        except ProtocolError as exc:
            logger.warning("client %s protocol error: %s", session.address, exc)
            with self._sessions_lock:
                self.frames_rejected_total += 1
        except OSError:
            pass
        finally:
            with self._sessions_lock:
                if session in self._sessions:
                    self._sessions.remove(session)
            try:
                session.conn.close()
            except OSError:
                pass

    def _dispatch(self, session: _Session, message: WireMessage) -> None:
        kind = message.kind
        if kind is MessageKind.HELLO:
            if session.helloed:
                raise ProtocolError("duplicate HELLO")
            if message.version != PROTOCOL_VERSION:
                raise ProtocolError(f"unsupported protocol version {message.version}")
            session.helloed = True
            session.roles = set(message.roles)
            return
        if not session.helloed:
            raise ProtocolError(f"{kind.value} before HELLO")
        if kind is MessageKind.ANTIGEN:
            if "antigen" not in session.roles:
                raise ProtocolError("ANTIGEN from client without antigen role")
            self.compartment.add_antigen(message.number, message.label)
        elif kind is MessageKind.SIGNAL:
            if "signal" not in session.roles:
                raise ProtocolError("SIGNAL from client without signal role")
            try:
                self.compartment.set_signal(message.name, message.value)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None
        elif kind is MessageKind.RESPONSE:
            raise ProtocolError("RESPONSE flows server to client only")

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
    port: int = DEFAULT_PORT
    rate_multiplier: float = 1.0
    start_delay: float = 0.0
    tail_time: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        if self.start_delay < 0 or self.tail_time < 0:
            raise ValueError("delays must be non-negative")


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
        records = log.records
        start = time.monotonic()
        t0 = records[0].timestamp if records else 0.0
        for record in records:
            target = start + (record.timestamp - t0) / config.rate_multiplier
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if isinstance(record, SyscallEvent):
                message = WireMessage.antigen(record.syscall_number, record.label)
            else:
                message = WireMessage.signal(record.signal_name, record.value)
            sock.sendall((encode(message) + "\n").encode("ascii"))
            if isinstance(record, SyscallEvent):
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
