from __future__ import annotations

import dataclasses
import gc
import itertools
import logging
import math
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisd import wire
from aisd.tissue import TissueParams, create_compartment
from aisd.trace_model import (
    LABELS,
    SYSCALL_RANGE,
    Label,
    SignalSample,
    SyscallEvent,
    merge_to_replay_log,
    write_replay_log,
)
from aisd.twocell import TwocellParams, attach_twocell
from aisd.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    MessageKind,
    ProtocolError,
    ReplayConfig,
    ReplayError,
    ReplaySummary,
    TissueServer,
    WireMessage,
    decode,
    encode,
    replay,
)

from invariant_checks import holds_numbers_only


@pytest.fixture
def compartment():
    comp = create_compartment(TissueParams(), seed=1)
    attach_twocell(comp, TwocellParams())
    return comp


@pytest.fixture
def server(compartment):
    srv = TissueServer(compartment, host="127.0.0.1", port=0)
    srv.start()
    yield srv
    srv.stop()


def client_socket(server) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    return sock


def record_sockets(monkeypatch) -> list[socket.socket]:
    """Make every socket.socket() from here on append itself to the list returned."""
    created = []

    class RecordingSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(socket, "socket", RecordingSocket)
    return created


def send_lines(sock, *lines):
    for line in lines:
        sock.sendall((line + "\n").encode("ascii"))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestCodec:
    def test_antigen_round_trip(self):
        m = WireMessage.antigen(5, Label.NORMAL)
        assert encode(m) == "ANTIGEN 5 normal"
        assert decode(encode(m)) == m

    def test_hello_grammar(self):
        m = WireMessage.hello(("antigen", "signal"))
        assert encode(m) == "HELLO 1 antigen,signal"
        assert decode(encode(m)) == m

    def test_non_numeric_field_names_position(self):
        with pytest.raises(ProtocolError, match="field 1"):
            decode("ANTIGEN five normal")

    def test_bad_label(self):
        with pytest.raises(ProtocolError, match="field 2"):
            decode("ANTIGEN 5 hostile")

    def test_unknown_keyword(self):
        with pytest.raises(ProtocolError, match="keyword"):
            decode("GREETINGS 1")

    def test_bytes_accepted(self):
        assert decode(b"BYE\n") == WireMessage.bye()

    def test_response_round_trip(self):
        m = WireMessage.response(5, 12, 3.7)
        assert decode(encode(m)) == m

    def test_signal_float_precision(self):
        m = WireMessage.signal("cpu", 0.1234567890123456)
        assert decode(encode(m)) == m

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, token):
        with pytest.raises(ProtocolError, match="field 2 .* finite"):
            decode(f"SIGNAL cpu {token}")
        with pytest.raises(ProtocolError, match="field 3 .* finite"):
            decode(f"RESPONSE 5 1 {token}")

    def test_antigen_number_below_syscall_range(self):
        assert decode("ANTIGEN 511 normal") == WireMessage.antigen(511, Label.NORMAL)
        with pytest.raises(ProtocolError, match="field 1"):
            decode("ANTIGEN 512 normal")


def canonical_frames() -> list[bytes]:
    """Every canonical ANTIGEN frame, as a server session splits it off a read."""
    return [
        f"ANTIGEN {number} {label}".encode("ascii")
        for number in range(SYSCALL_RANGE) for label in LABELS
    ]


def outcome(parse, line) -> WireMessage | str:
    """``parse(line)``, or the text of the ``ProtocolError`` it raises."""
    try:
        return parse(line)
    except ProtocolError as exc:
        return str(exc)


# The frame table as this module first saw it: sessions only read the table,
# so every test below finds it with these keys and these very messages.
TABLE_AT_IMPORT = dict(wire._ANTIGEN_FRAMES)


def session_outcome(line) -> WireMessage | str:
    """What a session makes of ``line`` as split: its frame-table entry if it
    has one, else ``decode``'s outcome.  Only a bytes line is looked up."""
    message = wire._ANTIGEN_FRAMES.get(line) if isinstance(line, bytes) else None
    return outcome(decode, line) if message is None else message


def assert_table_intact() -> None:
    table = wire._ANTIGEN_FRAMES
    assert table.keys() == TABLE_AT_IMPORT.keys()
    assert all(table[frame] is message for frame, message in TABLE_AT_IMPORT.items())


# Hostile spellings of ANTIGEN frames: each parses (or fails) but is not the
# canonical frame of what it parses to. The str spelling of a canonical frame
# is not a key either: table keys are bytes as a session splits them.
NON_CANONICAL = [
    b"ANTIGEN 07 normal\n",
    b"ANTIGEN +7 normal\n",
    b"ANTIGEN 1_0 normal\n",
    b"ANTIGEN  7 normal\n",
    b"ANTIGEN 7  attack\n",
    b" ANTIGEN 7 normal\n",
    b"ANTIGEN 7 normal \n",
    b"ANTIGEN 7 normal\r\n",
    b"ANTIGEN\t7 normal\n",
    b"ANTIGEN 7 normal\n",
    "ANTIGEN 7 normal",
    b"ANTIGEN \xd9\xa7 normal\n",
]


class TestAntigenMemo:
    """The fixed table of canonical ANTIGEN frames and the interned messages."""

    def test_every_canonical_frame(self):
        frames = canonical_frames()
        assert len(frames) == 2 * SYSCALL_RANGE
        table = wire._ANTIGEN_FRAMES
        assert table.keys() == set(frames)
        for frame in frames:
            expected = decode(frame)
            assert table[frame] is expected
            assert decode(frame.decode("ascii")) is expected
            assert table[frame].kind is MessageKind.ANTIGEN
            assert frame == encode(table[frame]).encode("ascii")
        assert_table_intact()

    @pytest.mark.parametrize("line", NON_CANONICAL)
    def test_non_canonical_spelling_not_stored(self, line):
        assert session_outcome(line) == outcome(decode, line)
        assert_table_intact()

    def test_str_lines_not_stored(self):
        assert decode("ANTIGEN 5 normal\n") == WireMessage.antigen(5, Label.NORMAL)
        assert decode("ANTIGEN 5 normal") == WireMessage.antigen(5, Label.NORMAL)
        assert_table_intact()

    def test_other_kinds_not_stored(self):
        for message in (
            WireMessage.hello(("antigen",)), WireMessage.signal("cpu", 0.5),
            WireMessage.response(5, 1, 2.5), WireMessage.bye(),
        ):
            assert decode((encode(message) + "\n").encode("ascii")) == message
            assert decode(encode(message).encode("ascii")) == message
        assert_table_intact()

    @pytest.mark.parametrize(
        "line, error",
        [
            (b"ANTIGEN 512 normal\n", "field 1 (syscall number) must be < 512"),
            (b"ANTIGEN -1 normal\n", "field 1 (syscall number) must be >= 0"),
            (b"ANTIGEN 5 hostile\n", "field 2 (label) must be normal or attack"),
            (b"ANTIGEN 5 Normal\n", "field 2 (label) must be normal or attack"),
            (b"ANTIGEN 5\n", "ANTIGEN: expected 2 fields, got 1"),
        ],
    )
    def test_errors_unchanged_with_warm_memo(self, line, error):
        for frame in (line, line.rstrip(b"\n")):
            with pytest.raises(ProtocolError, match=re.escape(error)):
                decode(frame)
            assert session_outcome(frame) == outcome(decode, frame)
        assert_table_intact()

    def test_hostile_stream_keeps_memo_bounded(self):
        rng = random.Random(8)
        numbers = ["7", "07", "+7", "0_7", "511", "512", "-0", "00", "1_0", "٧"]
        labels = ["normal", "attack", "Normal", "attack ", "hostile"]
        seps = [" ", "  ", "\t", " \t"]
        ends = ["\n", "\r\n", " \n", ""]
        for _ in range(5000):
            line = (
                f"ANTIGEN{rng.choice(seps)}{rng.choice(numbers)}"
                f"{rng.choice(seps)}{rng.choice(labels)}{rng.choice(ends)}"
            ).encode("utf-8")
            assert session_outcome(line) == outcome(decode, line)
        assert_table_intact()

    @given(
        st.integers(min_value=-2, max_value=SYSCALL_RANGE + 2).map(str)
        | st.from_regex(r"\A[+\-0-9_ ]{1,6}\Z"),
        st.sampled_from(["normal", "attack", "NORMAL", "", "x"]),
        st.sampled_from([" ", "  ", "\t"]),
        st.sampled_from(["\n", "\r\n", " \n", ""]),
    )
    def test_decode_matches_parse(self, number, label, sep, end):
        line = f"ANTIGEN{sep}{number}{sep}{label}{end}".encode("ascii")
        assert session_outcome(line) == outcome(decode, line)
        assert_table_intact()

    def test_antigen_interned_for_every_valid_pair(self):
        for number in range(SYSCALL_RANGE):
            for text, label in LABELS.items():
                message = WireMessage.antigen(number, label)
                assert WireMessage.antigen(number, label) is message
                assert wire._ANTIGEN_FRAMES[f"ANTIGEN {number} {text}".encode("ascii")] is message
                assert (message.kind, message.number, message.label) == (
                    MessageKind.ANTIGEN, number, label
                )

    @pytest.mark.parametrize("number", [-1, SYSCALL_RANGE])
    def test_out_of_range_antigen_is_fresh(self, number):
        message = WireMessage.antigen(number, Label.ATTACK)
        again = WireMessage.antigen(number, Label.ATTACK)
        assert message == again and message is not again
        assert (message.number, message.label) == (number, Label.ATTACK)
        frame = encode(message).encode("ascii")
        assert frame == f"ANTIGEN {number} attack".encode("ascii")
        with pytest.raises(ProtocolError, match="field 1"):
            decode(frame)
        assert_table_intact()

    def test_fields_frozen(self):
        shared = WireMessage.antigen(5, Label.NORMAL)
        for message in (shared, WireMessage.response(5, 1, 2.5), WireMessage.bye()):
            assert not hasattr(message, "__dict__")
            for name in WireMessage.__slots__:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(message, name, 7)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(message, name)
        assert (shared.number, shared.label) == (5, Label.NORMAL)
        assert WireMessage.antigen(5, Label.NORMAL) is shared

    def test_defaults_eq_hash_repr(self):
        bye = WireMessage(MessageKind.BYE)
        assert [getattr(bye, f.name) for f in dataclasses.fields(WireMessage)] == [
            MessageKind.BYE, None, (), None, None, None, None, None, None
        ]
        assert bye == WireMessage.bye() and hash(bye) == hash(WireMessage.bye())
        assert repr(bye) == (
            "WireMessage(kind=<MessageKind.BYE: 'BYE'>, version=None, roles=(), "
            "number=None, label=None, name=None, value=None, cell_id=None, timestamp=None)"
        )
        by_keyword = WireMessage(MessageKind.ANTIGEN, number=5, label=Label.ATTACK)
        assert by_keyword == WireMessage.antigen(5, Label.ATTACK)
        assert hash(by_keyword) == hash(WireMessage.antigen(5, Label.ATTACK))
        assert by_keyword != WireMessage.antigen(5, Label.NORMAL)
        assert by_keyword != WireMessage.antigen(6, Label.ATTACK)
        assert repr(WireMessage.response(5, 12, 3.75)) == (
            "WireMessage(kind=<MessageKind.RESPONSE: 'RESPONSE'>, version=None, roles=(), "
            "number=5, label=None, name=None, value=None, cell_id=12, timestamp=3.75)"
        )
        assert WireMessage.signal("cpu", 0.5) == WireMessage(
            MessageKind.SIGNAL, name="cpu", value=0.5
        )
        assert WireMessage.hello(["antigen"]) == WireMessage(
            MessageKind.HELLO, version=PROTOCOL_VERSION, roles=("antigen",)
        )


class TestServer:
    def test_two_clients_counts(self, server, compartment):
        a, b = client_socket(server), client_socket(server)
        try:
            send_lines(a, "HELLO 1 antigen")
            send_lines(b, "HELLO 1 signal")
            for _ in range(10):
                send_lines(a, "ANTIGEN 5 normal")
            for _ in range(5):
                send_lines(b, "SIGNAL cpu 0.5")
            assert wait_until(lambda: compartment.antigen_added_total == 10)
            assert wait_until(lambda: compartment.signals_set_total == 5)
            assert server.frames_rejected_total == 0
        finally:
            a.close()
            b.close()

    def test_antigen_before_hello_disconnects(self, server, compartment):
        sock = client_socket(server)
        try:
            send_lines(sock, "ANTIGEN 5 normal")
            sock.settimeout(5)
            assert sock.recv(64) == b""  # server closed on us
            assert compartment.antigen_added_total == 0
            assert server.frames_rejected_total == 1
        finally:
            sock.close()

    def test_role_enforcement(self, server, compartment):
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 signal", "ANTIGEN 5 normal")
            sock.settimeout(5)
            assert sock.recv(64) == b""
            assert compartment.antigen_added_total == 0
            assert server.frames_rejected_total == 1
        finally:
            sock.close()

    @staticmethod
    def decode_calls(server, monkeypatch, frames) -> list[bytes]:
        """The lines one session sending ``frames`` passes to the module-global decode."""
        calls = []
        real_decode = wire.decode

        def counting_decode(line):
            calls.append(line)
            return real_decode(line)

        monkeypatch.setattr(wire, "decode", counting_decode)
        sock = client_socket(server)
        try:
            send_lines(sock, *frames)
            sock.settimeout(5)
            assert sock.recv(64) == b""
        finally:
            sock.close()
        assert wait_until(lambda: not server._sessions)
        return calls

    def test_decode_skipped_only_for_canonical_antigen_in_role(self, server, compartment,
                                                                 monkeypatch):
        # decode is called once for every frame except a canonical ANTIGEN
        # frame from an antigen-role session, which the session looks up in
        # the frame table itself.
        frames = [
            "HELLO 1 antigen,signal", "ANTIGEN 5 normal", "ANTIGEN 05 normal",
            "SIGNAL cpu 0.5", "ANTIGEN 6 attack", "BYE",
        ]
        calls = self.decode_calls(server, monkeypatch, frames)
        assert calls == [b"HELLO 1 antigen,signal", b"ANTIGEN 05 normal",
                         b"SIGNAL cpu 0.5", b"BYE"]  # as split
        assert compartment.antigen_added_total == 3

    @pytest.mark.parametrize("frames, error", [
        (["ANTIGEN 5 normal"], "ANTIGEN before HELLO"),
        (["HELLO 1 signal", "ANTIGEN 5 normal"], "ANTIGEN from client without antigen role"),
    ], ids=["before-hello", "signal-only"])
    def test_canonical_antigen_outside_the_role_reaches_decode(
        self, server, compartment, monkeypatch, caplog, frames, error
    ):
        calls = self.decode_calls(server, monkeypatch, frames)
        assert calls == [frame.encode("ascii") for frame in frames]
        assert compartment.antigen_added_total == 0
        assert server.frames_rejected_total == 1
        assert f"protocol error: {error}" in caplog.text

    def test_mixed_stream_keeps_order(self, server, compartment, monkeypatch):
        applied = []
        add_antigen, set_signal = compartment.add_antigen, compartment.set_signal

        def recording_add(value):
            applied.append(value)
            add_antigen(value)

        def recording_set(name, level):
            applied.append((name, level))
            set_signal(name, level)

        monkeypatch.setattr(compartment, "add_antigen", recording_add)
        monkeypatch.setattr(compartment, "set_signal", recording_set)
        sock = client_socket(server)
        try:
            # one read: canonical and non-canonical ANTIGEN spellings, SIGNAL between
            sock.sendall(
                b"HELLO 1 antigen,signal\nANTIGEN 5 normal\nANTIGEN 05 normal\n"
                b"SIGNAL cpu 0.25\nANTIGEN  5 attack\nANTIGEN 7 attack\n"
                b"SIGNAL cpu 0.75\nANTIGEN 5 normal\nBYE\n"
            )
            sock.settimeout(5)
            assert sock.recv(64) == b""
        finally:
            sock.close()
        assert wait_until(lambda: not server._sessions)
        assert applied == [5, 5, ("cpu", 0.25), 5, 7, ("cpu", 0.75), 5]
        assert list(compartment._store) == [5, 5, 5, 7, 5]
        assert compartment.get_signal("cpu") == 0.75
        assert server.frames_rejected_total == 0

    def test_second_hello_after_antigen_disconnects(self, server, compartment, caplog):
        sock = client_socket(server)
        try:
            send_lines(
                sock, "HELLO 1 antigen", "ANTIGEN 5 normal", "ANTIGEN 6 attack",
                "HELLO 1 antigen", "ANTIGEN 7 normal",
            )
            sock.settimeout(5)
            assert sock.recv(64) == b""
            assert list(compartment._store) == [5, 6]
            assert compartment.antigen_added_total == 2
            assert server.frames_rejected_total == 1
        finally:
            sock.close()
        assert "protocol error: duplicate HELLO" in caplog.text

    def test_ground_truth_never_reaches_the_detector(self, server, compartment):
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 antigen", "ANTIGEN 5 attack", "ANTIGEN 6 normal",
                       "ANTIGEN 7 attack", "BYE")
            sock.settimeout(5)
            assert sock.recv(64) == b""
        finally:
            sock.close()
        assert wait_until(lambda: not server._sessions)
        assert list(compartment._store) == [5, 6, 7]
        for _ in range(3):  # the cycles present what the session stored
            assert holds_numbers_only(compartment)
            compartment.cycle()
        assert holds_numbers_only(compartment)
        assert compartment.twocell.live == 3

    @pytest.mark.parametrize(
        "frame", ["SIGNAL cpu nan", "SIGNAL cpu inf", "SIGNAL cpu -inf", "ANTIGEN 512 normal",
                  "ANTIGEN 5 hostile"]
    )
    def test_out_of_range_frame_disconnects(self, server, compartment, frame):
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 antigen,signal", "SIGNAL cpu 0.5", frame)
            sock.settimeout(5)
            assert sock.recv(64) == b""
            assert compartment.get_signal("cpu") == 0.5
            assert compartment.signals_set_total == 1
            assert compartment.antigen_added_total == 0
        finally:
            sock.close()

    def test_non_ascii_frame_keeps_earlier_frames(self, server, compartment, monkeypatch,
                                                   caplog):
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        sock = client_socket(server)
        try:
            # one read: the valid frames ahead of the bad one still apply
            sock.sendall(b"HELLO 1 antigen\nANTIGEN 5 normal\nANTIGEN 6 normal\n"
                         b"\xff\xfe garbage\nANTIGEN 7 normal\n")
            sock.settimeout(5)
            assert sock.recv(64) == b""
            assert compartment.antigen_added_total == 2
            assert server.frames_rejected_total == 1
            assert list(compartment._store) == [5, 6]
        finally:
            sock.close()
        assert wait_until(lambda: not server._sessions)
        assert uncaught == []
        assert "protocol error: non-ASCII frame" in caplog.text

    @pytest.mark.parametrize("extra, accepted", [(0, 2), (1, 1)])
    def test_frame_length_cap(self, server, compartment, caplog, extra, accepted):
        # padding puts the frame, newline included, at the cap or one byte over
        frame = "ANTIGEN 6 normal"
        padded = frame.replace(" ", " " * (MAX_FRAME_BYTES - len(frame) + extra), 1)
        assert len(padded) + 1 == MAX_FRAME_BYTES + extra
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 antigen", "ANTIGEN 5 normal", padded, "BYE")
            sock.settimeout(5)
            assert sock.recv(64) == b""
            assert compartment.antigen_added_total == accepted
            assert server.frames_rejected_total == extra
        finally:
            sock.close()
        if extra:
            assert f"frame longer than {MAX_FRAME_BYTES} bytes" in caplog.text

    def test_oversized_frame_without_newline(self, server, compartment):
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 antigen", "ANTIGEN 5 normal")
            sock.settimeout(5)
            try:
                sock.sendall(b"A" * (64 * MAX_FRAME_BYTES))
                # closing with the rest unread may reset the connection
                assert sock.recv(64) == b""
            except ConnectionResetError:
                pass
            assert wait_until(lambda: not server._sessions)
            assert compartment.antigen_added_total == 1
        finally:
            sock.close()

    def test_frame_cut_off_at_disconnect(self, server, compartment, caplog):
        sock = client_socket(server)
        try:
            sock.sendall(b"HELLO 1 antigen\nANTIGEN 5 normal\nANTIGEN 6 nor")
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5)
            assert sock.recv(64) == b""
        finally:
            sock.close()
        assert wait_until(lambda: not server._sessions)
        assert compartment.antigen_added_total == 1
        assert "frame cut off at disconnect" in caplog.text
        # a complete frame missing only its newline is cut off all the same
        sock = client_socket(server)
        try:
            sock.sendall(b"HELLO 1 antigen\nANTIGEN 7 normal")
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5)
            assert sock.recv(64) == b""
        finally:
            sock.close()
        assert wait_until(lambda: not server._sessions)
        assert compartment.antigen_added_total == 1

    def test_finished_session_threads_pruned(self, server, compartment, monkeypatch):
        threads = []  # weak references to the thread each session ran in
        add_antigen = compartment.add_antigen

        def recording_add(value):
            threads.append(weakref.ref(threading.current_thread()))
            add_antigen(value)

        monkeypatch.setattr(compartment, "add_antigen", recording_add)
        # one connection at a time, each closed by the server after BYE
        for k in range(30):
            sock = client_socket(server)
            try:
                send_lines(sock, "HELLO 1 antigen", "ANTIGEN 5 normal", "BYE")
                sock.settimeout(5)
                assert sock.recv(64) == b""
            finally:
                sock.close()
            assert wait_until(lambda: not server._sessions)
            # nothing keeps a finished session's thread: only this session's
            # and at most the one before it are still referenced
            gc.collect()
            assert sum(ref() is not None for ref in threads) <= 2
        assert len(threads) == 30
        assert compartment.antigen_added_total == 30

    def test_server_survives_bad_client(self, server, compartment):
        bad = client_socket(server)
        send_lines(bad, "NONSENSE")
        bad.close()
        good = client_socket(server)
        try:
            send_lines(good, "HELLO 1 antigen", "ANTIGEN 6 normal")
            assert wait_until(lambda: compartment.antigen_added_total == 1)
        finally:
            good.close()

    def test_burst_delivery_no_loss(self, server, compartment):
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 antigen")
            payload = b"".join(b"ANTIGEN 5 normal\n" for _ in range(1102))
            sock.sendall(payload)
            assert wait_until(lambda: compartment.antigen_added_total == 1102)
        finally:
            sock.close()

    def test_response_forwarding(self, server, compartment):
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 response")
            time.sleep(0.1)
            compartment.emit_response(9, 55)
            sock.settimeout(5)
            line = sock.makefile("r").readline()
            message = decode(line)
            assert message.kind is MessageKind.RESPONSE
            assert message.number == 55
            assert message.cell_id == 9
        finally:
            sock.close()

    def test_failed_response_client_dropped(self, server, compartment, monkeypatch, caplog):
        bad, good = client_socket(server), client_socket(server)
        try:
            send_lines(bad, "HELLO 1 response")
            send_lines(good, "HELLO 1 response")
            assert wait_until(
                lambda: sum("response" in s.roles for s in server._sessions) == 2
            )
            session = next(s for s in server._sessions if s.address == bad.getsockname())

            def broken_send(line):
                raise OSError("broken pipe")

            monkeypatch.setattr(session, "send_line", broken_send)
            with caplog.at_level("WARNING"):
                compartment.emit_response(9, 55)
                compartment.emit_response(10, 56)
            assert session not in server._sessions
            assert server.responses_dropped_total == 1
            assert caplog.text.count("dropping response client") == 1
            good.settimeout(5)
            reader = good.makefile("r")
            assert [decode(reader.readline()).number for _ in range(2)] == [55, 56]
            # the server shut the dropped socket down; its reader thread closed it
            bad.settimeout(5)
            assert bad.recv(64) == b""
            assert wait_until(lambda: session.conn.fileno() == -1)
        finally:
            bad.close()
            good.close()

    def test_bind_failure_raises(self, server, monkeypatch):
        created = record_sockets(monkeypatch)
        other = TissueServer(create_compartment(seed=2), host="127.0.0.1", port=server.port)
        with pytest.raises(OSError):
            other.start()
        assert len(created) == 1
        assert created[0].fileno() == -1

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_out_of_range(self, compartment, port):
        with pytest.raises(ValueError, match=f"^port must be in 0..65535, got {port}$"):
            TissueServer(compartment, host="127.0.0.1", port=port)

    @pytest.mark.parametrize("rate", [0, -1, math.nan, math.inf])
    def test_bad_cycle_rate_rejected(self, compartment, monkeypatch, rate):
        # a pacer at such a rate would spin without sleeping or die in its thread
        created = record_sockets(monkeypatch)
        threads = set(threading.enumerate())
        with pytest.raises(ValueError, match="cycles_per_second must be finite and > 0"):
            TissueServer(compartment, host="127.0.0.1", port=0, cycles_per_second=rate)
        assert created == []
        assert set(threading.enumerate()) <= threads  # no thread started

    def test_start_failure_closes_listener(self, monkeypatch):
        created = record_sockets(monkeypatch)
        other = TissueServer(create_compartment(seed=2), host="127.0.0.1", port=0)
        other.port = 70000  # past the constructor's check: bind raises OverflowError
        with pytest.raises(OverflowError):
            other.start()
        assert len(created) == 1
        assert created[0].fileno() == -1

    def test_stop_with_silent_client_and_stalled_subscriber(self, compartment, monkeypatch):
        def flooding_cycle():
            for _ in range(100):
                compartment.emit_response(9, 55)

        monkeypatch.setattr(compartment, "cycle", flooding_cycle)
        srv = TissueServer(compartment, host="127.0.0.1", port=0, cycles_per_second=100)
        srv.start()
        silent = client_socket(srv)
        stalled = socket.socket()
        try:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.settimeout(5)
            stalled.connect(("127.0.0.1", srv.port))
            send_lines(stalled, "HELLO 1 response")

            def subscribed():
                return len(srv._sessions) == 2 and any(s.roles for s in srv._sessions)

            assert wait_until(subscribed)
            session = next(s for s in srv._sessions if "response" in s.roles)
            session.conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

            def pacer_blocked():  # in a send to the subscriber, which never reads
                before = len(compartment.response_log)
                time.sleep(0.2)
                return len(compartment.response_log) == before > 0

            assert wait_until(pacer_blocked, timeout=10)
            # in a thread, so that a stop that hangs fails the test
            stopper = threading.Thread(target=srv.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=2.0)
            assert not stopper.is_alive()
        finally:
            silent.close()
            stalled.close()
            srv.stop()

    def test_stop_without_clients_returns_at_once(self):
        # stop() must not wait out the accept loop's 0.2 s poll
        for seed in range(5):
            srv = TissueServer(create_compartment(seed=seed), host="127.0.0.1", port=0)
            srv.start()
            started = time.monotonic()
            srv.stop()
            assert time.monotonic() - started < 0.05


class ScriptedConn:
    """A session's connection whose every ``recv`` returns the next piece, then b""."""

    def __init__(self, pieces):
        self.unread = list(pieces)

    def recv(self, size):
        assert size == wire.READ_BYTES
        return self.unread.pop(0) if self.unread else b""


def serve_pieces(pieces, params=TissueParams()) -> tuple[TissueServer, ScriptedConn]:
    """Run one session that reads exactly ``pieces``, one per recv, on a fresh compartment."""
    server = TissueServer(create_compartment(params, seed=1), host="127.0.0.1")
    conn = ScriptedConn(pieces)
    server._serve_client(SimpleNamespace(conn=conn, address=("scripted", 0), roles=set()))
    return server, conn


def serve_one_sendall(stream: bytes) -> TissueServer:
    """Send ``stream`` to a running server in one sendall; return it once the session ends."""
    with TissueServer(create_compartment(TissueParams(), seed=1), host="127.0.0.1") as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(stream)
            assert sock.recv(64) == b""  # the session ended and the server closed it
        assert wait_until(lambda: not server._sessions)
    return server


VALID_FRAMES = st.one_of(
    st.builds(
        "ANTIGEN {} {}".format,
        st.integers(min_value=0, max_value=SYSCALL_RANGE - 1),
        st.sampled_from(sorted(LABELS)),
    ),
    st.floats(min_value=0.0, max_value=1.0).map("SIGNAL cpu {!r}".format),
)


def padded_antigen(length: int) -> bytes:
    """A valid ``ANTIGEN`` frame of ``length`` bytes, newline not counted."""
    frame = "ANTIGEN 6 normal"
    return frame.replace(" ", " " * (length - len(frame) + 1), 1).encode("ascii")


class TestFraming:
    """A session's frames do not depend on how its byte stream is cut into reads."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(VALID_FRAMES, min_size=1, max_size=400),
        st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=40),
    )
    def test_pieces_match_one_sendall(self, frames, sizes):
        stream = "".join(f"{line}\n" for line in ["HELLO 1 antigen,signal", *frames, "BYE"])
        stream = stream.encode("ascii")
        pieces, start = [], 0
        while start < len(stream):  # mostly cut inside a frame
            size = sizes[len(pieces) % len(sizes)]
            pieces.append(stream[start:start + size])
            start += size
        cut, conn = serve_pieces(pieces)
        whole = serve_one_sendall(stream)
        assert not conn.unread
        for server in (cut, whole):
            assert server.frames_rejected_total == 0
        cut, whole = cut.compartment, whole.compartment
        assert list(cut._store) == list(whole._store)
        assert cut.antigen_added_total == whole.antigen_added_total
        assert cut.get_signal("cpu") == whole.get_signal("cpu")
        signals = sum(line.startswith("SIGNAL") for line in frames)
        assert cut.signals_set_total == whole.signals_set_total == signals

    @pytest.mark.parametrize("cut", [1, 128, MAX_FRAME_BYTES - 1, MAX_FRAME_BYTES])
    @pytest.mark.parametrize("extra, accepted", [(0, 3), (1, 1)])
    def test_frame_length_cap_across_reads(self, caplog, cut, extra, accepted):
        # the frame, newline included, is at the cap or one byte over it
        line = padded_antigen(MAX_FRAME_BYTES - 1 + extra) + b"\n"
        pieces = [b"HELLO 1 antigen\nANTIGEN 5 normal\n" + line[:cut], line[cut:],
                  b"ANTIGEN 7 normal\nBYE\n"]
        server, _ = serve_pieces([piece for piece in pieces if piece])  # b"" would end it
        assert server.compartment.antigen_added_total == accepted
        assert server.frames_rejected_total == extra
        if extra:
            assert f"frame longer than {MAX_FRAME_BYTES} bytes" in caplog.text

    def test_pending_frame_at_cap_rejected_before_newline(self, server, compartment, caplog):
        sock = client_socket(server)
        try:
            sock.sendall(b"HELLO 1 antigen\nANTIGEN 5 normal\n" + padded_antigen(MAX_FRAME_BYTES))
            sock.settimeout(5)
            assert sock.recv(64) == b""  # closed with the newline still to come
        finally:
            sock.close()
        assert wait_until(lambda: not server._sessions)
        assert compartment.antigen_added_total == 1
        assert server.frames_rejected_total == 1
        assert f"frame longer than {MAX_FRAME_BYTES} bytes" in caplog.text

    def test_hello_and_antigen_in_one_read(self):
        server, _ = serve_pieces([b"HELLO 1 antigen\nANTIGEN 5 normal\nANTIGEN 6 attack\n"])
        assert list(server.compartment._store) == [5, 6]
        assert server.frames_rejected_total == 0

    def test_frames_after_bye_in_one_read_ignored(self):
        server, conn = serve_pieces([
            b"HELLO 1 antigen\nANTIGEN 5 normal\nBYE\nANTIGEN 6 normal\nNONSENSE\nANTIGEN 7",
            b" normal\n",
        ])
        assert list(server.compartment._store) == [5]
        assert server.frames_rejected_total == 0
        assert conn.unread == [b" normal\n"]


def reference_serve(compartment, pieces) -> tuple[str | None, int]:
    """The session read loop with every frame through ``decode``, as it was
    before sessions looked canonical ANTIGEN frames up themselves.

    Returns the protocol error that ended the session, or None, and the
    number of pieces read.
    """
    roles: set[str] = set()
    pending = b""
    reads = 0
    try:
        for chunk in pieces:
            reads += 1
            frames = (pending + chunk).split(b"\n")
            pending = frames.pop()
            for frame in frames:
                if len(frame) >= MAX_FRAME_BYTES:
                    raise ProtocolError(f"frame longer than {MAX_FRAME_BYTES} bytes")
                message = decode(frame)
                kind = message.kind
                if kind is MessageKind.ANTIGEN and "antigen" in roles:
                    compartment.add_antigen(message.number)
                elif kind is MessageKind.HELLO:
                    if roles:
                        raise ProtocolError("duplicate HELLO")
                    if message.version != PROTOCOL_VERSION:
                        raise ProtocolError(f"unsupported protocol version {message.version}")
                    roles = set(message.roles)
                elif not roles:
                    raise ProtocolError(f"{kind.value} before HELLO")
                elif kind is MessageKind.ANTIGEN:
                    raise ProtocolError("ANTIGEN from client without antigen role")
                elif kind is MessageKind.SIGNAL:
                    if "signal" not in roles:
                        raise ProtocolError("SIGNAL from client without signal role")
                    try:
                        compartment.set_signal(message.name, message.value)
                    except ValueError as exc:
                        raise ProtocolError(str(exc)) from None
                elif kind is MessageKind.RESPONSE:
                    raise ProtocolError("RESPONSE flows server to client only")
                else:
                    return None, reads
            if len(pending) >= MAX_FRAME_BYTES:
                raise ProtocolError(f"frame longer than {MAX_FRAME_BYTES} bytes")
        if pending:
            raise ProtocolError(f"frame cut off at disconnect: {pending!r}")
    except ProtocolError as exc:
        return str(exc), reads
    return None, reads


class ProtocolErrors(logging.Handler):
    """Collects the protocol errors ``aisd.wire`` logs while it is attached."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.errors: list[str] = []

    def emit(self, record):
        self.errors.append(record.getMessage().partition("protocol error: ")[2])

    def __enter__(self):
        wire.logger.addHandler(self)
        return self

    def __exit__(self, *exc_info):
        wire.logger.removeHandler(self)


ROLE_SETS = [  # the empty one makes a HELLO that decode rejects
    roles for n in range(4) for roles in itertools.combinations(sorted(wire.VALID_ROLES), n)
]

# a session's first HELLO: none, any role set, and most often both input roles
FIRST_ROLES = st.sampled_from([None, *ROLE_SETS, *[("antigen", "signal")] * 4])


def hello(roles) -> bytes:
    return f"HELLO 1 {','.join(roles)}".encode()

SESSION_FRAMES = st.one_of(
    # canonical ANTIGEN and valid SIGNAL frames, weighted up so that sessions
    # run long enough to fill the store
    *[VALID_FRAMES.map(str.encode)] * 6,
    st.one_of(
        st.sampled_from([  # non-canonical spellings that decode accepts or rejects
            line.rstrip(b"\n") for line in NON_CANONICAL if isinstance(line, bytes)
        ]),
        st.sampled_from(ROLE_SETS).map(hello),
        st.sampled_from([
            b"HELLO 2 antigen", b"ANTIGEN 512 normal", b"ANTIGEN 5 hostile", b"ANTIGEN 5",
            b"SIGNAL cpu nan", b"SIGNAL cpu 1.5", b"SIGNAL mem 0.5", b"RESPONSE 5 1 0.5",
            b"NONSENSE", b"", b"\xff\xfe garbage", b"A" * (2 * MAX_FRAME_BYTES),
            padded_antigen(MAX_FRAME_BYTES - 1), padded_antigen(MAX_FRAME_BYTES),
        ]),
        st.just(b"BYE"),
    ),
)


class TestSessionDifferential:
    """The session's read loop against the reference loop that decodes every frame."""

    @settings(max_examples=300, deadline=None)
    @given(
        FIRST_ROLES,
        st.integers(min_value=0, max_value=60).flatmap(  # lengths spread evenly
            lambda n: st.lists(SESSION_FRAMES, min_size=n, max_size=n)
        ),
        st.booleans(),
        st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=20),
    )
    def test_session_matches_decode_every_frame(self, roles, frames, last_newline, sizes):
        if roles is not None:
            frames = [hello(roles), *frames]
        stream = b"\n".join(frames) + (b"\n" if last_newline else b"")
        pieces, start = [], 0
        while start < len(stream):
            size = sizes[len(pieces) % len(sizes)]
            pieces.append(stream[start:start + size])
            start += size
        params = TissueParams(antigen_capacity=4)  # so some frames drop the oldest
        with ProtocolErrors() as logged:
            server, conn = serve_pieces(pieces, params)
        reference = create_compartment(params, seed=1)
        error, reads = reference_serve(reference, pieces)
        session = server.compartment
        assert list(session._store) == list(reference._store)
        assert session.antigen_added_total == reference.antigen_added_total
        assert session.antigen_dropped_total == reference.antigen_dropped_total
        assert session.get_signal("cpu") == reference.get_signal("cpu")
        assert server.frames_rejected_total == (error is not None)
        assert logged.errors == ([] if error is None else [error])
        assert len(pieces) - len(conn.unread) == reads


class TestPacer:
    def test_overrun_counts_skipped_cycles(self, compartment, monkeypatch):
        cycle = compartment.cycle
        done = []

        def cycle_once_slow():
            report = cycle()
            done.append(compartment.cycle_count)
            if len(done) == 3:
                time.sleep(0.35)  # 3.5 intervals at 10 cycles/s
            return report

        monkeypatch.setattr(compartment, "cycle", cycle_once_slow)
        with TissueServer(compartment, host="127.0.0.1", port=0, cycles_per_second=10) as srv:
            assert wait_until(lambda: len(done) >= 6)
            skipped = srv.cycles_skipped_total
        assert skipped >= 2
        assert done[:6] == [1, 2, 3, 4, 5, 6]


class TestReplay:
    def make_log(self, timestamps):
        events = [SyscallEvent(t, 5) for t in timestamps]
        return merge_to_replay_log(events, [], "pacing")

    def test_realtime_pacing(self, server, compartment):
        log = self.make_log([0.0, 1.0, 2.0])
        summary = replay(log, ReplayConfig(port=server.port, rate_multiplier=1.0))
        assert summary.sent_antigen == 3
        assert 1.8 <= summary.wall_time <= 2.2  # ±10%

    def test_rate_scaling(self, server):
        log = self.make_log([0.0, 1.0, 2.0])
        summary = replay(log, ReplayConfig(port=server.port, rate_multiplier=10.0))
        assert 0.18 <= summary.wall_time <= 0.25

    def test_counts_include_signals(self, server, compartment):
        events = [SyscallEvent(0.0, 5)]
        samples = [SignalSample(0.0, "cpu", 0.5), SignalSample(0.05, "cpu", 0.6)]
        log = merge_to_replay_log(events, samples, "mixed")
        summary = replay(log, ReplayConfig(port=server.port, rate_multiplier=100.0))
        assert summary == ReplaySummary(1, 2, summary.wall_time)
        assert wait_until(lambda: compartment.signals_set_total == 2)

    def test_connection_refused(self):
        log = self.make_log([0.0])
        with pytest.raises(ReplayError, match="connect"):
            replay(log, ReplayConfig(port=1, rate_multiplier=1.0))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ReplayConfig(rate_multiplier=0.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^rate_multiplier must be finite and > 0, got {value}$"):
                ReplayConfig(rate_multiplier=value)
            for name in ("start_delay", "tail_time"):
                with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {value}$"):
                    ReplayConfig(**{name: value})

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_out_of_range(self, port):
        with pytest.raises(ValueError, match=f"^port must be in 0..65535, got {port}$"):
            ReplayConfig(port=port)

    def test_cli_rejects_port_out_of_range(self, tmp_path):
        # port + 65536 would wrap around to the listener's port if unchecked
        path = tmp_path / "pacing.tcr"
        write_replay_log(self.make_log([0.0, 0.1]), path)
        env = {**os.environ, "PYTHONPATH": str(Path(wire.__file__).parents[1])}
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1] + 65536
            result = subprocess.run(
                [sys.executable, "-m", "aisd.cli", "replay", "--log", str(path),
                 "--host", "127.0.0.1", "--port", str(port), "--rate", "100"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert result.returncode != 0
            assert f"port must be in 0..65535, got {port}" in result.stderr
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()  # nobody connected

    def test_cli_rejects_nan_rate_before_sending(self, tmp_path):
        from aisd import cli

        path = tmp_path / "pacing.tcr"
        write_replay_log(self.make_log([0.0, 0.1]), path)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            with pytest.raises(ValueError, match="^rate_multiplier must be finite and > 0, got nan$"):
                cli.main(["replay", "--log", str(path), "--rate", "nan", "--port", str(port)])
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()  # nobody connected

    @pytest.mark.parametrize(
        "value, error",
        [("abc", "AISD_PORT must be an integer, got 'abc'"),
         ("70000", "port must be in 0..65535, got 70000")],
    )
    def test_bad_environment_port(self, tmp_path, value, error):
        path = tmp_path / "pacing.tcr"
        write_replay_log(self.make_log([0.0]), path)
        env = {
            **os.environ, "AISD_PORT": value,
            "PYTHONPATH": str(Path(wire.__file__).parents[1]),
        }

        def run(*args):
            return subprocess.run(
                [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
            )

        # a command that takes no port still runs
        assert run("-m", "aisd.cli", "synth", "--list-profiles").returncode == 0
        for args in (
            ("-m", "aisd.cli", "serve"),
            ("-m", "aisd.cli", "replay", "--log", str(path)),
            ("-c", "from aisd.cli import tcreplay_main; tcreplay_main()", "--log", str(path)),
        ):
            result = run(*args)
            assert result.returncode != 0
            assert error in result.stderr
            assert "serving on" not in result.stdout

    @pytest.mark.parametrize(
        "event_times, signal_times",
        [
            ([0.0, 0.01, 0.01, 0.02, 0.03], [0.0, 0.01, 0.01, 0.03, 0.04]),
            ([0.005, 0.02], []),
            ([], [0.0, 0.01]),
            ([], []),
        ],
    )
    def test_sends_records_in_merged_order(self, event_times, signal_times):
        events = [
            SyscallEvent(t, k % 7, Label.ATTACK if k % 3 else Label.NORMAL)
            for k, t in enumerate(event_times)
        ]
        samples = [SignalSample(t, "cpu", k / 8) for k, t in enumerate(signal_times)]
        log = merge_to_replay_log(events, samples, "ties")
        expected = [encode(WireMessage.hello(("antigen", "signal")))]
        for record in log.records:
            if isinstance(record, SyscallEvent):
                expected.append(encode(WireMessage.antigen(record.syscall_number, record.label)))
            else:
                expected.append(encode(WireMessage.signal(record.signal_name, record.value)))
        expected.append(encode(WireMessage.bye()))

        received = []
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            listener.settimeout(5)

            def capture():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5)
                    while chunk := conn.recv(4096):
                        received.append(chunk)

            thread = threading.Thread(target=capture)
            thread.start()
            summary = replay(
                log, ReplayConfig(port=listener.getsockname()[1], rate_multiplier=100.0)
            )
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert b"".join(received) == "".join(line + "\n" for line in expected).encode("ascii")
        assert (summary.sent_antigen, summary.sent_signals) == (len(events), len(samples))
