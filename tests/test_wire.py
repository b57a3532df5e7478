from __future__ import annotations

import random
import re
import socket
import threading
import time

import pytest
from hypothesis import given
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
)
from aisd.twocell import TwocellParams, attach_twocell
from aisd.wire import (
    MAX_FRAME_BYTES,
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
    return [
        f"ANTIGEN {number} {label}\n".encode("ascii")
        for number in range(SYSCALL_RANGE) for label in LABELS
    ]


def outcome(parse, line) -> WireMessage | str:
    """``parse(line)``, or the text of the ``ProtocolError`` it raises."""
    try:
        return parse(line)
    except ProtocolError as exc:
        return str(exc)


def assert_memo_canonical() -> None:
    memo = wire._ANTIGEN_FRAMES
    assert len(memo) <= 2 * SYSCALL_RANGE
    for line, message in memo.items():
        assert message.kind is MessageKind.ANTIGEN
        assert line == (encode(message) + "\n").encode("ascii")


@pytest.fixture
def empty_memo():
    wire._ANTIGEN_FRAMES.clear()
    yield wire._ANTIGEN_FRAMES
    wire._ANTIGEN_FRAMES.clear()


# Hostile spellings of ANTIGEN frames: each parses (or fails) but is not the
# canonical frame of what it parses to.
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
    b"ANTIGEN 7 normal",
    b"ANTIGEN \xd9\xa7 normal\n",
]


class TestAntigenMemo:
    def test_every_canonical_frame(self, empty_memo):
        frames = canonical_frames()
        assert len(frames) == 2 * SYSCALL_RANGE
        for frame in frames:
            expected = wire._parse(frame)
            assert decode(frame) == expected  # first sight
            assert empty_memo[frame] == expected
            assert decode(frame) == expected  # memo hit
            assert decode(frame.decode("ascii")) == expected
        assert len(empty_memo) == 2 * SYSCALL_RANGE
        assert_memo_canonical()

    @pytest.mark.parametrize("line", NON_CANONICAL)
    def test_non_canonical_spelling_not_stored(self, empty_memo, line):
        decode(b"ANTIGEN 7 normal\n")
        decode(b"ANTIGEN 10 normal\n")
        before = dict(empty_memo)
        assert outcome(decode, line) == outcome(wire._parse, line)
        assert outcome(decode, line) == outcome(wire._parse, line)
        assert empty_memo == before

    def test_str_lines_not_stored(self, empty_memo):
        assert decode("ANTIGEN 5 normal\n") == WireMessage.antigen(5, Label.NORMAL)
        assert decode("ANTIGEN 5 normal") == WireMessage.antigen(5, Label.NORMAL)
        assert empty_memo == {}

    def test_other_kinds_not_stored(self, empty_memo):
        for message in (
            WireMessage.hello(("antigen",)), WireMessage.signal("cpu", 0.5),
            WireMessage.response(5, 1, 2.5), WireMessage.bye(),
        ):
            assert decode((encode(message) + "\n").encode("ascii")) == message
        assert empty_memo == {}

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
    def test_errors_unchanged_with_warm_memo(self, empty_memo, line, error):
        for frame in canonical_frames():
            decode(frame)
        with pytest.raises(ProtocolError, match=re.escape(error)):
            decode(line)
        assert outcome(decode, line) == outcome(wire._parse, line)
        assert len(empty_memo) == 2 * SYSCALL_RANGE

    def test_hostile_stream_keeps_memo_bounded(self, empty_memo):
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
            assert outcome(decode, line) == outcome(wire._parse, line)
        for frame in canonical_frames():
            decode(frame)
        assert_memo_canonical()
        assert len(empty_memo) == 2 * SYSCALL_RANGE

    @given(
        st.integers(min_value=-2, max_value=SYSCALL_RANGE + 2).map(str)
        | st.from_regex(r"\A[+\-0-9_ ]{1,6}\Z"),
        st.sampled_from(["normal", "attack", "NORMAL", "", "x"]),
        st.sampled_from([" ", "  ", "\t"]),
        st.sampled_from(["\n", "\r\n", " \n", ""]),
    )
    def test_decode_matches_parse(self, number, label, sep, end):
        line = f"ANTIGEN{sep}{number}{sep}{label}{end}".encode("ascii")
        assert outcome(decode, line) == outcome(wire._parse, line)
        assert outcome(decode, line) == outcome(wire._parse, line)
        assert_memo_canonical()


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
        finally:
            sock.close()

    def test_role_enforcement(self, server, compartment):
        sock = client_socket(server)
        try:
            send_lines(sock, "HELLO 1 signal", "ANTIGEN 5 normal")
            sock.settimeout(5)
            assert sock.recv(64) == b""
            assert compartment.antigen_added_total == 0
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "frame", ["SIGNAL cpu nan", "SIGNAL cpu inf", "SIGNAL cpu -inf", "ANTIGEN 512 normal"]
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
            assert [value for value, _ in compartment._store] == [5, 6]
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

    def test_finished_session_threads_pruned(self, server, compartment):
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
            # the accept thread, this session's and at most the one before it
            assert len(server._threads) <= 3
        assert compartment.antigen_added_total == 30
        assert server._accept_thread in server._threads

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
        created = []

        class RecordingSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(socket, "socket", RecordingSocket)
        other = TissueServer(create_compartment(seed=2), host="127.0.0.1", port=server.port)
        with pytest.raises(OSError):
            other.start()
        assert len(created) == 1
        assert created[0].fileno() == -1


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
