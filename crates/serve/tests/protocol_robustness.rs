//! Adversarial wire-protocol coverage against a live server: malformed
//! frames must come back as typed [`Reply::ProtoError`]s (or a silent
//! close where no frame boundary survives), never a panic — and a bad
//! client must never take the server down for everyone else.

use std::io::Write;
use std::net::{Shutdown, TcpStream};

use rcpn_serve::client::Client;
use rcpn_serve::protocol::{
    encode_request, read_reply, write_frame, Reply, Request, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use rcpn_serve::server::{ServeConfig, Server};
use workloads::Workload;

/// One shared server for the whole test binary: robustness tests only
/// need *a* live endpoint, and compiling the registry once keeps the
/// suite fast. The OS reclaims the thread at process exit; clean
/// shutdown itself is covered by the loopback tests.
fn server_addr() -> std::net::SocketAddr {
    static ADDR: std::sync::OnceLock<std::net::SocketAddr> = std::sync::OnceLock::new();
    *ADDR.get_or_init(|| {
        let server =
            Server::bind(ServeConfig { workers: 1, ..ServeConfig::default() }).expect("bind");
        let addr = server.local_addr();
        std::thread::spawn(move || server.run().expect("server runs"));
        addr
    })
}

/// After an adversarial connection, the server must still serve: a fresh
/// client runs one real job end to end.
fn assert_still_serving() {
    let mut client = Client::connect(server_addr()).expect("fresh client connects");
    let workload = &Workload::suite(0.0)[0];
    let (job_id, _) = client.submit("strongarm", &workload.program, 4_000_000_000).expect("submit");
    let outcome = client.collect(job_id).expect("collect");
    assert_eq!(outcome.result.exit, Some(workload.expected));
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut stream = TcpStream::connect(server_addr()).expect("connect");
    // A length prefix past MAX_FRAME_LEN: the server must refuse it
    // without ever allocating the claimed buffer.
    stream.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).expect("write prefix");
    stream.flush().expect("flush");
    let reply = read_reply(&mut stream).expect("typed reply, not a dropped connection");
    assert!(
        matches!(reply, Reply::ProtoError { ref message } if message.contains("exceeds")),
        "expected oversize ProtoError, got {reply:?}"
    );
    assert_still_serving();
}

#[test]
fn wrong_version_byte_gets_a_typed_error() {
    // Version 1 is what a client from before the ServerInfo change sends.
    for version in [1, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(server_addr()).expect("connect");
        let mut frame = encode_request(&Request::Hello);
        frame[0] = version;
        write_frame(&mut stream, &frame).expect("write");
        stream.flush().expect("flush");
        let reply = read_reply(&mut stream).expect("typed reply");
        assert!(
            matches!(reply, Reply::ProtoError { ref message } if message.contains("version")),
            "version {version}: expected version ProtoError, got {reply:?}"
        );
        assert_still_serving();
    }
}

#[test]
fn unknown_tag_gets_a_typed_error() {
    // 0x7f was never assigned; 0x03 is a retired request tag, which a
    // client from before its retirement may still send.
    for tag in [0x7f, 0x03] {
        let mut stream = TcpStream::connect(server_addr()).expect("connect");
        write_frame(&mut stream, &[PROTOCOL_VERSION, tag]).expect("write");
        stream.flush().expect("flush");
        let reply = read_reply(&mut stream).expect("typed reply");
        assert!(
            matches!(reply, Reply::ProtoError { ref message } if message.contains("tag")),
            "tag {tag:#04x}: expected tag ProtoError, got {reply:?}"
        );
        assert_still_serving();
    }
}

#[test]
fn corrupt_body_gets_a_typed_error() {
    let mut stream = TcpStream::connect(server_addr()).expect("connect");
    let frame = encode_request(&Request::Hello);
    // Valid header, trailing garbage after the body: the decoder must
    // reject the excess, not ignore it.
    let mut corrupt = frame.clone();
    corrupt.extend_from_slice(&[0xde, 0xad]);
    write_frame(&mut stream, &corrupt).expect("write");
    stream.flush().expect("flush");
    let reply = read_reply(&mut stream).expect("typed reply");
    assert!(matches!(reply, Reply::ProtoError { .. }), "expected ProtoError, got {reply:?}");
    assert_still_serving();
}

#[test]
fn truncated_frame_closes_quietly_and_server_survives() {
    let mut stream = TcpStream::connect(server_addr()).expect("connect");
    // Claim 100 bytes, deliver 10, hang up: no frame boundary survives,
    // so there is nothing to reply to — the server just drops us.
    stream.write_all(&100u32.to_le_bytes()).expect("write prefix");
    stream.write_all(&[PROTOCOL_VERSION; 10]).expect("write partial body");
    stream.flush().expect("flush");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let err = read_reply(&mut stream).expect_err("connection closes without a reply");
    drop(err); // Closed or Io depending on timing; either way, no panic upstream.
    assert_still_serving();
}

#[test]
fn mid_stream_disconnect_leaves_server_healthy() {
    let workload = &Workload::suite(0.0)[0];
    {
        let mut client = Client::connect(server_addr()).expect("connect");
        let (_job_id, _) =
            client.submit("strongarm", &workload.program, 4_000_000_000).expect("submit");
        // Vanish with the job in flight: the worker's completed result
        // hits a dead socket, which the server must shrug off.
    }
    assert_still_serving();
}
