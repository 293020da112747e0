//! The running reactor end to end over loopback: a handler that panics
//! costs one request, not the shard under it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use cpm_reactor::{spawn, Config, Handler, Telemetry};

#[test]
fn a_panicking_handler_costs_one_request_not_the_shard() {
    let handler: Arc<dyn Handler> = Arc::new(|payload: &str| {
        assert!(payload != "boom", "handler blew up on the marker payload");
        (format!("echo {payload}"), false)
    });
    // One shard: every connection shares the thread the panic unwinds
    // on, and that thread owns the listener.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut running = spawn(listener, handler, Config::default(), Telemetry::default()).unwrap();

    let round_trip = |requests: &[u8], answers: usize| -> Vec<String> {
        let mut stream = TcpStream::connect(running.addr()).unwrap();
        stream.write_all(requests).unwrap();
        let mut reader = BufReader::new(stream);
        (0..answers)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line
            })
            .collect()
    };
    // Pipelined on one connection: before, the panic, after.
    assert_eq!(
        round_trip(b"one\nboom\ntwo\n", 3),
        [
            "echo one\n",
            "{\"ok\":false,\"error\":\"internal error\"}\n",
            "echo two\n"
        ]
    );
    // A fresh connection is still accepted and served by that shard.
    assert_eq!(round_trip(b"three\n", 1), ["echo three\n"]);

    // Binary framing answers the panic in its own framing.
    let mut stream = TcpStream::connect(running.addr()).unwrap();
    stream.write_all(b"\x00\x04\x00\x00\x00boom").unwrap();
    let mut frame = [0u8; 4 + 37];
    stream.read_exact(&mut frame).unwrap();
    assert_eq!(&frame[..4], &37u32.to_le_bytes());
    assert_eq!(&frame[4..], b"{\"ok\":false,\"error\":\"internal error\"}");

    running.shutdown(); // still joins: no shard thread died
}
