//! End-to-end daemon smoke test: boot on a loopback port, exercise every
//! op over a real TCP connection, and shut down cleanly.

use hca_serve::{Client, CompileSpec, Request, Server, ServerConfig};
#[cfg(unix)]
use std::path::PathBuf;

#[cfg(unix)]
fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hca_serve_smoke_{}_{name}", std::process::id()));
    p
}

fn spec(kernel: &str) -> CompileSpec {
    CompileSpec {
        kernel: Some(kernel.to_string()),
        ..CompileSpec::default()
    }
}

#[test]
fn daemon_round_trip_and_request_cache() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.ping().expect("ping");

    // Cold compile: solved.
    let first = client.compile(spec("fir2dim")).expect("cold compile");
    assert!(first.legal, "served fir2dim must be legal");
    assert!(first.subproblems > 0);

    // The same job again is answered from the result cache.
    let second = client.compile(spec("fir2dim")).expect("hot compile");
    assert_eq!(first, second, "same job must serve identical bits");
    let stats = client.stats().expect("stats");
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.cache_entries),
        (1, 1, 1),
        "second compile of the same job must hit the cache: {stats:?}"
    );
    // A different machine is a different job.
    let other = client
        .compile(CompileSpec {
            machine: Some("4,4,4".into()),
            ..spec("fir2dim")
        })
        .expect("compile on another machine");
    assert!(other.legal);
    assert_eq!(client.stats().expect("stats").cache_misses, 2);

    // Batch: good jobs succeed in order, a bad job fails only itself, and
    // a job repeated inside the batch is solved once.
    let items = client
        .compile_batch(vec![
            spec("biquad"),
            spec("no_such_kernel"),
            spec("fir8"),
            spec("biquad"),
        ])
        .expect("batch");
    assert_eq!(items.len(), 4);
    assert!(items[0].ok && items[2].ok && items[3].ok);
    assert_eq!(items[0].result, items[3].result);
    assert!(!items[1].ok, "unknown kernel must fail its own item");
    assert!(items[1]
        .error
        .as_deref()
        .unwrap()
        .contains("unknown kernel"));

    // A deliberately panicking worker degrades only its request.
    let msg = client.crash().expect("crash op must report the panic");
    assert!(
        msg.contains("deliberate crash"),
        "panic message served: {msg}"
    );
    client
        .ping()
        .expect("daemon must keep serving after a worker panic");

    // Unknown op and malformed line both get answers, not silence.
    let resp = client
        .call(Request {
            op: "frobnicate".into(),
            ..Request::default()
        })
        .expect("unknown op still answered");
    assert!(!resp.ok);

    client.shutdown().expect("shutdown");
    let final_stats = daemon.join().expect("daemon thread");
    // Solved: fir2dim, fir2dim on 4,4,4, biquad and fir8; answered from
    // the cache: the second fir2dim and the second biquad. The unknown
    // kernel never reaches the cache.
    assert_eq!(
        (
            final_stats.cache_misses,
            final_stats.cache_hits,
            final_stats.cache_entries
        ),
        (4, 2, 4),
        "{final_stats:?}"
    );
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let sock = temp_path("sock");
    let _ = std::fs::remove_file(&sock);
    let server = Server::bind(ServerConfig {
        bind: hca_serve::Bind::Unix(sock.clone()),
        ..ServerConfig::default()
    })
    .expect("bind unix");
    let stop = server.stop_handle();
    let daemon = std::thread::spawn(move || server.run().expect("unix run"));

    let mut client = Client::connect_unix(&sock).expect("connect unix");
    client.ping().expect("unix ping");
    let served = client.compile(spec("dot_product")).expect("unix compile");
    assert!(served.legal);

    stop.stop();
    daemon.join().expect("daemon thread");
    assert!(!sock.exists(), "socket file must be removed on shutdown");
}

#[test]
fn inline_ddgs_failing_validation_are_typed_errors() {
    use serde_json::Value;
    let json = serde_json::to_string(&hca_kernels::dspstone::dot_product()).expect("serialise");
    let dangling = json.replacen("\"dst\":0", "\"dst\":999", 1);
    assert_ne!(dangling, json, "first edge retargeted");
    // The first edge's latency raised past `hca_ddg::MAX_EDGE_WEIGHT`.
    let mut heavy = serde_json::from_str_value(&json).expect("parse");
    let Value::Map(fields) = &mut heavy else {
        panic!("DDG JSON is an object");
    };
    let Some((_, Value::Seq(edges))) = fields.iter_mut().find(|(k, _)| k == "edges") else {
        panic!("edges is an array");
    };
    let Value::Map(edge) = &mut edges[0] else {
        panic!("an edge is an object");
    };
    edge.iter_mut().find(|(k, _)| k == "latency").unwrap().1 = Value::UInt(u64::from(u32::MAX));
    let heavy = serde_json::to_string(&heavy).unwrap();

    let server = Server::bind(ServerConfig::default()).expect("bind");
    let stop = server.stop_handle();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect_tcp(&addr).expect("connect");
    for (broken, want) in [
        (dangling, "edge 0 (n0 -> n999)"),
        (heavy, "has latency 4294967295"),
    ] {
        let ddg: hca_ddg::Ddg = serde_json::from_str(&broken).expect("still a DDG");
        let err = client
            .compile(CompileSpec {
                ddg: Some(ddg),
                ..CompileSpec::default()
            })
            .expect_err("an invalid DDG must be rejected");
        assert!(err.contains("malformed DDG"), "{err}");
        assert!(err.contains(want), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        client.ping().expect("daemon keeps serving");
    }

    stop.stop();
    daemon.join().expect("daemon thread");
}

/// Read one response line from a raw connection.
fn read_response(reader: &mut impl std::io::BufRead) -> hca_serve::Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

#[test]
fn oversized_request_line_is_refused_and_the_connection_keeps_serving() {
    use std::io::{BufReader, Write};

    let server = Server::bind(ServerConfig::default()).expect("bind");
    let stop = server.stop_handle();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // 16 MiB of one unterminated JSON string, well past the line cap.
    writer.write_all(br#"{"id":1,"op":"ping","pad":""#).unwrap();
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..16 {
        writer.write_all(&chunk).unwrap();
    }
    writer.write_all(b"\"}\n").unwrap();
    let refused = read_response(&mut reader);
    assert!(!refused.ok);
    assert!(
        refused.error.as_deref().unwrap_or("").contains("exceeds"),
        "{refused:?}"
    );
    // The rest of the oversized line was discarded: the next request on
    // the same connection is answered normally.
    writer.write_all(b"{\"id\":2,\"op\":\"ping\"}\n").unwrap();
    let pong = read_response(&mut reader);
    assert!(pong.ok && pong.id == 2, "{pong:?}");

    stop.stop();
    daemon.join().expect("daemon thread");
}

#[test]
fn a_connection_over_the_cap_is_refused_and_reaped_slots_are_reused() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    let server = Server::bind(ServerConfig::default()).expect("bind");
    let stop = server.stop_handle();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    // Well past the daemon's connection cap; none of them sends anything.
    let conns: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    let last = conns.last().unwrap().try_clone().unwrap();
    last.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let busy = read_response(&mut BufReader::new(last));
    assert!(!busy.ok);
    assert!(
        busy.error.as_deref().unwrap_or("").contains("busy"),
        "{busy:?}"
    );
    // A connection under the cap is served.
    let mut first = conns[0].try_clone().unwrap();
    first.write_all(b"{\"id\":7,\"op\":\"ping\"}\n").unwrap();
    let pong = read_response(&mut BufReader::new(first));
    assert!(pong.ok && pong.id == 7, "{pong:?}");
    drop(conns);
    // Closed connections' handlers finish and are reaped at the next
    // accept: a fresh client gets in (retry while the handlers wind down).
    let mut served = false;
    for _ in 0..200 {
        if Client::connect_tcp(&addr).is_ok_and(|mut c| c.ping().is_ok()) {
            served = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(served, "no connection admitted after the others closed");

    stop.stop();
    daemon.join().expect("daemon thread");
}
