//! Serving-layer integration: a real TCP server, concurrent clients,
//! snapshot-consistent streaming while evolution plans commit, and typed
//! admission rejection under load — the acceptance scenarios of the
//! network serving layer.

use cods::Cods;
use cods_query::Predicate;
use cods_server::{Client, ClientError, Server, ServerConfig};
use cods_storage::{Schema, Table, Value, ValueType};
use std::sync::Arc;
use std::time::Duration;

/// A table big enough to stream in several segment-sized batches.
fn platform(rows: usize, seg: u64) -> Arc<Cods> {
    let cods = Cods::new();
    let schema = Schema::build(
        &[
            ("k", ValueType::Int),
            ("grp", ValueType::Int),
            ("v", ValueType::Str),
        ],
        &[],
    )
    .unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::int(i as i64),
                Value::int((i % 7) as i64),
                Value::str(format!("payload-{}", i % 13)),
            ]
        })
        .collect();
    cods.catalog()
        .create(Table::from_rows_with_segment_rows("t", schema, &data, seg).unwrap())
        .unwrap();
    Arc::new(cods)
}

fn expected_rows(cods: &Cods, pred: &Predicate) -> Vec<Vec<Value>> {
    let t = cods.table("t").unwrap();
    cods_query::filter_table(&t, pred).unwrap().to_rows()
}

#[test]
fn scan_pinned_before_evolution_commit_is_byte_identical() {
    let cods = platform(20_000, 1_024);
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default())
        .expect("bind ephemeral");
    let addr = handle.local_addr();
    let want = expected_rows(&cods, &Predicate::True);

    let mut scanner = Client::connect(addr).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    let mut got: Vec<Vec<Value>> = Vec::new();
    let mut evolved = false;
    let summary = scanner
        .scan_with("t", Predicate::True, None, |_, rows| {
            got.extend(rows);
            if !evolved {
                evolved = true;
                // Mid-stream, a concurrent session commits an evolution
                // plan that decomposes the scanned table away.
                admin
                    .script("DECOMPOSE TABLE t INTO a (k, grp), b (k, v)")
                    .expect("evolution must commit during the scan");
            }
        })
        .expect("pinned scan survives the concurrent commit");

    // Byte-identical to the pinned snapshot, in several batches.
    assert!(evolved);
    assert_eq!(summary.rows, want.len() as u64);
    assert!(summary.batches > 1, "expected a multi-batch stream");
    assert_eq!(got, want);

    // The scanning session still reads the old version; a refresh (or a
    // fresh session) sees the post-evolution catalog.
    let (rows, selected, _) = scanner.mask("t", Predicate::True).unwrap();
    assert_eq!((rows, selected), (20_000, 20_000));
    scanner.refresh().unwrap();
    match scanner.mask("t", Predicate::True) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, cods_server::error_code::NOT_FOUND);
        }
        other => panic!("expected NOT_FOUND after refresh, got {other:?}"),
    }
    assert_eq!(scanner.mask("a", Predicate::True).unwrap().0, 20_000);
    handle.shutdown();
}

#[test]
fn concurrent_scans_stay_consistent_while_plans_commit() {
    let cods = platform(12_000, 1_024);
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default())
        .expect("bind ephemeral");
    let addr = handle.local_addr();
    let pred = Predicate::lt("grp", 4i64);
    let want = Arc::new(expected_rows(&cods, &pred));

    // N clients scan the same predicate repeatedly while evolution churns
    // the catalog: every completed scan must be byte-identical to the
    // seed content (the churn never changes t's tuples), and sessions
    // pinned after the drop see a clean typed error — never torn frames.
    let n_clients = 4;
    let scanners: Vec<_> = (0..n_clients)
        .map(|_| {
            let want = Arc::clone(&want);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut completed = 0u32;
                for _ in 0..5 {
                    match client.scan_collect("t", Predicate::lt("grp", 4i64), None) {
                        Ok((summary, rows)) => {
                            assert_eq!(rows, *want, "scan diverged from its snapshot");
                            assert_eq!(summary.rows, want.len() as u64);
                            completed += 1;
                        }
                        Err(ClientError::Server { code, .. }) => {
                            // Session pinned after the table moved away.
                            assert_eq!(code, cods_server::error_code::NOT_FOUND);
                            client.refresh().unwrap();
                        }
                        Err(e) => panic!("unexpected failure: {e}"),
                    }
                }
                completed
            })
        })
        .collect();

    // Churn: rename away and back, repeatedly — tuple content invariant.
    let mut admin = Client::connect(addr).unwrap();
    for _ in 0..6 {
        admin.script("RENAME TABLE t TO t_tmp").unwrap();
        admin.script("RENAME TABLE t_tmp TO t").unwrap();
    }

    let completed: u32 = scanners.into_iter().map(|s| s.join().unwrap()).sum();
    assert!(completed > 0, "at least some scans must complete");
    handle.shutdown();
}

#[test]
fn admission_cap_rejects_typed_and_nothing_hangs() {
    let cods = platform(2_000, 512);
    let k = 2u64; // execution slots
    let m = 3u64; // clients beyond capacity
    let config = ServerConfig {
        max_in_flight: k,
        max_queued: 0,
        debug_hold: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    };
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), config).unwrap();
    let addr = handle.local_addr();

    // K clients occupy every slot (debug_hold keeps them executing).
    let holders: Vec<_> = (0..k)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.mask("t", Predicate::True).expect("admitted request")
            })
        })
        .collect();

    // Control plane bypasses admission: wait until both slots are taken.
    let mut observer = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = observer.metrics().expect("metrics always answers");
        if metrics.in_flight == k {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never reached {k} in-flight requests"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // M more clients must bounce immediately with the typed rejection.
    for _ in 0..m {
        let mut c = Client::connect(addr).unwrap();
        match c.mask("t", Predicate::True) {
            Err(ClientError::Overloaded { in_flight, .. }) => assert_eq!(in_flight, k),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The connection survives rejection: the control plane still
        // answers and a later retry would be possible.
        c.ping().unwrap();
    }

    // The admitted requests complete normally once their hold expires.
    for h in holders {
        let (rows, selected, _) = h.join().unwrap();
        assert_eq!((rows, selected), (2_000, 2_000));
    }
    let metrics = observer.metrics().unwrap();
    assert_eq!(metrics.rejected_total, m);
    assert_eq!(metrics.admitted_total, k);
    assert_eq!(metrics.in_flight, 0);
    handle.shutdown();
}

#[test]
fn hostile_bytes_are_contained_to_their_connection() {
    let cods = platform(500, 256);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // A peer that writes garbage gets dropped without taking the server.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05])
            .unwrap();
        raw.flush().unwrap();
        // Server replies (preamble + hello + error) then closes; just
        // confirm the connection ends rather than hanging.
        let mut drain = Vec::new();
        use std::io::Read;
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = raw.read_to_end(&mut drain);
    }

    // A peer that connects and immediately leaves (clean EOF) is fine too.
    drop(std::net::TcpStream::connect(addr).unwrap());

    // Real clients still get full service afterwards.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let (_, selected, _) = client.mask("t", Predicate::True).unwrap();
    assert_eq!(selected, 500);
    handle.shutdown();
}

#[test]
fn idle_connections_are_evicted_without_disturbing_healthy_sessions() {
    let cods = platform(500, 256);
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let mut handle = Server::bind("127.0.0.1:0", Arc::clone(&cods), config).unwrap();
    let addr = handle.local_addr();

    // A client that handshakes, issues one request, then goes silent.
    let mut lazy = Client::connect(addr).unwrap();
    lazy.ping().unwrap();

    // A healthy session keeps talking (each poll resets its own idle
    // clock) until the server reports the eviction.
    let mut observer = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = observer.metrics().unwrap();
        if metrics.idle_evicted >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle connection was never evicted"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The evicted peer finds its connection closed (a typed TIMEOUT
    // farewell or a dead socket, depending on when it looks)...
    assert!(lazy.ping().is_err(), "evicted connection must not answer");

    // ...while the healthy session still gets full service.
    let (rows, selected, _) = observer.mask("t", Predicate::True).unwrap();
    assert_eq!((rows, selected), (500, 500));
    handle.shutdown();
}

#[test]
fn server_death_mid_scan_surfaces_typed_torn_stream() {
    let cods = platform(20_000, 1_024);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // Kill the server from inside the stream callback: the first batch
    // has arrived intact, then every socket is shut down mid-stream.
    let mut scanner = Client::connect(addr).unwrap();
    let mut delivered = 0u64;
    let result = scanner.scan_with("t", Predicate::True, None, |_, rows| {
        delivered += rows.len() as u64;
        handle.shutdown();
    });

    match result {
        Err(ClientError::TornStream { rows_seen }) => {
            assert_eq!(rows_seen, delivered, "rows_seen counts delivered rows");
            assert!(rows_seen > 0, "the kill landed after the first batch");
            assert!(rows_seen < 20_000, "the stream must not have completed");
            let msg = ClientError::TornStream { rows_seen }.to_string();
            assert!(msg.contains(&rows_seen.to_string()));
            assert!(msg.contains("torn"));
        }
        other => panic!("expected TornStream, got {other:?}"),
    }
}

#[test]
fn aggregation_over_the_wire_matches_local_execution() {
    let cods = platform(5_000, 512);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let (cols, rows) = client
        .group_by(
            "t",
            Predicate::lt("grp", 3i64),
            vec!["grp".into()],
            vec![
                (cods_query::AggOp::Count, "k".into()),
                (cods_query::AggOp::Max, "k".into()),
            ],
        )
        .unwrap();
    assert_eq!(cols.len(), 3);
    assert_eq!(rows.len(), 3, "groups 0, 1, 2 survive the filter");

    // Cross-check against local columnar aggregation.
    let t = cods.table("t").unwrap();
    let filtered = cods_query::filter_table(&t, &Predicate::lt("grp", 3i64)).unwrap();
    let local = cods_query::aggregate_table(
        &filtered,
        &[1],
        &[
            (cods_query::AggOp::Count, 0, ValueType::Int),
            (cods_query::AggOp::Max, 0, ValueType::Int),
        ],
    )
    .unwrap();
    assert_eq!(rows, local);
    handle.shutdown();
}

#[test]
fn chunked_group_by_streams_large_group_counts_in_batches() {
    let cods = platform(10_000, 1_024);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Group on the unique key: 10_000 groups, more than one 4096-row
    // reply frame — the chunked GroupBy stream must reassemble exactly.
    let (cols, rows) = client
        .group_by(
            "t",
            Predicate::True,
            vec!["k".into()],
            vec![(cods_query::AggOp::Count, "v".into())],
        )
        .unwrap();
    assert_eq!(cols.len(), 2);
    assert_eq!(rows.len(), 10_000);

    let t = cods.table("t").unwrap();
    let local =
        cods_query::aggregate_table(&t, &[0], &[(cods_query::AggOp::Count, 2, ValueType::Str)])
            .unwrap();
    assert_eq!(rows, local);

    // The filtered variant (mask pushed into the kernel) matches local
    // aggregation over the materialized filter bit for bit.
    let pred = Predicate::lt("grp", 2i64);
    let (_, via_group_by) = client
        .group_by(
            "t",
            pred.clone(),
            vec!["grp".into()],
            vec![(cods_query::AggOp::CountDistinct, "v".into())],
        )
        .unwrap();
    let filtered = cods_query::filter_table(&t, &pred).unwrap();
    let local = cods_query::aggregate_table(
        &filtered,
        &[1],
        &[(cods_query::AggOp::CountDistinct, 2, ValueType::Str)],
    )
    .unwrap();
    assert_eq!(via_group_by, local);
    handle.shutdown();
}

#[test]
fn join_streams_over_the_wire_with_verified_totals() {
    let cods = platform(5_000, 512);
    // A dimension table keyed by grp, including a key no fact row has.
    let dim_schema =
        Schema::build(&[("grp", ValueType::Int), ("label", ValueType::Str)], &[]).unwrap();
    let dim_rows: Vec<Vec<Value>> = (0..8)
        .map(|g| vec![Value::int(g), Value::str(format!("group-{g}"))])
        .collect();
    cods.catalog()
        .create(Table::from_rows_with_segment_rows("dim", dim_schema, &dim_rows, 4).unwrap())
        .unwrap();
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let mut batch_count = 0u64;
    let mut got: Vec<Vec<Value>> = Vec::new();
    let summary = client
        .join_with(
            "t",
            "dim",
            vec!["grp".into()],
            vec!["grp".into()],
            |_, rows| {
                batch_count += 1;
                got.extend(rows);
            },
        )
        .unwrap();
    // Every fact row matches exactly one dimension row; drain_stream has
    // already verified the Done totals against what actually arrived.
    assert_eq!(summary.rows, 5_000);
    assert_eq!(summary.total_rows, 5_000, "summary resolves the sentinel");
    assert_eq!(summary.batches, batch_count);
    assert!(summary.batches > 1, "expected a multi-batch join stream");
    assert_eq!(got.len(), 5_000);

    // Multiset-identical to the local row oracle.
    let t = cods.table("t").unwrap();
    let dim = cods.table("dim").unwrap();
    let mut local = cods_query::tuple::hash_join(&t.to_rows(), &dim.to_rows(), &[1], &[0]);
    local.sort();
    got.sort();
    assert_eq!(got, local);

    // Unknown tables and mismatched key lists answer with typed errors,
    // not dead connections.
    let err = client
        .join("t", "nope", vec!["grp".into()], vec!["grp".into()])
        .unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");
    let err = client
        .join("t", "dim", vec!["grp".into()], vec![])
        .unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");
    client.ping().expect("connection survives typed errors");
    handle.shutdown();
}

#[test]
fn join_key_arity_mismatch_replies_bad_request() {
    let cods = platform(100, 64);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for (lk, rk) in [(vec!["grp"], vec![]), (vec!["grp", "k"], vec!["grp"])] {
        let err = client
            .join(
                "t",
                "t",
                lk.iter().map(|s| s.to_string()).collect(),
                rk.iter().map(|s| s.to_string()).collect(),
            )
            .unwrap_err();
        match err {
            ClientError::Server { code, message } => {
                assert_eq!(
                    code,
                    cods_server::proto::error_code::BAD_REQUEST,
                    "{message}"
                );
                assert!(
                    message.contains("join key lists differ in length"),
                    "{message}"
                );
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
    }
    client
        .ping()
        .expect("connection survives a bad join request");
    handle.shutdown();
}

#[test]
fn ill_typed_literals_reply_bad_request() {
    let cods = platform(100, 64);
    let mut handle =
        Server::bind("127.0.0.1:0", Arc::clone(&cods), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    // `v` is a str column: an int literal is the client's mistake, named
    // with the column, not an internal failure.
    let bad = Predicate::eq("v", 7i64);
    let errors = [
        client.mask("t", bad.clone()).map(|_| ()).unwrap_err(),
        client
            .scan_collect("t", bad.clone(), None)
            .map(|_| ())
            .unwrap_err(),
        client
            .group_by("t", bad, vec!["grp".into()], vec![])
            .map(|_| ())
            .unwrap_err(),
    ];
    for err in errors {
        match err {
            ClientError::Server { code, message } => {
                assert_eq!(
                    code,
                    cods_server::proto::error_code::BAD_REQUEST,
                    "{message}"
                );
                assert!(message.contains("\"v\""), "{message}");
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
    }
    // The same literal quoted, and an int literal on an int column, work.
    let (_, selected, _) = client.mask("t", Predicate::eq("v", "payload-7")).unwrap();
    assert_eq!(
        selected,
        expected_rows(&cods, &Predicate::eq("v", "payload-7")).len() as u64
    );
    let (_, selected, _) = client.mask("t", Predicate::lt("k", 10i64)).unwrap();
    assert_eq!(selected, 10);
    handle.shutdown();
}
