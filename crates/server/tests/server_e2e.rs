//! End-to-end ERSP: a real [`Server`] on an ephemeral port, driven by
//! [`RemoteClient`] through the same [`Connection`] trait the embedded
//! handles implement. The workload here mirrors
//! `crates/core/tests/connection.rs` on purpose — same shape, different
//! transport — plus wire-only concerns: stable error codes, per-session
//! `SET` isolation across sockets, protocol errors for stale ids, and
//! graceful drain.

use erbium_client::protocol::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use erbium_core::{Connection, Database, DbError, ReadSession, Rows};
use erbium_model::Value;
use erbium_server::{Server, ServerOptions};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const DDL: &str = "
    CREATE ENTITY person (id int KEY, name text, score int);
    CREATE ENTITY mentor EXTENDS person (rank text NULLABLE);
    CREATE RELATIONSHIP guides FROM person MANY TO mentor ONE;
";

fn seeded() -> Database {
    let mut db = Database::new();
    db.execute(DDL).unwrap();
    db.install_default().unwrap();
    for i in 0..50 {
        db.insert(
            "person",
            &[
                ("id", Value::Int(i)),
                ("name", Value::str(format!("p{i}"))),
                ("score", Value::Int(i * 10)),
            ],
        )
        .unwrap();
    }
    db
}

fn serve() -> Server {
    serve_with(ServerOptions::default())
}

fn serve_with(opts: ServerOptions) -> Server {
    Server::bind("127.0.0.1:0", seeded().into_shared(), opts).unwrap()
}

fn client(server: &Server) -> erbium_client::RemoteClient {
    erbium_client::RemoteClient::connect(server.local_addr()).unwrap()
}

/// The identical workload body that `core/tests/connection.rs` runs
/// against `Database` and `SharedDatabase` — here it runs over TCP.
fn workload<C: Connection>(conn: &mut C) {
    conn.transaction(|tx| {
        tx.insert(
            "person",
            &[("id", Value::Int(1000)), ("name", Value::str("tx")), ("score", Value::Int(7))],
        )
    })
    .unwrap();

    let rows = conn.query("SELECT p.name FROM person p WHERE p.id = 1000").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::str("tx")]]);

    let rows = conn
        .query_params("SELECT p.name FROM person p WHERE p.id = ?", &[Value::Int(1000)])
        .unwrap();
    assert_eq!(rows.rows, vec![vec![Value::str("tx")]]);

    let stmt = conn.prepare("SELECT p.score FROM person p WHERE p.id = ?").unwrap();
    let a = conn.execute_prepared(&stmt, &[Value::Int(3)]).unwrap();
    let b = conn.execute_prepared(&stmt, &[Value::Int(4)]).unwrap();
    assert_eq!(a.rows, vec![vec![Value::Int(30)]]);
    assert_eq!(b.rows, vec![vec![Value::Int(40)]]);

    let mut snap = conn.snapshot().unwrap();
    conn.transaction(|tx| tx.delete_entity("person", &[Value::Int(1000)])).unwrap();
    let pinned = snap.query("SELECT p.name FROM person p WHERE p.id = 1000").unwrap();
    assert_eq!(pinned.rows.len(), 1, "snapshot must not see the later delete");
    let live = conn.query("SELECT p.name FROM person p WHERE p.id = 1000").unwrap();
    assert_eq!(live.rows.len(), 0);

    conn.set_option("threads", "1").unwrap();
    conn.set_option("batch_size", "64").unwrap();
    let rows: Rows = conn.query("SELECT COUNT(*) FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
}

#[test]
fn workload_runs_against_remote_client() {
    let server = serve();
    workload(&mut client(&server));
}

#[test]
fn remote_ddl_builds_a_database_from_nothing() {
    // An empty in-memory server, schema'd entirely over the wire — the
    // standalone-binary usage pattern.
    let server =
        Server::bind("127.0.0.1:0", Database::new().into_shared(), ServerOptions::default())
            .unwrap();
    let mut conn = client(&server);
    conn.execute(DDL).unwrap();
    conn.execute("INSTALL MAPPING DEFAULT").unwrap();
    conn.transaction(|tx| {
        tx.insert(
            "person",
            &[("id", Value::Int(1)), ("name", Value::str("ada")), ("score", Value::Int(1))],
        )
    })
    .unwrap();
    let rows = conn.query("SELECT p.name FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::str("ada")]]);
}

#[test]
fn remote_prepared_statements_hit_the_plan_cache() {
    let server = serve();
    let mut conn = client(&server);

    let before = conn.cache_stats().unwrap();
    let stmt = conn.prepare("SELECT p.name FROM person p WHERE p.score > ?").unwrap();
    const N: u64 = 10;
    for i in 0..N {
        conn.execute_prepared(&stmt, &[Value::Int(i as i64 * 50)]).unwrap();
    }
    let after = conn.cache_stats().unwrap();
    assert_eq!(after.misses - before.misses, 1, "template must plan exactly once");
    assert_eq!(after.hits - before.hits, N, "every wire execute must be a cache hit");
}

#[test]
fn copy_from_bulk_loads_over_the_wire() {
    let server = serve();
    let mut conn = client(&server);
    // One COPY script statement: the whole batch commits as a single
    // transaction server-side (one WAL group, one index pass).
    Connection::execute(
        &mut conn,
        "COPY person (id, name, score) FROM VALUES \
         (2000, 'bulk-a', 1), (2001, 'bulk-b', 2), (2002, 'bulk-c', 3)",
    )
    .unwrap();
    let rows = conn
        .query("SELECT COUNT(*) FROM person p WHERE p.id >= 2000")
        .unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(3)]]);
    // A duplicate key anywhere in the batch rejects the whole batch.
    let err = Connection::execute(
        &mut conn,
        "COPY person (id, name, score) FROM VALUES (3000, 'x', 0), (2001, 'dup', 0)",
    )
    .unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "{err:?}");
    let rows = conn
        .query("SELECT COUNT(*) FROM person p WHERE p.id >= 3000")
        .unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(0)]], "batch rolled back atomically");
}

#[test]
fn wire_errors_carry_stable_codes() {
    let server = serve();
    let mut conn = client(&server);

    // A storage failure (duplicate key) crosses the wire as the same
    // variant it was on the server.
    let err = conn
        .transaction(|tx| {
            tx.insert(
                "person",
                &[("id", Value::Int(1)), ("name", Value::str("dup")), ("score", Value::Int(0))],
            )
        })
        .unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "got {err:?}");
    assert!(err.to_string().contains("duplicate"), "{err}");

    // Mapping errors (prepare pre-validates syntax client-side, but
    // schema binding only the server can do).
    let err = conn.prepare("SELECT x.nope FROM person x WHERE x.id = ?").unwrap_err();
    assert!(matches!(err, DbError::Mapping(_)), "got {err:?}");

    // Parse errors never even reach the server.
    let err = conn.prepare("SELECT FROM WHERE").unwrap_err();
    assert!(matches!(err, DbError::Parse(_)), "got {err:?}");

    // Parameter arity is enforced with the same message as embedded.
    let err = conn
        .query_params("SELECT p.name FROM person p WHERE p.id = ?", &[])
        .unwrap_err();
    assert!(matches!(err, DbError::Engine(_)), "got {err:?}");
    assert!(err.to_string().contains("expects 1 parameter(s), got 0"), "{err}");

    // The session survives every one of those errors.
    let rows = conn.query("SELECT COUNT(*) FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
}

#[test]
fn transactions_are_atomic_over_the_wire() {
    let server = serve();
    let mut conn = client(&server);

    // Second op collides with a seeded key: the whole batch must vanish.
    let err = conn
        .transaction(|tx| {
            tx.insert(
                "person",
                &[("id", Value::Int(2000)), ("name", Value::str("a")), ("score", Value::Int(0))],
            )?;
            tx.insert(
                "person",
                &[("id", Value::Int(3)), ("name", Value::str("dup")), ("score", Value::Int(0))],
            )
        })
        .unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "got {err:?}");

    let rows = conn.query("SELECT p.name FROM person p WHERE p.id = 2000").unwrap();
    assert!(rows.rows.is_empty(), "failed transaction must leave no trace");
}

#[test]
fn set_option_is_isolated_between_wire_sessions() {
    let server = serve();
    let mut a = client(&server);
    let mut b = client(&server);
    assert_ne!(a.session_id(), b.session_id());

    a.set_option("threads", "1").unwrap();
    a.set_option("batch_size", "7").unwrap();

    // Both sessions still answer correctly; B runs with defaults — the
    // override lives in A's server-side session, not in shared state.
    for conn in [&mut a, &mut b] {
        let rows = conn.query("SELECT COUNT(*) FROM person p").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
    }

    // Bad keys/values are rejected with a Parse error built server-side
    // and reconstructed from its wire code.
    let err = a.set_option("wal_voodoo", "1").unwrap_err();
    assert!(matches!(err, DbError::Parse(_)), "got {err:?}");
    let err = b.set_option("threads", "0").unwrap_err();
    assert!(matches!(err, DbError::Parse(_)), "got {err:?}");
}

#[test]
fn snapshots_use_a_dedicated_connection_and_release_cleanly() {
    let server = serve();
    let mut conn = client(&server);

    let mut snap = conn.snapshot().unwrap();
    // Snapshot reads and live queries interleave freely (separate sockets).
    for i in 0..3 {
        let pinned = snap
            .query_params("SELECT p.name FROM person p WHERE p.id = ?", &[Value::Int(i)])
            .unwrap();
        assert_eq!(pinned.rows, vec![vec![Value::str(format!("p{i}"))]]);
        let live = conn.query("SELECT COUNT(*) FROM person p").unwrap();
        assert_eq!(live.rows, vec![vec![Value::Int(50)]]);
    }
    drop(snap); // releases the pin and its socket

    let rows = conn.query("SELECT COUNT(*) FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
}

// ---- raw-protocol cases (things RemoteClient cannot be made to send) --------

/// A minimal hand-rolled ERSP client for sending requests the real client
/// refuses to construct.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RawConn {
    fn dial(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        RawConn { reader, writer: BufWriter::new(stream) }
    }

    fn call(&mut self, req: &Request) -> Response {
        write_frame(&mut self.writer, &req.encode()).unwrap();
        self.writer.flush().unwrap();
        Response::decode(&read_frame(&mut self.reader).unwrap()).unwrap()
    }
}

#[test]
fn unknown_ids_are_protocol_errors() {
    let server = serve();
    let mut raw = RawConn::dial(server.local_addr());
    assert!(matches!(
        raw.call(&Request::Hello { version: PROTOCOL_VERSION }),
        Response::Hello { .. }
    ));

    let resp = raw.call(&Request::ExecutePrepared { stmt_id: 999, params: vec![] });
    match resp {
        Response::Error { code, message } => {
            assert!(matches!(DbError::from_wire(code, message), DbError::Protocol(_)));
        }
        other => panic!("expected Error, got {other:?}"),
    }

    let resp = raw.call(&Request::SnapshotQuery {
        snap_id: 7,
        sql: "SELECT p.id FROM person p".into(),
        params: vec![],
    });
    assert!(matches!(resp, Response::Error { .. }));

    // The session is still usable after both protocol errors.
    let resp = raw.call(&Request::Query {
        sql: "SELECT COUNT(*) FROM person p".into(),
        params: vec![],
    });
    assert!(matches!(resp, Response::Rows { .. }));
}

#[test]
fn handshake_is_required_and_unrepeatable() {
    let server = serve();

    // A request before Hello is refused and the connection closed.
    let mut raw = RawConn::dial(server.local_addr());
    let resp = raw.call(&Request::Query { sql: "SELECT 1".into(), params: vec![] });
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");

    // A second Hello on a greeted session likewise.
    let mut raw = RawConn::dial(server.local_addr());
    raw.call(&Request::Hello { version: PROTOCOL_VERSION });
    let resp = raw.call(&Request::Hello { version: PROTOCOL_VERSION });
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");

    // A future protocol version is told the server's version and refused.
    let mut raw = RawConn::dial(server.local_addr());
    let resp = raw.call(&Request::Hello { version: PROTOCOL_VERSION + 40 });
    match resp {
        Response::Error { code, message } => {
            let err = DbError::from_wire(code, message);
            assert!(matches!(err, DbError::Protocol(_)), "got {err:?}");
            assert!(err.to_string().contains("version"), "{err}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn abrupt_disconnect_leaves_the_server_healthy() {
    let server = serve();
    // Drop sockets at every awkward stage: before Hello, after Hello,
    // mid-session with a prepared statement and a pinned snapshot held.
    drop(TcpStream::connect(server.local_addr()).unwrap());
    {
        let mut raw = RawConn::dial(server.local_addr());
        raw.call(&Request::Hello { version: PROTOCOL_VERSION });
        // dropped without Close
    }
    {
        let mut conn = client(&server);
        let _stmt = conn.prepare("SELECT p.id FROM person p WHERE p.id = ?").unwrap();
        let _snap = conn.snapshot().unwrap();
        // client and snapshot dropped; Drop impls say goodbye, but the
        // server must also survive if those frames never arrive
    }
    let mut conn = client(&server);
    let rows = conn.query("SELECT COUNT(*) FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
}

#[test]
fn drain_stops_accepting_and_reports_empty() {
    let mut server = serve();
    let addr = server.local_addr();

    let mut a = client(&server);
    let mut b = client(&server);
    let rows = Connection::query(&mut a, "SELECT COUNT(*) FROM person p").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);
    Connection::query(&mut b, "SELECT COUNT(*) FROM person p").unwrap();

    // Orderly path: clients leave, then drain observes an empty house.
    drop(a);
    drop(b);
    assert!(server.drain(Duration::from_secs(10)), "drain must complete once clients left");
    assert_eq!(server.active_sessions(), 0);

    // Post-drain the port no longer serves ERSP: either the connection is
    // refused outright or the accepted socket is closed without a session.
    assert!(erbium_client::RemoteClient::connect(addr).is_err());
}
