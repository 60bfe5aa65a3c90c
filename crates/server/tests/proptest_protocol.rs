//! Property tests for the wire layer: random commands and replies must
//! survive encode → frame → read → decode byte-exactly, and random
//! truncation/corruption must never be silently accepted — mirroring the
//! WAL's torn-frame guarantees at the network boundary.

use cods_query::{AggOp, CmpOp, Predicate};
use cods_server::proto::{
    decode_command, decode_reply, encode_command, encode_reply, Command, DurabilityReply,
    MetricsReply, Reply, StatsReply, WireError,
};
use cods_server::{frame, FrameError};
use cods_storage::{CacheStats, OrderedF64, Value, ValueType};
use proptest::prelude::*;
use proptest::{BoxedStrategy, UnitF64};
use std::io::Cursor;

fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..9)
        .prop_map(|v| v.iter().map(|b| (b'a' + b) as char).collect())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|u| Value::Int(u as i64)),
        // Raw bit patterns: NaNs and negative zero included.
        any::<u64>().prop_map(|b| Value::Float(OrderedF64(f64::from_bits(b)))),
        name().prop_map(Value::str),
    ]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        Just(Predicate::True),
        (name(), cmp_op(), value()).prop_map(|(column, op, literal)| Predicate::Compare {
            column,
            op,
            literal,
        }),
    ]
    .boxed()
}

fn predicate(depth: u32) -> BoxedStrategy<Predicate> {
    if depth == 0 {
        return leaf();
    }
    prop_oneof![
        leaf(),
        (predicate(depth - 1), predicate(depth - 1)).prop_map(|(a, b)| a.and(b)),
        (predicate(depth - 1), predicate(depth - 1)).prop_map(|(a, b)| a.or(b)),
        predicate(depth - 1).prop_map(|p| p.not()),
    ]
    .boxed()
}

fn agg_op() -> impl Strategy<Value = AggOp> {
    prop_oneof![
        Just(AggOp::Count),
        Just(AggOp::CountDistinct),
        Just(AggOp::Sum),
        Just(AggOp::Min),
        Just(AggOp::Max),
    ]
}

fn command() -> BoxedStrategy<Command> {
    prop_oneof![
        Just(Command::Ping),
        Just(Command::Refresh),
        Just(Command::Metrics),
        name().prop_map(|table| Command::Stats { table }),
        name().prop_map(|text| Command::Script { text }),
        (
            name(),
            predicate(3),
            prop_oneof![
                Just(None),
                prop::collection::vec(name(), 0..4).prop_map(Some)
            ]
        )
            .prop_map(|(table, predicate, projection)| Command::Scan {
                table,
                predicate,
                projection,
            }),
        (name(), predicate(3)).prop_map(|(table, predicate)| Command::Mask { table, predicate }),
        (
            name(),
            predicate(2),
            prop::collection::vec(name(), 0..3),
            prop::collection::vec((agg_op(), name()), 0..3)
        )
            .prop_map(|(table, predicate, group_by, aggs)| Command::GroupBy {
                table,
                predicate,
                group_by,
                aggs,
            }),
        (
            name(),
            name(),
            prop::collection::vec(name(), 0..3),
            prop::collection::vec(name(), 0..3)
        )
            .prop_map(|(left, right, left_keys, right_keys)| Command::Join {
                left,
                right,
                left_keys,
                right_keys,
            }),
    ]
    .boxed()
}

fn value_type() -> impl Strategy<Value = ValueType> {
    prop_oneof![
        Just(ValueType::Bool),
        Just(ValueType::Int),
        Just(ValueType::Float),
        Just(ValueType::Str),
    ]
}

fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(value(), 0..5), 0..6)
}

fn reply() -> BoxedStrategy<Reply> {
    prop_oneof![
        any::<u64>().prop_map(|catalog_version| Reply::Hello { catalog_version }),
        Just(Reply::Pong),
        any::<u64>().prop_map(|catalog_version| Reply::Refreshed { catalog_version }),
        name().prop_map(|message| Reply::Ok { message }),
        (any::<u16>(), name()).prop_map(|(code, message)| Reply::Error { code, message }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(in_flight, queued)| Reply::Overloaded { in_flight, queued }),
        (
            prop::collection::vec((name(), value_type()), 0..5),
            any::<u64>()
        )
            .prop_map(|(columns, total_rows)| Reply::RowHeader {
                columns,
                total_rows,
            }),
        rows().prop_map(|rows| Reply::Rows { rows }),
        (any::<u64>(), any::<u64>()).prop_map(|(batches, rows)| Reply::Done { batches, rows }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(rows, selected, catalog_version)| {
            Reply::MaskSummary {
                rows,
                selected,
                catalog_version,
            }
        }),
        prop::collection::vec(any::<u64>(), 22).prop_map(|v| {
            Reply::Metrics(MetricsReply {
                connections_open: v[0],
                connections_total: v[1],
                in_flight: v[2],
                queued: v[3],
                admitted_total: v[4],
                rejected_total: v[5],
                bytes_streamed: v[6],
                rows_streamed: v[7],
                idle_evicted: v[14],
                cache: CacheStats {
                    budget: v[8],
                    resident_bytes: v[9],
                    hits: v[10],
                    misses: v[11],
                    evictions: v[12],
                    decoded_bytes: v[13],
                },
                durability: DurabilityReply {
                    enabled: v[15],
                    commits: v[16],
                    fsyncs: v[17],
                    max_batch: v[18],
                    fsync_micros: v[19],
                    log_pending: v[20],
                    log_bytes: v[21],
                },
            })
        }),
        prop::collection::vec(any::<u64>(), 6).prop_map(|v| {
            Reply::Stats(StatsReply {
                rows: v[0],
                arity: v[1],
                total_bytes: v[2],
                resident_segments: v[3],
                on_disk_segments: v[4],
                catalog_version: v[5],
            })
        }),
    ]
    .boxed()
}

#[test]
fn well_checksummed_frame_of_unassigned_kind_0x08_is_a_bad_tag() {
    // Kind 0x08 framed correctly around a GroupBy body: the frame layer
    // accepts it, the decoder answers with a typed error.
    let body = encode_command(&Command::GroupBy {
        table: "t".into(),
        predicate: Predicate::lt("k", 3i64),
        group_by: vec!["g".into()],
        aggs: vec![(AggOp::Sum, "v".into())],
    });
    let mut wire = Vec::new();
    frame::write_frame(&mut wire, 0x08, &body).unwrap();
    let (kind, payload) =
        frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(kind, 0x08);
    assert_eq!(
        decode_command(kind, &payload),
        Err(WireError::BadTag("command kind", 0x08))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn commands_round_trip_through_frames(cmd in command()) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, cmd.kind(), &encode_command(&cmd)).unwrap();
        let (kind, payload) =
            frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_FRAME_BYTES).unwrap();
        prop_assert_eq!(kind, cmd.kind());
        prop_assert_eq!(decode_command(kind, &payload).unwrap(), cmd);
    }

    #[test]
    fn replies_round_trip_through_frames(reply in reply()) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, reply.kind(), &encode_reply(&reply)).unwrap();
        let (kind, payload) =
            frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_FRAME_BYTES).unwrap();
        prop_assert_eq!(kind, reply.kind());
        prop_assert_eq!(decode_reply(kind, &payload).unwrap(), reply);
    }

    #[test]
    fn truncated_frames_read_as_torn(cmd in command(), keep in UnitF64) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, cmd.kind(), &encode_command(&cmd)).unwrap();
        let cut = 1 + ((wire.len() - 1) as f64 * keep) as usize;
        if cut < wire.len() {
            let err =
                frame::read_frame(&mut Cursor::new(&wire[..cut]), frame::DEFAULT_MAX_FRAME_BYTES)
                    .unwrap_err();
            prop_assert!(matches!(err, FrameError::Torn), "cut {}: {:?}", cut, err);
        }
    }

    #[test]
    fn corrupted_frames_never_decode_silently(
        cmd in command(),
        at in UnitF64,
        flip in 1u32..256,
    ) {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, cmd.kind(), &encode_command(&cmd)).unwrap();
        let idx = ((wire.len() - 1) as f64 * at) as usize;
        wire[idx] ^= flip as u8;
        match frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_FRAME_BYTES) {
            // The checksum (or a length-field side effect) must catch it.
            Err(FrameError::Corrupt | FrameError::Torn | FrameError::TooLarge { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {:?}", e),
            Ok(_) => prop_assert!(false, "corrupted frame passed the checksum"),
        }
    }
}
