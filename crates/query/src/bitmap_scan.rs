//! Data-level selection: evaluate a predicate *on the compressed
//! representation* — once per distinct dictionary value, never per row —
//! producing a row-selection [`Wah`] mask. The plan executor uses this as
//! the fast path for `Filter ∘ ScanColumn`, and PARTITION TABLE builds its
//! split masks the same way.
//!
//! The scan is stats-driven end to end:
//!
//! 1. **Satisfying set.** Range and equality comparisons resolve their
//!    satisfying value set to a contiguous *rank interval* in the
//!    dictionary's value order ([`CmpOp::sat_rank_interval`]) — two binary
//!    searches instead of one predicate evaluation per distinct value.
//!    Only `Ne <non-null>` falls back to a per-value boolean table.
//! 2. **Zone pruning.** Each segment carries a zone map (min/max present
//!    value in value order). A segment whose zone's rank span misses the
//!    satisfying interval is emitted as a zero fill in O(1) — neither its
//!    present-id stats nor its payload are touched.
//! 3. **Present-id pruning.** Surviving segments still skip to a zero fill
//!    when none of their present ids satisfies, exactly as before.
//!
//! Pruning never changes results: a pruned segment is one the unpruned walk
//! would have emitted as the same zero fill, so
//! [`predicate_mask`] and [`predicate_mask_unpruned`] are bit-identical
//! (locked by the `scan_pruning` bench and a differential proptest).

use crate::pred::{CmpOp, CompiledPredicate, Predicate};
use cods_bitmap::Wah;
use cods_storage::{EncodedColumn, SegmentEnc, StorageError, Table, Value, Zone};

/// The satisfying value set of one comparison, in whichever form the
/// operator admits: a rank interval in value order (everything except
/// `Ne`), or a per-id boolean table.
pub(crate) enum SatSet<'a> {
    /// Ids whose value-order rank lies in `[lo, hi)` satisfy.
    Interval {
        /// `ranks[id]` = value-order rank (borrowed from the dictionary's
        /// cached [`cods_storage::ValueOrder`]).
        ranks: &'a [u32],
        /// Inclusive lower rank bound.
        lo: u32,
        /// Exclusive upper rank bound.
        hi: u32,
    },
    /// Per-id satisfaction, indexed by value id.
    Bools(Vec<bool>),
}

impl SatSet<'_> {
    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        match self {
            SatSet::Interval { ranks, lo, hi } => {
                let r = ranks[id as usize];
                *lo <= r && r < *hi
            }
            SatSet::Bools(sat) => sat[id as usize],
        }
    }

    /// Zone test: `false` only when *no* value inside the zone's
    /// `[min, max]` value interval can satisfy — sound because the
    /// satisfying set is a rank interval and every present id's rank lies
    /// within the zone's span. The boolean fallback never zone-prunes.
    #[inline]
    pub(crate) fn zone_may_match(&self, zone: Zone) -> bool {
        match self {
            SatSet::Interval { ranks, lo, hi } => {
                let zone_lo = ranks[zone.min_id as usize];
                let zone_hi = ranks[zone.max_id as usize];
                zone_hi >= *lo && zone_lo < *hi
            }
            SatSet::Bools(_) => true,
        }
    }
}

/// Builds the selection mask of `pred` over `table` at data level, with
/// zone-map pruning (see the module docs for the three pruning tiers).
/// Literals are typed by [`Predicate::bind`] first.
pub fn predicate_mask(table: &Table, pred: &Predicate) -> Result<Wah, StorageError> {
    mask_rec(table, &pred.bind(table.schema())?, true)
}

/// [`predicate_mask`] with zone pruning disabled: every segment's
/// present-id stats are consulted even when its zone already rules it out.
/// Exists for the pruning benchmarks and the differential test harness —
/// the two functions are bit-identical by construction.
pub fn predicate_mask_unpruned(table: &Table, pred: &Predicate) -> Result<Wah, StorageError> {
    mask_rec(table, &pred.bind(table.schema())?, false)
}

fn mask_rec(table: &Table, pred: &Predicate, zones: bool) -> Result<Wah, StorageError> {
    let rows = table.rows();
    Ok(match pred {
        Predicate::Compare {
            column,
            op,
            literal,
        } => {
            let col = table.column_by_name(column)?;
            let sat = sat_set(col, *op, literal);
            column_mask(col, &sat, zones)
        }
        Predicate::And(a, b) => match fused_range_mask(table, a, b, zones)? {
            Some(mask) => mask,
            None => mask_rec(table, a, zones)?.and(&mask_rec(table, b, zones)?),
        },
        Predicate::Or(a, b) => mask_rec(table, a, zones)?.or(&mask_rec(table, b, zones)?),
        Predicate::Not(p) => mask_rec(table, p, zones)?.not(),
        Predicate::True => Wah::ones(rows),
    })
}

/// BETWEEN fusion: a conjunction of two interval-admitting comparisons on
/// the *same column* (`k >= a AND k < b` and friends) is one rank interval
/// — the intersection — so it scans the column once instead of building and
/// AND-ing two half-range masks that each touch most of the table. Each row
/// holds exactly one value, so satisfying both comparisons is exactly
/// having its rank in both intervals; the fused mask is bit-identical to
/// the composed one. This is what makes zone maps decisive for range
/// scans: only the segments overlapping `[a, b)` are ever visited.
fn fused_range_mask(
    table: &Table,
    a: &Predicate,
    b: &Predicate,
    zones: bool,
) -> Result<Option<Wah>, StorageError> {
    let (
        Predicate::Compare {
            column: col_a,
            op: op_a,
            literal: lit_a,
        },
        Predicate::Compare {
            column: col_b,
            op: op_b,
            literal: lit_b,
        },
    ) = (a, b)
    else {
        return Ok(None);
    };
    if col_a != col_b {
        return Ok(None);
    }
    let col = table.column_by_name(col_a)?;
    let dict = col.dict();
    let (Some((lo_a, hi_a)), Some((lo_b, hi_b))) = (
        op_a.sat_rank_interval(dict, lit_a),
        op_b.sat_rank_interval(dict, lit_b),
    ) else {
        return Ok(None);
    };
    let sat = SatSet::Interval {
        ranks: dict.value_order().ranks(),
        lo: lo_a.max(lo_b),
        hi: hi_a.min(hi_b),
    };
    Ok(Some(column_mask(col, &sat, zones)))
}

/// Resolves one comparison's satisfying set against a column's dictionary:
/// rank interval when the operator admits one, per-value booleans otherwise.
pub(crate) fn sat_set<'a>(col: &'a EncodedColumn, op: CmpOp, literal: &Value) -> SatSet<'a> {
    let dict = col.dict();
    match op.sat_rank_interval(dict, literal) {
        Some((lo, hi)) => SatSet::Interval {
            ranks: dict.value_order().ranks(),
            lo,
            hi,
        },
        None => {
            let probe = CompiledPredicate::Compare {
                column: 0,
                op,
                literal: literal.clone(),
            };
            SatSet::Bools(dict.iter().map(|(_, v)| probe.eval_value(v)).collect())
        }
    }
}

/// Emits the selection mask of the satisfying value set over one column,
/// walking its unified segment directory with zone- and stat-based pruning
/// and dispatching the mask build on each segment's own encoding — a mixed
/// directory's bitmap and RLE segments each take their native path, and
/// the resulting mask is byte-identical whatever the mix.
///
/// Both pruning tiers run on the slot's *resident metadata* (zone, present
/// ids, cached ones): a pruned segment of a lazily opened column is never
/// faulted in — only survivors touch the buffer cache.
fn column_mask(col: &EncodedColumn, sat: &SatSet<'_>, zones: bool) -> Wah {
    let mut mask = Wah::new();
    for (i, slot) in col.segments().iter().enumerate() {
        if zones && !sat.zone_may_match(col.zone(i)) {
            // Zone-pruned: neither stats nor payload touched.
            mask.append_run(false, slot.rows());
            continue;
        }
        // Present-id tier, still metadata-only: stats show whether any
        // satisfying value lives in this row range, and how many rows.
        let mut sat_rows = 0u64;
        let mut sat_ids = 0usize;
        for (&id, &ones) in slot.present_ids().iter().zip(slot.ones().iter()) {
            if sat.contains(id) {
                sat_ids += 1;
                sat_rows += ones;
            }
        }
        if sat_ids == 0 {
            // Pruned: no satisfying value in this range; payload untouched.
            mask.append_run(false, slot.rows());
            continue;
        }
        // Survivor: fault the payload in (through the buffer cache) and
        // build this range's mask on its native encoding.
        match &slot.enc() {
            SegmentEnc::Bitmap(seg) => {
                let mut satisfying: Vec<&Wah> = Vec::with_capacity(sat_ids);
                for (&id, bm) in seg.present_ids().iter().zip(seg.bitmaps()) {
                    if sat.contains(id) {
                        satisfying.push(bm);
                    }
                }
                if satisfying.len() <= 64 {
                    mask.append_bitmap(&Wah::union_many(satisfying, seg.rows()));
                } else if sat_rows * 8 <= seg.rows() {
                    // Many values but few rows (the cached ones say so up
                    // front): merge the set positions — O(selected · log)
                    // instead of paging a dense bit-vector over the whole
                    // segment. This is the hot shape of a range scan over a
                    // wide dictionary.
                    let mut positions: Vec<u64> = Vec::with_capacity(sat_rows as usize);
                    for bm in &satisfying {
                        positions.extend(bm.iter_ones());
                    }
                    positions.sort_unstable();
                    mask.append_bitmap(&Wah::from_sorted_positions(positions, seg.rows()));
                } else {
                    // Many satisfying values and dense selection: one pass
                    // over the segment's set bits instead of a wide union.
                    let mut bits = vec![false; seg.rows() as usize];
                    for bm in satisfying {
                        for pos in bm.iter_ones() {
                            bits[pos as usize] = true;
                        }
                    }
                    for b in bits {
                        mask.push(b);
                    }
                }
            }
            SegmentEnc::Rle(seg) => {
                for &(id, n) in seg.seq().runs() {
                    mask.append_run(sat.contains(id), n);
                }
            }
        }
    }
    mask
}

/// Data-level table filter: bitmap-filters every column by the predicate
/// mask, returning the selected rows as a new (compressed) table in each
/// column's own encoding. The mask stays in compressed form end to end
/// (per-segment splits inside
/// [`cods_storage::EncodedColumn::filter_bitmap`]).
pub fn filter_table(table: &Table, pred: &Predicate) -> Result<Table, StorageError> {
    let mask = predicate_mask(table, pred)?;
    let columns: Vec<std::sync::Arc<EncodedColumn>> = table
        .columns()
        .iter()
        .map(|c| std::sync::Arc::new(c.filter_bitmap(&mask)))
        .collect();
    let schema = cods_storage::Schema::new(table.schema().columns().to_vec())?;
    Table::new(table.name(), schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Schema, Value, ValueType};

    fn table() -> Table {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::int(i % 10), Value::str(format!("s{}", i % 3))])
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    #[test]
    fn mask_counts_match_row_filtering() {
        let t = table();
        let pred = Predicate::lt("k", 3i64);
        let mask = predicate_mask(&t, &pred).unwrap();
        let naive = t
            .to_rows()
            .iter()
            .filter(|r| matches!(&r[0], Value::Int(i) if *i < 3))
            .count() as u64;
        assert_eq!(mask.count_ones(), naive);
        for (row, tuple) in t.to_rows().iter().enumerate() {
            let expect = matches!(&tuple[0], Value::Int(i) if *i < 3);
            assert_eq!(mask.get(row as u64), expect, "row {row}");
        }
    }

    #[test]
    fn combinators_compose() {
        let t = table();
        let a = predicate_mask(&t, &Predicate::lt("k", 3i64)).unwrap();
        let b = predicate_mask(&t, &Predicate::eq("v", "s0")).unwrap();
        let and =
            predicate_mask(&t, &Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0"))).unwrap();
        assert_eq!(and, a.and(&b));
        let not = predicate_mask(&t, &Predicate::lt("k", 3i64).not()).unwrap();
        assert_eq!(not, a.not());
    }

    #[test]
    fn many_satisfying_values_path() {
        // Predicate satisfied by > 64 distinct values exercises the id path.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1000).map(|i| vec![Value::int(i % 200)]).collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let mask = predicate_mask(&t, &Predicate::lt("k", 150i64)).unwrap();
        assert_eq!(mask.count_ones(), 750);
    }

    #[test]
    fn filter_table_returns_selected_rows() {
        let t = table();
        let filtered = filter_table(&t, &Predicate::eq("v", "s1")).unwrap();
        filtered.check_invariants().unwrap();
        assert_eq!(filtered.rows(), 33);
        for row in filtered.to_rows() {
            assert_eq!(row[1], Value::str("s1"));
        }
    }

    #[test]
    fn rle_masks_match_bitmap_masks() {
        let t = table();
        let rle = t.recoded(cods_storage::Encoding::Rle).unwrap();
        for pred in [
            Predicate::lt("k", 3i64),
            Predicate::eq("v", "s0"),
            Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0")),
            Predicate::eq("k", 99i64), // nothing satisfies
            Predicate::True,
        ] {
            assert_eq!(
                predicate_mask(&t, &pred).unwrap(),
                predicate_mask(&rle, &pred).unwrap(),
                "masks diverge for {pred:?}"
            );
        }
    }

    #[test]
    fn rle_filter_preserves_encoding() {
        let t = table().recoded(cods_storage::Encoding::Rle).unwrap();
        let filtered = filter_table(&t, &Predicate::eq("v", "s1")).unwrap();
        filtered.check_invariants().unwrap();
        assert_eq!(filtered.rows(), 33);
        assert!(filtered
            .columns()
            .iter()
            .all(|c| c.is_uniform(cods_storage::Encoding::Rle)));
    }

    #[test]
    fn pruned_and_unpruned_masks_are_bit_identical() {
        // Clustered + uniform, bitmap + RLE, every operator, literals in
        // and out of range, NULL literals, and boolean combinations.
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..2_000)
            .map(|i| {
                vec![
                    Value::int(i / 50), // clustered
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::int((i * 37) % 97) // scattered, with NULLs
                    },
                ]
            })
            .collect();
        let bitmap =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 128).unwrap();
        let rle = bitmap.recoded(cods_storage::Encoding::Rle).unwrap();
        let preds = [
            Predicate::lt("k", 7i64),
            Predicate::ge("k", 33i64),
            Predicate::eq("k", 17i64),
            Predicate::eq("k", 999i64), // matches nothing
            Predicate::lt("k", -5i64),  // below every value
            Predicate::ge("k", 0i64),   // matches everything
            Predicate::lt("v", 40i64),
            Predicate::eq("v", 0i64).not(),
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Ne,
                literal: Value::int(3),
            },
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Eq,
                literal: Value::Null,
            },
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Le,
                literal: Value::Null,
            },
            Predicate::ge("k", 10i64).and(Predicate::lt("k", 12i64)),
            Predicate::lt("k", 3i64).or(Predicate::ge("v", 90i64)),
            Predicate::True,
        ];
        for t in [&bitmap, &rle] {
            for pred in &preds {
                let pruned = predicate_mask(t, pred).unwrap();
                let unpruned = predicate_mask_unpruned(t, pred).unwrap();
                assert_eq!(pruned, unpruned, "masks diverge for {pred:?}");
                // Cross-check against row-level evaluation.
                let compiled = pred.compile(t.schema()).unwrap();
                for (row, tuple) in t.to_rows().iter().enumerate() {
                    assert_eq!(
                        pruned.get(row as u64),
                        compiled.eval(tuple),
                        "row {row} for {pred:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn between_fusion_is_bit_identical_to_composed_masks() {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..3_000)
            .map(|i| vec![Value::int(i / 30), Value::int((i * 41) % 50)])
            .collect();
        let bitmap =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 256).unwrap();
        let rle = bitmap.recoded(cods_storage::Encoding::Rle).unwrap();
        for t in [&bitmap, &rle] {
            for (lo, hi) in [(10i64, 20i64), (0, 1), (95, 200), (-5, 3), (40, 30)] {
                let between = Predicate::ge("k", lo).and(Predicate::lt("k", hi));
                let fused = predicate_mask(t, &between).unwrap();
                let composed = predicate_mask(t, &Predicate::ge("k", lo))
                    .unwrap()
                    .and(&predicate_mask(t, &Predicate::lt("k", hi)).unwrap());
                assert_eq!(fused, composed, "between [{lo}, {hi})");
                assert_eq!(fused, predicate_mask_unpruned(t, &between).unwrap());
            }
            // Mixed-column And and Ne sides fall back to composition.
            let mixed = Predicate::ge("k", 5i64).and(Predicate::lt("v", 25i64));
            let m = predicate_mask(t, &mixed).unwrap();
            assert_eq!(m, predicate_mask_unpruned(t, &mixed).unwrap());
            let ne_side = Predicate::ge("k", 5i64).and(Predicate::Compare {
                column: "k".into(),
                op: CmpOp::Ne,
                literal: Value::int(7),
            });
            let m = predicate_mask(t, &ne_side).unwrap();
            assert_eq!(m, predicate_mask_unpruned(t, &ne_side).unwrap());
            let compiled = ne_side.compile(t.schema()).unwrap();
            for (row, tuple) in t.to_rows().iter().enumerate() {
                assert_eq!(m.get(row as u64), compiled.eval(tuple), "row {row}");
            }
        }
    }

    #[test]
    fn zone_pruning_skips_range_mismatched_segments() {
        // k is clustered: segment s covers values [4s, 4(s+1)). A narrow
        // range predicate must produce the same mask whether or not zones
        // are consulted, and the zones must actually exclude the segment.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 25)]).collect();
        let t = cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 100).unwrap();
        let col = t.column(0);
        // Segment 0 holds values 0..4; its zone cannot match k >= 20.
        let (lo, hi) = CmpOp::Ge
            .sat_rank_interval(col.dict(), &Value::int(20))
            .unwrap();
        let sat = SatSet::Interval {
            ranks: col.dict().value_order().ranks(),
            lo,
            hi,
        };
        assert!(!sat.zone_may_match(col.zone(0)));
        assert!(sat.zone_may_match(col.zone(col.segment_count() - 1)));
        let pred = Predicate::ge("k", 20i64);
        assert_eq!(
            predicate_mask(&t, &pred).unwrap(),
            predicate_mask_unpruned(&t, &pred).unwrap()
        );
        assert_eq!(predicate_mask(&t, &pred).unwrap().count_ones(), 500);
    }

    #[test]
    fn rle_segment_pruning_skips_absent_ranges() {
        // Value 0 lives only in the first quarter of the rows: the mask for
        // k = 0 over the clustered RLE column must come from pruned fills
        // plus one run walk, and still match the bitmap answer.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 250)]).collect();
        let t = cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 100).unwrap();
        let rle = t.recoded(cods_storage::Encoding::Rle).unwrap();
        let pred = Predicate::eq("k", 0i64);
        let mask = predicate_mask(&rle, &pred).unwrap();
        assert_eq!(mask, predicate_mask(&t, &pred).unwrap());
        assert_eq!(mask.count_ones(), 250);
        assert_eq!(mask.iter_ones().max(), Some(249));
    }
}
