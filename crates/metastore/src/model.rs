//! The wide-row data model.
//!
//! Rows are addressed by a string row key (in Scalia:
//! `MD5(container | key)` for metadata, class hashes for statistics). Each
//! row holds named columns; each column holds one or more timestamped
//! versions (MVCC). This mirrors the Cassandra-style model sketched in the
//! paper's Figs. 6 and 10. Every cell holds a typed [`CellValue`]: one
//! variant per shape the deployment stores.

use crate::stats::ClassPeriodRecord;
use scalia_types::object::{DurabilityDebt, ObjectMeta, RepairQueueEntry};
use scalia_types::stats::PeriodStats;
use scalia_types::usage::ResourceUsage;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A logical timestamp attached to every written cell.
///
/// The paper requires engines to be time-synchronised (NTP) so the freshest
/// version wins on conflict; the reproduction uses the simulation time in
/// seconds, extended with a sequence number to break ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    /// Simulated wall-clock seconds.
    pub secs: u64,
    /// Tie-breaking sequence number (e.g. engine id or write counter).
    pub seq: u64,
}

impl Timestamp {
    /// Creates a timestamp.
    pub const fn new(secs: u64, seq: u64) -> Self {
        Timestamp { secs, seq }
    }

    /// The zero timestamp.
    pub const ZERO: Timestamp = Timestamp { secs: 0, seq: 0 };
}

/// A stored value: one variant per column shape, so a reader matches on
/// the shape it expects instead of decoding a generic tree.
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// One object metadata version (`meta` column). Shared, not copied, by
    /// journal records, replicas, queued ops and snapshots.
    Meta(Arc<ObjectMeta>),
    /// The durability debt of a degraded write (`debt` column).
    Debt(DurabilityDebt),
    /// A repair-queue entry (`item` column of a `repair:` row).
    Repair(RepairQueueEntry),
    /// Container-index membership (`container:` rows): `false` marks a
    /// deleted key.
    Listed(bool),
    /// An object's class (`class` column), or a dirty-set mark tagged with
    /// the class when the writer knew it.
    Class(Option<String>),
    /// One sampling period of an object's access statistics.
    Period(PeriodStats),
    /// One per-flush delta of a class's per-period rollup.
    Rollup(ClassPeriodRecord),
    /// One per-period resource-usage sample of a class.
    Usage(ResourceUsage),
    /// One observed object lifetime of a class, in hours.
    Lifetime(f64),
}

impl CellValue {
    /// The object metadata, if this is a `Meta` value.
    pub fn as_meta(&self) -> Option<&Arc<ObjectMeta>> {
        match self {
            CellValue::Meta(meta) => Some(meta),
            _ => None,
        }
    }

    /// The repair-queue entry, if this is a `Repair` value.
    pub fn as_repair(&self) -> Option<&RepairQueueEntry> {
        match self {
            CellValue::Repair(entry) => Some(entry),
            _ => None,
        }
    }
}

/// One version of a column value.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The stored value.
    pub value: CellValue,
    /// Write timestamp.
    pub timestamp: Timestamp,
}

impl Cell {
    /// Creates a cell.
    pub fn new(value: CellValue, timestamp: Timestamp) -> Self {
        Cell { value, timestamp }
    }
}

/// A column: a list of versions, kept sorted by ascending timestamp.
pub type Column = Vec<Cell>;

/// A row: named columns.
pub type Row = BTreeMap<String, Column>;

/// Inserts a cell into a column, keeping versions sorted by timestamp and
/// dropping an exact-duplicate timestamp write (last write wins for the same
/// timestamp).
pub fn insert_version(column: &mut Column, cell: Cell) {
    match column.binary_search_by(|c| c.timestamp.cmp(&cell.timestamp)) {
        Ok(pos) => column[pos] = cell,
        Err(pos) => column.insert(pos, cell),
    }
}

/// Returns the latest version of a column, if any.
pub fn latest(column: &Column) -> Option<&Cell> {
    column.last()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifetime(cell: &Cell) -> f64 {
        match cell.value {
            CellValue::Lifetime(hours) => hours,
            ref other => panic!("unexpected cell value {other:?}"),
        }
    }

    #[test]
    fn timestamps_order_by_secs_then_seq() {
        assert!(Timestamp::new(5, 0) > Timestamp::new(4, 99));
        assert!(Timestamp::new(5, 2) > Timestamp::new(5, 1));
        assert_eq!(Timestamp::new(3, 3), Timestamp::new(3, 3));
        assert_eq!(Timestamp::ZERO, Timestamp::new(0, 0));
    }

    #[test]
    fn insert_version_keeps_sorted_order() {
        let mut col = Column::new();
        for v in [2.0, 1.0, 3.0] {
            insert_version(
                &mut col,
                Cell::new(CellValue::Lifetime(v), Timestamp::new(v as u64, 0)),
            );
        }
        let values: Vec<f64> = col.iter().map(lifetime).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
        assert_eq!(lifetime(latest(&col).unwrap()), 3.0);
    }

    #[test]
    fn same_timestamp_overwrites() {
        let mut col = Column::new();
        insert_version(
            &mut col,
            Cell::new(CellValue::Lifetime(1.0), Timestamp::new(1, 0)),
        );
        insert_version(
            &mut col,
            Cell::new(CellValue::Lifetime(2.0), Timestamp::new(1, 0)),
        );
        assert_eq!(col.len(), 1);
        assert_eq!(lifetime(&col[0]), 2.0);
    }

    #[test]
    fn latest_of_empty_column_is_none() {
        assert!(latest(&Column::new()).is_none());
    }
}
