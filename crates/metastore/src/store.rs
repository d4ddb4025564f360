//! A single NoSQL database node.
//!
//! One node lives in each datacenter. It stores wide rows with versioned
//! cells, supports prefix scans (for statistics map-reduce jobs) and tracks
//! the last-modified timestamp per row so the periodic optimiser can ask
//! "which objects were accessed or modified since the last optimisation
//! procedure?" (§III-A3).

use crate::journal::JournalOp;
use crate::model::{insert_version, latest, Cell, CellValue, Row, Timestamp};
use parking_lot::RwLock;
use scalia_types::ids::DatacenterId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One database node (one per datacenter).
pub struct NoSqlNode {
    datacenter: DatacenterId,
    rows: RwLock<BTreeMap<String, Row>>,
    modified: RwLock<BTreeMap<String, Timestamp>>,
    up: RwLock<bool>,
}

impl NoSqlNode {
    /// Creates an empty node for the given datacenter.
    pub fn new(datacenter: DatacenterId) -> Self {
        NoSqlNode {
            datacenter,
            rows: RwLock::new(BTreeMap::new()),
            modified: RwLock::new(BTreeMap::new()),
            up: RwLock::new(true),
        }
    }

    /// Creates a node wrapped in an [`Arc`].
    pub fn shared(datacenter: DatacenterId) -> Arc<Self> {
        Arc::new(Self::new(datacenter))
    }

    /// The datacenter this node belongs to.
    pub fn datacenter(&self) -> DatacenterId {
        self.datacenter
    }

    /// Returns `true` if the node is reachable.
    pub fn is_up(&self) -> bool {
        *self.up.read()
    }

    /// Takes the node down / brings it back (datacenter failure simulation).
    pub fn set_up(&self, up: bool) {
        *self.up.write() = up;
    }

    /// Writes a versioned cell. Returns `false` (and stores nothing) if the
    /// node is down.
    pub fn put(&self, row_key: &str, column: &str, value: CellValue, timestamp: Timestamp) -> bool {
        if !self.is_up() {
            return false;
        }
        let mut rows = self.rows.write();
        let row = rows.entry(row_key.to_string()).or_default();
        let col = row.entry(column.to_string()).or_default();
        insert_version(col, Cell::new(value, timestamp));
        drop(rows);
        let mut modified = self.modified.write();
        let entry = modified.entry(row_key.to_string()).or_insert(timestamp);
        if timestamp > *entry {
            *entry = timestamp;
        }
        true
    }

    /// Applies one journaled mutation. Returns `None`, having applied
    /// nothing, when the node is down; otherwise the cells a `Prune`
    /// removed (empty for the other op kinds).
    pub fn apply(&self, op: &JournalOp) -> Option<Vec<Cell>> {
        if !self.is_up() {
            return None;
        }
        Some(match op {
            JournalOp::Put {
                row_key,
                column,
                value,
                timestamp,
            } => {
                self.put(row_key, column, value.clone(), *timestamp);
                Vec::new()
            }
            JournalOp::DeleteRow { row_key } => {
                self.delete_row(row_key);
                Vec::new()
            }
            JournalOp::DeleteColumn { row_key, column } => {
                self.delete_column(row_key, column);
                Vec::new()
            }
            JournalOp::Prune { row_key, column } => self.prune_old_versions(row_key, column),
        })
    }

    /// Latest version of a column, if present (and the node is up).
    pub fn get_latest(&self, row_key: &str, column: &str) -> Option<Cell> {
        if !self.is_up() {
            return None;
        }
        self.rows
            .read()
            .get(row_key)
            .and_then(|row| row.get(column))
            .and_then(|col| latest(col).cloned())
    }

    /// Applies `read` to the latest cell of a column **without cloning it**
    /// — the zero-copy variant of [`Self::get_latest`] for hot point reads
    /// (every uncached get reads one metadata version).
    pub fn with_latest<T>(
        &self,
        row_key: &str,
        column: &str,
        read: impl FnOnce(&Cell) -> T,
    ) -> Option<T> {
        if !self.is_up() {
            return None;
        }
        self.rows
            .read()
            .get(row_key)
            .and_then(|row| row.get(column))
            .and_then(latest)
            .map(read)
    }

    /// All versions of a column, oldest first.
    pub fn get_versions(&self, row_key: &str, column: &str) -> Vec<Cell> {
        if !self.is_up() {
            return Vec::new();
        }
        self.rows
            .read()
            .get(row_key)
            .and_then(|row| row.get(column))
            .cloned()
            .unwrap_or_default()
    }

    /// The full row (all columns, all versions), if present.
    pub fn get_row(&self, row_key: &str) -> Option<Row> {
        if !self.is_up() {
            return None;
        }
        self.rows.read().get(row_key).cloned()
    }

    /// The latest cell of every column of `row_key` whose name starts with
    /// `prefix`, in column order. Wide rows mixing several column families
    /// (class rows: lifetime samples, usage samples, per-period rollups)
    /// can be read one family at a time without cloning the whole row.
    pub fn latest_cells_with_prefix(&self, row_key: &str, prefix: &str) -> Vec<(String, Cell)> {
        if !self.is_up() {
            return Vec::new();
        }
        let rows = self.rows.read();
        let Some(row) = rows.get(row_key) else {
            return Vec::new();
        };
        row.range(prefix.to_string()..)
            .take_while(|(column, _)| column.starts_with(prefix))
            .filter_map(|(column, cells)| latest(cells).map(|c| (column.clone(), c.clone())))
            .collect()
    }

    /// Removes every version of a column older than the latest one,
    /// returning the removed cells (the engine deletes their chunks).
    pub fn prune_old_versions(&self, row_key: &str, column: &str) -> Vec<Cell> {
        if !self.is_up() {
            return Vec::new();
        }
        let mut rows = self.rows.write();
        let Some(row) = rows.get_mut(row_key) else {
            return Vec::new();
        };
        let Some(col) = row.get_mut(column) else {
            return Vec::new();
        };
        if col.len() <= 1 {
            return Vec::new();
        }
        let keep = col.pop().expect("non-empty column");

        std::mem::replace(col, vec![keep])
    }

    /// Deletes a whole row. Returns `true` if it existed.
    pub fn delete_row(&self, row_key: &str) -> bool {
        if !self.is_up() {
            return false;
        }
        self.modified.write().remove(row_key);
        self.rows.write().remove(row_key).is_some()
    }

    /// Deletes a single column of a row.
    pub fn delete_column(&self, row_key: &str, column: &str) -> bool {
        if !self.is_up() {
            return false;
        }
        let mut rows = self.rows.write();
        rows.get_mut(row_key)
            .map(|row| row.remove(column).is_some())
            .unwrap_or(false)
    }

    /// Row keys starting with `prefix`, in lexicographic order.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<String> {
        if !self.is_up() {
            return Vec::new();
        }
        self.rows
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Visits the latest cell of every column of every row with
    /// `start <= key < end`, in lexicographic order, **without cloning**
    /// rows or cells — a true range query over the ordered row map for hot
    /// range scans (the optimiser's dirty-set fetch visits one cell per
    /// touched object per cycle; cloning whole rows there would cost more
    /// than the rest of the fetch combined).
    pub fn visit_range_latest(
        &self,
        start: &str,
        end: &str,
        mut visit: impl FnMut(&str, &str, &Cell),
    ) {
        if !self.is_up() {
            return;
        }
        for (row_key, row) in self.rows.read().range(start.to_string()..end.to_string()) {
            for (column, cells) in row {
                if let Some(cell) = latest(cells) {
                    visit(row_key, column, cell);
                }
            }
        }
    }

    /// Row keys with `start <= key < end`, in lexicographic order (the
    /// keys-only variant of [`Self::range_rows`]).
    pub fn range_keys(&self, start: &str, end: &str) -> Vec<String> {
        if !self.is_up() {
            return Vec::new();
        }
        self.rows
            .read()
            .range(start.to_string()..end.to_string())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// All rows, cloned. Used by map-reduce jobs.
    pub fn snapshot(&self) -> Vec<(String, Row)> {
        if !self.is_up() {
            return Vec::new();
        }
        self.rows
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Row keys whose last modification is at or after `since` — the set `A`
    /// of accessed/modified objects the periodic optimiser shards across
    /// engines.
    pub fn modified_since(&self, since: Timestamp) -> Vec<String> {
        if !self.is_up() {
            return Vec::new();
        }
        self.modified
            .read()
            .iter()
            .filter(|(_, &ts)| ts >= since)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of rows stored.
    pub fn row_count(&self) -> usize {
        self.rows.read().len()
    }

    /// Replaces the node's entire contents with a checkpoint snapshot,
    /// rebuilding the modified-row index from the snapshot's cell
    /// timestamps. Crash recovery restores the checkpoint first and then
    /// replays the write-ahead journal on top (see
    /// `ReplicatedStore::recover`); unlike normal mutations this works even
    /// while the node is marked down, because recovery is what brings it
    /// back.
    pub fn restore(&self, rows: Vec<(String, Row)>) {
        let mut modified = BTreeMap::new();
        for (row_key, row) in &rows {
            let max_ts = row
                .values()
                .flat_map(|cells| cells.iter().map(|c| c.timestamp))
                .max();
            if let Some(ts) = max_ts {
                modified.insert(row_key.clone(), ts);
            }
        }
        *self.rows.write() = rows.into_iter().collect();
        *self.modified.write() = modified;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(x: u32) -> CellValue {
        CellValue::Lifetime(x as f64)
    }

    fn tag(s: &str) -> CellValue {
        CellValue::Class(Some(s.to_string()))
    }

    fn node() -> NoSqlNode {
        NoSqlNode::new(DatacenterId::new(0))
    }

    #[test]
    fn put_get_roundtrip() {
        let n = node();
        assert!(n.put("row1", "file_meta", num(42), Timestamp::new(1, 0)));
        let cell = n.get_latest("row1", "file_meta").unwrap();
        assert_eq!(cell.value, num(42));
        assert!(n.get_latest("row1", "missing").is_none());
        assert!(n.get_latest("missing", "file_meta").is_none());
        assert_eq!(n.row_count(), 1);
    }

    #[test]
    fn versions_accumulate_and_latest_wins() {
        let n = node();
        n.put("r", "c", tag("v1"), Timestamp::new(1, 0));
        n.put("r", "c", tag("v2"), Timestamp::new(2, 0));
        n.put("r", "c", tag("v0"), Timestamp::new(0, 5));
        assert_eq!(n.get_versions("r", "c").len(), 3);
        assert_eq!(n.get_latest("r", "c").unwrap().value, tag("v2"));
    }

    #[test]
    fn prune_old_versions_returns_removed() {
        let n = node();
        n.put("r", "c", tag("old"), Timestamp::new(1, 0));
        n.put("r", "c", tag("mid"), Timestamp::new(2, 0));
        n.put("r", "c", tag("new"), Timestamp::new(3, 0));
        let removed = n.prune_old_versions("r", "c");
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].value, tag("old"));
        assert_eq!(n.get_versions("r", "c").len(), 1);
        assert_eq!(n.get_latest("r", "c").unwrap().value, tag("new"));
        // Pruning again is a no-op.
        assert!(n.prune_old_versions("r", "c").is_empty());
        assert!(n.prune_old_versions("missing", "c").is_empty());
    }

    #[test]
    fn delete_row_and_column() {
        let n = node();
        n.put("r", "a", num(1), Timestamp::new(1, 0));
        n.put("r", "b", num(2), Timestamp::new(1, 1));
        assert!(n.delete_column("r", "a"));
        assert!(!n.delete_column("r", "a"));
        assert!(n.get_latest("r", "b").is_some());
        assert!(n.delete_row("r"));
        assert!(!n.delete_row("r"));
        assert_eq!(n.row_count(), 0);
    }

    #[test]
    fn scan_prefix_and_snapshot() {
        let n = node();
        n.put("stats:class1", "ops", num(5), Timestamp::new(1, 0));
        n.put("stats:class2", "ops", num(9), Timestamp::new(1, 1));
        n.put("meta:obj1", "file_meta", tag(""), Timestamp::new(1, 2));
        assert_eq!(n.scan_prefix("stats:").len(), 2);
        assert_eq!(n.scan_prefix("meta:").len(), 1);
        assert_eq!(n.scan_prefix("zzz").len(), 0);
        assert_eq!(n.snapshot().len(), 3);
    }

    #[test]
    fn modified_since_tracks_latest_write() {
        let n = node();
        n.put("a", "c", num(1), Timestamp::new(10, 0));
        n.put("b", "c", num(1), Timestamp::new(20, 0));
        n.put("a", "c", num(2), Timestamp::new(30, 0));
        let recent = n.modified_since(Timestamp::new(15, 0));
        assert!(recent.contains(&"a".to_string()));
        assert!(recent.contains(&"b".to_string()));
        let very_recent = n.modified_since(Timestamp::new(25, 0));
        assert_eq!(very_recent, vec!["a".to_string()]);
        assert!(n.modified_since(Timestamp::new(31, 0)).is_empty());
    }

    #[test]
    fn restore_replaces_contents_and_rebuilds_modified_index() {
        let n = node();
        n.put("old", "c", num(1), Timestamp::new(5, 0));
        let other = node();
        other.put("a", "c", num(10), Timestamp::new(10, 0));
        other.put("a", "d", num(11), Timestamp::new(12, 0));
        other.put("b", "c", num(20), Timestamp::new(20, 0));
        n.restore(other.snapshot());
        assert!(n.get_latest("old", "c").is_none(), "old contents replaced");
        assert_eq!(n.get_latest("a", "d").unwrap().value, num(11));
        assert_eq!(n.row_count(), 2);
        // The modified index reflects the snapshot's max timestamps.
        assert_eq!(n.modified_since(Timestamp::new(13, 0)), vec!["b"]);
        let both = n.modified_since(Timestamp::new(12, 0));
        assert_eq!(both, vec!["a".to_string(), "b".to_string()]);
        // Restore works on a down node (recovery brings it back by hand).
        n.set_up(false);
        n.restore(Vec::new());
        n.set_up(true);
        assert_eq!(n.row_count(), 0);
    }

    #[test]
    fn down_node_rejects_everything() {
        let n = node();
        n.put("r", "c", num(1), Timestamp::new(1, 0));
        n.set_up(false);
        assert!(!n.is_up());
        assert!(!n.put("r", "c", num(2), Timestamp::new(2, 0)));
        assert!(n.get_latest("r", "c").is_none());
        assert!(n.scan_prefix("").is_empty());
        assert!(n.modified_since(Timestamp::ZERO).is_empty());
        n.set_up(true);
        assert_eq!(n.get_latest("r", "c").unwrap().value, num(1));
    }

    #[test]
    fn apply_runs_every_op_kind_and_nothing_while_down() {
        let n = node();
        let put = |ts: u64| JournalOp::Put {
            row_key: "r".into(),
            column: "c".into(),
            value: num(ts as u32),
            timestamp: Timestamp::new(ts, 0),
        };
        assert_eq!(n.apply(&put(1)), Some(Vec::new()));
        assert_eq!(n.apply(&put(2)), Some(Vec::new()));
        let prune = JournalOp::Prune {
            row_key: "r".into(),
            column: "c".into(),
        };
        let removed = n.apply(&prune).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].value, num(1));
        n.set_up(false);
        assert_eq!(
            n.apply(&JournalOp::DeleteRow {
                row_key: "r".into()
            }),
            None
        );
        n.set_up(true);
        assert_eq!(n.get_latest("r", "c").unwrap().value, num(2));
        let delete_column = JournalOp::DeleteColumn {
            row_key: "r".into(),
            column: "c".into(),
        };
        assert_eq!(n.apply(&delete_column), Some(Vec::new()));
        assert!(n.get_latest("r", "c").is_none());
    }
}
