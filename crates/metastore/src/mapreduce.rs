//! Parallel map-reduce jobs over database rows.
//!
//! The paper refreshes per-class statistics and lifetime distributions
//! "periodically using map-reduce jobs in the database layer" (§III-A1).
//! This module provides a small data-parallel map-reduce runner over the
//! rows of a [`NoSqlNode`] (powered by rayon, per the HPC guides) plus the
//! concrete job that aggregates per-class lifetime distributions.

use crate::model::{CellValue, Row};
use crate::store::NoSqlNode;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Runs a map-reduce job over a snapshot of the node's rows.
///
/// `map` emits zero or more `(key, value)` pairs per row; `reduce` folds all
/// values of one key into a single result. Rows are mapped in parallel.
pub fn map_reduce<K, V, R>(
    node: &NoSqlNode,
    map: impl Fn(&str, &Row) -> Vec<(K, V)> + Sync,
    reduce: impl Fn(&K, Vec<V>) -> R + Sync,
) -> BTreeMap<K, R>
where
    K: Ord + Send + Clone,
    V: Send,
    R: Send,
{
    let snapshot = node.snapshot();
    let pairs: Vec<(K, V)> = snapshot
        .par_iter()
        .flat_map_iter(|(key, row)| map(key, row))
        .collect();

    let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (k, v) in pairs {
        grouped.entry(k).or_default().push(v);
    }

    grouped
        .into_par_iter()
        .map(|(k, vs)| {
            let r = reduce(&k, vs);
            (k, r)
        })
        .collect::<Vec<(K, R)>>()
        .into_iter()
        .collect()
}

/// Summary statistics of the lifetime distribution of one object class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLifetimeSummary {
    /// Number of lifetime samples.
    pub samples: usize,
    /// Mean lifetime in hours.
    pub mean_hours: f64,
    /// Maximum observed lifetime in hours.
    pub max_hours: f64,
}

/// A map-reduce job computing, for every class row, the summary of its
/// lifetime samples.
pub fn class_lifetime_summaries(node: &NoSqlNode) -> BTreeMap<String, ClassLifetimeSummary> {
    map_reduce(
        node,
        |row_key, row| {
            let Some(class_id) = row_key.strip_prefix("stats:class:") else {
                return Vec::new();
            };
            row.iter()
                .filter(|(col, _)| col.starts_with("lifetime:"))
                .filter_map(|(_, cells)| cells.last())
                .filter_map(|cell| match cell.value {
                    CellValue::Lifetime(hours) => Some(hours),
                    _ => None,
                })
                .map(|hours| (class_id.to_string(), hours))
                .collect()
        },
        |_, hours| {
            let samples = hours.len();
            let sum: f64 = hours.iter().sum();
            let max = hours.iter().cloned().fold(0.0f64, f64::max);
            ClassLifetimeSummary {
                samples,
                mean_hours: if samples == 0 {
                    0.0
                } else {
                    sum / samples as f64
                },
                max_hours: max,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Timestamp;
    use scalia_types::ids::DatacenterId;

    #[test]
    fn generic_map_reduce_counts_columns() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        node.put("a", "x", CellValue::Lifetime(1.0), Timestamp::new(1, 0));
        node.put("a", "y", CellValue::Lifetime(1.0), Timestamp::new(1, 1));
        node.put("b", "x", CellValue::Lifetime(1.0), Timestamp::new(1, 2));
        let result = map_reduce(
            &node,
            |key, row| vec![(key.to_string(), row.len())],
            |_, counts| counts.into_iter().sum::<usize>(),
        );
        assert_eq!(result["a"], 2);
        assert_eq!(result["b"], 1);
    }

    #[test]
    fn map_can_emit_multiple_keys_per_row() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        node.put("row", "c1", CellValue::Lifetime(10.0), Timestamp::new(1, 0));
        node.put("row", "c2", CellValue::Lifetime(20.0), Timestamp::new(1, 1));
        let result = map_reduce(
            &node,
            |_, row| {
                row.iter()
                    .map(|(col, cells)| match cells.last().unwrap().value {
                        CellValue::Lifetime(hours) => (col.clone(), hours),
                        ref other => panic!("unexpected cell value {other:?}"),
                    })
                    .collect::<Vec<_>>()
            },
            |_, values| values.into_iter().sum::<f64>(),
        );
        assert_eq!(result["c1"], 10.0);
        assert_eq!(result["c2"], 20.0);
    }

    #[test]
    fn class_lifetime_job_summarises_per_class() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        // Class A: lifetimes 2h, 4h. Class B: lifetime 6h.
        node.put(
            "stats:class:A",
            "lifetime:1:0",
            CellValue::Lifetime(2.0),
            Timestamp::new(1, 0),
        );
        node.put(
            "stats:class:A",
            "lifetime:2:0",
            CellValue::Lifetime(4.0),
            Timestamp::new(2, 0),
        );
        node.put(
            "stats:class:B",
            "lifetime:3:0",
            CellValue::Lifetime(6.0),
            Timestamp::new(3, 0),
        );
        // A non-class row is ignored.
        node.put(
            "stats:obj:xyz",
            "period:000000000001",
            CellValue::Class(None),
            Timestamp::new(4, 0),
        );

        let summaries = class_lifetime_summaries(&node);
        assert_eq!(summaries.len(), 2);
        let a = &summaries["A"];
        assert_eq!(a.samples, 2);
        assert!((a.mean_hours - 3.0).abs() < 1e-12);
        assert!((a.max_hours - 4.0).abs() < 1e-12);
        let b = &summaries["B"];
        assert_eq!(b.samples, 1);
        assert!((b.mean_hours - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_node_yields_empty_result() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        let result: BTreeMap<String, usize> = map_reduce(
            &node,
            |key, _| vec![(key.to_string(), 1usize)],
            |_, v| v.len(),
        );
        assert!(result.is_empty());
        assert!(class_lifetime_summaries(&node).is_empty());
    }
}
