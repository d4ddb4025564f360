//! Orphan-chunk garbage collection.
//!
//! A crash between chunk upload and metadata commit (or between commit and
//! the deferred delete of a deprecated version's chunks) can leave chunk
//! bytes at providers that no surviving metadata references. Those orphans
//! are invisible to reads — the metadata is the only map — but they bill
//! storage forever. [`sweep_orphan_chunks`] reconciles each provider's key
//! space against the union of chunk keys referenced by **any** metadata
//! version on any database node, and deletes the difference — but only when
//! that union is complete: a down node or a `meta` cell that holds anything
//! but object metadata makes the sweep delete nothing.
//!
//! The sweep is safe only on a *quiescent* cluster (no in-flight writes):
//! an upload racing the sweep has chunks at providers before its metadata
//! commits, and the sweep would eat them. Crash recovery is exactly such a
//! moment — the journal has been replayed, no client writes are running —
//! and is the intended call site.

use crate::infra::Infrastructure;
use scalia_providers::backend::ObjectStore;
use std::collections::HashSet;

/// Outcome of one [`sweep_orphan_chunks`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Chunk keys found at reachable providers.
    pub chunks_scanned: usize,
    /// Chunk keys referenced by surviving metadata.
    pub chunks_referenced: usize,
    /// Orphan chunks deleted.
    pub orphans_deleted: usize,
    /// Providers skipped because their backend was unreachable.
    pub providers_skipped: usize,
    /// Metadata nodes that were down. Any down node refuses the sweep.
    pub nodes_down: usize,
    /// `meta` cells that hold no object metadata. Any such cell refuses the
    /// sweep.
    pub undecodable_cells: usize,
}

impl GcReport {
    /// Whether the sweep refused to delete anything because the reference
    /// set was incomplete (a down node or an undecodable `meta` cell).
    pub fn refused(&self) -> bool {
        self.nodes_down > 0 || self.undecodable_cells > 0
    }
}

/// Deletes every provider chunk that no metadata version references.
///
/// Every version of every object's `meta` column on every node counts as a
/// reference — deprecated-but-unpruned versions keep their chunks until the
/// prune lands, so the sweep never races MVCC. The sweep fails closed: if
/// any metadata node is down (its newest versions may exist nowhere else)
/// or any `meta` cell holds no object metadata (its chunk references are
/// unknown),
/// it deletes nothing and the report says why ([`GcReport::refused`]).
/// Down providers are skipped (their keys cannot be listed) and reported;
/// re-run the sweep when they recover.
pub fn sweep_orphan_chunks(infra: &Infrastructure) -> GcReport {
    let mut report = GcReport::default();

    // The union of referenced chunk keys across all nodes: nodes may
    // briefly diverge (anti-entropy pending), and a chunk referenced by
    // *any* replica must survive.
    let mut referenced: HashSet<String> = HashSet::new();
    for node in infra.database().nodes() {
        if !node.is_up() {
            report.nodes_down += 1;
            continue;
        }
        for (_, row) in node.snapshot() {
            let Some(cells) = row.get("meta") else {
                continue;
            };
            for cell in cells {
                match cell.value.as_meta() {
                    Some(meta) => referenced.extend(meta.striping.all_chunk_keys()),
                    None => report.undecodable_cells += 1,
                }
            }
        }
    }
    report.chunks_referenced = referenced.len();
    if report.refused() {
        return report;
    }

    for backend in infra.backends() {
        let Ok(keys) = backend.list("") else {
            report.providers_skipped += 1;
            continue;
        };
        report.chunks_scanned += keys.len();
        for key in keys {
            if !referenced.contains(&key) && backend.delete(&key).is_ok() {
                report.orphans_deleted += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ScaliaCluster;
    use bytes::Bytes;
    use scalia_metastore::model::CellValue;
    use scalia_providers::backend::ObjectStore;
    use scalia_types::ids::DatacenterId;
    use scalia_types::object::ObjectKey;
    use scalia_types::reliability::Reliability;
    use scalia_types::rules::StorageRule;
    use scalia_types::zone::ZoneSet;

    fn rule() -> StorageRule {
        StorageRule::new(
            "gc",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        )
    }

    #[test]
    fn sweep_removes_unreferenced_chunks_and_keeps_referenced_ones() {
        let cluster = ScaliaCluster::builder().build();
        let infra = cluster.infra().clone();
        let key = ObjectKey::new("c", "kept.bin");
        cluster
            .put(&key, vec![7u8; 100_000], "application/x-tar", rule(), None)
            .unwrap();

        // Plant orphans: chunk-shaped keys no metadata references.
        let backends = infra.backends();
        backends[0]
            .put("deadbeef-orphan.0", Bytes::from(vec![1u8; 64]))
            .unwrap();
        backends[1]
            .put("deadbeef-orphan.1", Bytes::from(vec![2u8; 64]))
            .unwrap();

        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.orphans_deleted, 2);
        assert_eq!(report.providers_skipped, 0);
        assert!(report.chunks_referenced >= 1);
        assert!(!backends[0].exists("deadbeef-orphan.0").unwrap());

        // The object survives the sweep intact.
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(cluster.get(&key).unwrap().len(), 100_000);

        // A second sweep finds nothing.
        assert_eq!(sweep_orphan_chunks(&infra).orphans_deleted, 0);
    }

    fn stored_total(infra: &Infrastructure) -> u64 {
        infra
            .backends()
            .iter()
            .map(|b| b.stored_bytes().bytes())
            .sum()
    }

    #[test]
    fn sweep_deletes_nothing_when_a_meta_cell_fails_to_decode() {
        let cluster = ScaliaCluster::builder().datacenters(1).build();
        let infra = cluster.infra().clone();
        let db = infra.database();
        let key = ObjectKey::new("c", "newer-format.bin");
        cluster
            .put(&key, vec![5u8; 50_000], "application/x-tar", rule(), None)
            .unwrap();

        // Replace the object's only `meta` cell with a value that is not
        // object metadata. The chunks it named are still stored, but the
        // sweep can no longer see that they are referenced.
        let row = key.row_key();
        db.put(
            &row,
            "meta",
            CellValue::Class(Some("not-metadata".to_string())),
            infra.next_timestamp(),
        )
        .unwrap();
        db.prune_old_versions(&row, "meta");
        assert!(db
            .get_latest(DatacenterId::new(0), &row, "meta")
            .is_some_and(|cell| cell.value.as_meta().is_none()));
        let stored = stored_total(&infra);

        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.orphans_deleted, 0, "the sweep must fail closed");
        assert_eq!(report.undecodable_cells, 1);
        assert!(report.refused());
        assert_eq!(stored_total(&infra), stored);
    }

    #[test]
    fn sweep_deletes_nothing_while_a_metadata_node_is_down() {
        let cluster = ScaliaCluster::builder().datacenters(2).build();
        let infra = cluster.infra().clone();
        let db = infra.database().clone();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("c", "overwritten.bin");
        engine
            .put(
                &key,
                Bytes::from(vec![1u8; 40_000]),
                "application/x-tar",
                rule(),
                None,
            )
            .unwrap();

        // Node 1 misses the overwrite: the newest version lives only on
        // node 0, and the old version's chunks are already gone.
        db.nodes()[1].set_up(false);
        let fresh = Bytes::from(vec![2u8; 40_000]);
        engine
            .put(&key, fresh.clone(), "application/x-tar", rule(), None)
            .unwrap();

        // Node 0 is down during the sweep; node 1 only knows the old version.
        db.nodes()[0].set_up(false);
        db.nodes()[1].set_up(true);
        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.orphans_deleted, 0, "the sweep must fail closed");
        assert_eq!(report.nodes_down, 1);
        assert!(report.refused());

        db.nodes()[0].set_up(true);
        db.anti_entropy();
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(engine.get(&key).unwrap(), fresh);
    }

    #[test]
    fn sweep_skips_down_providers() {
        let cluster = ScaliaCluster::builder().build();
        let infra = cluster.infra().clone();
        let victim = infra.backends()[0].provider_id();
        infra.backend(victim).unwrap().set_down(true);
        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.providers_skipped, 1);
    }
}
