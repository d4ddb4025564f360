//! Metastore replicas catching up through queued ops, driven through the
//! public cluster API: a node that is down while objects are deleted or
//! overwritten must, once it is back, replay exactly what it missed — in
//! order, and without bringing deleted rows or pruned versions back.

use scalia::prelude::*;

fn rule() -> StorageRule {
    StorageRule::new(
        "catch-up",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

fn clear_caches(cluster: &ScaliaCluster) {
    for cache in cluster.caches() {
        cache.clear();
    }
}

/// Reads `key` through an engine of each datacenter while the other
/// datacenter's metastore node is down, so each read is served by one node.
fn read_from_each_node(cluster: &ScaliaCluster, key: &ObjectKey) -> Vec<Vec<u8>> {
    let db = cluster.infra().database().clone();
    let engines_per_dc = cluster.engine_count() / db.nodes().len();
    (0..db.nodes().len())
        .map(|dc| {
            let other = &db.nodes()[1 - dc];
            other.set_up(false);
            clear_caches(cluster);
            let read = cluster.engine(dc * engines_per_dc).get(key);
            other.set_up(true);
            read.unwrap_or_else(|e| panic!("datacenter {dc}: {e}"))
                .to_vec()
        })
        .collect()
}

#[test]
fn a_delete_missed_by_a_down_node_stays_deleted() {
    let cluster = ScaliaCluster::builder().datacenters(2).build();
    let db = cluster.infra().database().clone();
    let key = ObjectKey::new("pics", "deleted.png");
    cluster
        .put(&key, vec![1u8; 10_000], "image/png", rule(), None)
        .unwrap();

    db.nodes()[1].set_up(false);
    cluster.delete(&key).unwrap();
    db.nodes()[1].set_up(true);
    cluster.tick(SimTime::from_hours(1));

    clear_caches(&cluster);
    for i in 0..cluster.engine_count() {
        let read = cluster.engine(i).get(&key);
        assert!(
            matches!(read, Err(ScaliaError::ObjectNotFound(_))),
            "engine {i}: {read:?}"
        );
    }
    for (i, node) in db.nodes().iter().enumerate() {
        assert!(
            node.get_versions(&key.row_key(), "meta").is_empty(),
            "node {i} still holds the deleted object's metadata"
        );
    }
    assert!(cluster.list("pics").is_empty());
}

#[test]
fn a_prune_missed_by_a_down_node_leaves_one_meta_version() {
    let cluster = ScaliaCluster::builder().datacenters(2).build();
    let db = cluster.infra().database().clone();
    let key = ObjectKey::new("pics", "overwritten.png");
    cluster
        .put(&key, vec![1u8; 10_000], "image/png", rule(), None)
        .unwrap();

    // The overwrite prunes the old version on node 0 only.
    db.nodes()[1].set_up(false);
    let fresh = vec![2u8; 12_000];
    cluster
        .put(&key, fresh.clone(), "image/png", rule(), None)
        .unwrap();
    db.nodes()[1].set_up(true);
    cluster.tick(SimTime::from_hours(1));

    for (i, node) in db.nodes().iter().enumerate() {
        assert_eq!(
            node.get_versions(&key.row_key(), "meta").len(),
            1,
            "node {i} must hold only the newest metadata version"
        );
    }
    for (dc, read) in read_from_each_node(&cluster, &key).into_iter().enumerate() {
        assert_eq!(read, fresh, "datacenter {dc}");
    }
}

#[test]
fn a_queued_delete_never_erases_a_newer_write() {
    let cluster = ScaliaCluster::builder().datacenters(2).build();
    let db = cluster.infra().database().clone();
    let key = ObjectKey::new("pics", "reborn.png");
    cluster
        .put(&key, vec![1u8; 10_000], "image/png", rule(), None)
        .unwrap();

    // Node 1 misses the delete, comes back, and the key is written again
    // before anti-entropy runs.
    db.nodes()[1].set_up(false);
    cluster.delete(&key).unwrap();
    db.nodes()[1].set_up(true);
    let reborn = vec![3u8; 11_000];
    cluster
        .put(&key, reborn.clone(), "image/png", rule(), None)
        .unwrap();
    db.anti_entropy();

    for (i, node) in db.nodes().iter().enumerate() {
        assert_eq!(
            node.get_versions(&key.row_key(), "meta").len(),
            1,
            "node {i}"
        );
    }
    for (dc, read) in read_from_each_node(&cluster, &key).into_iter().enumerate() {
        assert_eq!(read, reborn, "datacenter {dc}");
    }
    assert_eq!(cluster.list("pics"), vec![key]);
}
