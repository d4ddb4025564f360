//! Benchmarks of the metadata/statistics store substrate: versioned writes,
//! replicated reads, catch-up replay after an outage and the
//! class-statistics map-reduce job.

use criterion::{criterion_group, criterion_main, Criterion};
use scalia_metastore::mapreduce::class_lifetime_summaries;
use scalia_metastore::model::{CellValue, Timestamp};
use scalia_metastore::replication::ReplicatedStore;
use scalia_types::ids::{DatacenterId, ProviderId};
use scalia_types::object::{
    ChunkLocation, ObjectKey, ObjectMeta, ObjectVersionId, StripeMeta, StripingMeta,
};
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::time::SimTime;
use scalia_types::zone::ZoneSet;
use std::sync::Arc;
use std::time::Instant;

/// Rows written during the outage the catch-up bench replays.
const OUTAGE_OPS: u64 = 1000;

/// A one-stripe, 3-of-5 metadata version of object `i`.
fn meta(i: u64) -> CellValue {
    let key = ObjectKey::new("bench", format!("k{i}"));
    let version = ObjectVersionId(i as u128);
    let skey = StripingMeta::storage_key(&key, version);
    let stripe = StripeMeta {
        chunks: (0..5)
            .map(|index| ChunkLocation {
                index,
                provider: ProviderId::new(index),
            })
            .collect(),
        m: 3,
        len: 1024,
        checksum: String::new(),
        skey: skey.clone(),
    };
    CellValue::Meta(Arc::new(ObjectMeta {
        key,
        version,
        mime: "image/png".to_string(),
        size: ByteSize::from_bytes(1024),
        checksum: String::new(),
        rule: StorageRule::new(
            "bench",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        ),
        written_at: SimTime::from_secs(i),
        ttl_hint_hours: None,
        striping: StripingMeta {
            skey,
            m: 3,
            stripe_size: 1024,
            stripes: vec![stripe],
        },
    }))
}

fn bench_metastore(c: &mut Criterion) {
    let mut group = c.benchmark_group("metastore");
    group.sample_size(20);

    group.bench_function("replicated_put_2dc", |b| {
        let store = ReplicatedStore::with_datacenters(2);
        let values: Vec<CellValue> = (0..1000).map(meta).collect();
        let mut i = 0u64;
        b.iter(|| {
            store
                .put(
                    &format!("row{}", i % 1000),
                    "meta",
                    values[(i % 1000) as usize].clone(),
                    Timestamp::new(i, 0),
                )
                .unwrap();
            i += 1;
        })
    });

    group.bench_function("replicated_get_latest", |b| {
        let store = ReplicatedStore::with_datacenters(2);
        for i in 0..1000u64 {
            store
                .put(&format!("row{i}"), "meta", meta(i), Timestamp::new(i, 0))
                .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("row{}", i % 1000);
            i += 1;
            store.get_latest(DatacenterId::new(0), &key, "meta")
        })
    });

    // Node 1 misses `OUTAGE_OPS` puts; once it is back, anti-entropy
    // replays exactly those ops. Only the replay is timed.
    group.bench_function("anti_entropy_1000_queued_ops", |b| {
        let values: Vec<CellValue> = (0..OUTAGE_OPS).map(meta).collect();
        let mut round = 0u64;
        b.iter_custom(|_| {
            let store = ReplicatedStore::with_datacenters(2);
            store.nodes()[1].set_up(false);
            for (i, value) in values.iter().enumerate() {
                let i = i as u64;
                store
                    .put(
                        &format!("row{i}"),
                        "meta",
                        value.clone(),
                        Timestamp::new(round * OUTAGE_OPS + i, 0),
                    )
                    .unwrap();
            }
            round += 1;
            store.nodes()[1].set_up(true);
            assert_eq!(store.pending_hints(), OUTAGE_OPS as usize);
            let start = Instant::now();
            store.anti_entropy();
            let elapsed = start.elapsed();
            assert_eq!(store.pending_hints(), 0);
            assert_eq!(store.nodes()[1].row_count(), OUTAGE_OPS as usize);
            elapsed
        })
    });

    group.bench_function("class_lifetime_mapreduce_500_classes", |b| {
        let store = ReplicatedStore::with_datacenters(1);
        for class in 0..500u64 {
            for sample in 0..10u64 {
                store
                    .put(
                        &format!("stats:class:{class}"),
                        &format!("lifetime:{sample}:0"),
                        CellValue::Lifetime(sample as f64 * 1.5),
                        Timestamp::new(sample, class),
                    )
                    .unwrap();
            }
        }
        let node = store.nodes()[0].clone();
        b.iter(|| class_lifetime_summaries(&node))
    });

    group.finish();
}

criterion_group!(benches, bench_metastore);
criterion_main!(benches);
