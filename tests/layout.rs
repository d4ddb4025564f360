//! The on-provider layout pin.
//!
//! One cluster runs a fixed sequence that reaches every landing branch of
//! the write path: empty, small and one-stripe puts, a multi-stripe streamed
//! put with an odd tail, a multipart upload that never fills a stripe, a put
//! whose first upload fails and is re-placed, a degraded landing, explicit
//! re-placement of a one-stripe and of a striped object, and one repair
//! backfill. The digest covers every chunk key at every provider with its
//! byte length, plus the next version id the deployment would mint — so any
//! change to chunk naming, version minting, placement or encoding moves it.

use rayon::ThreadPool;
use scalia::prelude::*;
use scalia::providers::backend::ObjectStore;
use scalia::types::md5::md5_hex;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Digest of the layout sequence below, recorded before the two object
/// layouts were merged into one; it must never move.
const PINNED_LAYOUT_DIGEST: &str = "08b1d80aae373b98e708c930af0936e7";

const STRIPE: u64 = 512 * 1024;
const THRESHOLD: u64 = 1_200_000;

/// A flexible rule (lock-in 0.5 ⇒ ≥ 2 providers).
fn flex_rule() -> StorageRule {
    StorageRule::new(
        "layout-flex",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// A wide rule: lock-in 0.2 demands all five paper-catalog providers, so a
/// lost provider forces the degraded landing.
fn wide_rule() -> StorageRule {
    StorageRule::new(
        "layout-wide",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.0),
        ZoneSet::all(),
        0.2,
    )
}

fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((tag as usize).wrapping_mul(131).wrapping_add(i) % 251) as u8)
        .collect()
}

/// Runs the sequence and digests the resulting provider key space.
fn layout_scenario() -> String {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    infra.set_stripe_size_bytes(STRIPE);
    infra.set_streaming_threshold_bytes(THRESHOLD);
    let engine = cluster.engine(0).clone();
    let key = |name: &str| ObjectKey::new("layout", name);
    let put = |name: &str, len: usize, rule: StorageRule| {
        cluster.put(
            &key(name),
            payload(len as u64, len),
            "application/x-tar",
            rule,
            None,
        )
    };

    // One-stripe puts: empty, small, and above the stripe size.
    put("empty", 0, flex_rule()).unwrap();
    let small = put("small", 1024, flex_rule()).unwrap();
    put("mib", 1024 * 1024, flex_rule()).unwrap();

    // A streamed put: two full stripes and an odd tail.
    let striped_len = 2 * STRIPE as usize + 300_001;
    put("striped", striped_len, flex_rule()).unwrap();

    // A multipart upload that never fills a stripe.
    let mut upload = engine.begin_put(&key("multipart"), "application/x-tar", flex_rule(), None);
    upload.put_part(&payload(7, 3_000)).unwrap();
    upload.put_part(&payload(8, 5_001)).unwrap();
    upload.complete_put().unwrap();

    // A put whose first upload fails: a provider of the small object's set
    // dies behind the catalog's back, and the write is re-placed.
    let victim = small.striping.provider_set()[0];
    infra.backend(victim).unwrap().set_down(true);
    let retried = put("retried", 4_000, flex_rule()).unwrap();
    assert!(!retried.striping.provider_set().contains(&victim));
    infra.set_provider_down(victim, false);

    // A degraded landing: the wide rule cannot be re-placed without the
    // dead provider, so the write lands on four of five chunks.
    infra.backend(victim).unwrap().set_down(true);
    let degraded = put("degraded", 6_000, wide_rule()).unwrap();
    assert_eq!(degraded.striping.provider_set().len(), 4);
    infra.set_provider_down(victim, false);

    // Explicit re-placement of a one-stripe and of a striped object.
    let all = infra.catalog().all();
    let mirror = Placement {
        providers: vec![all[0].clone(), all[1].clone()],
        m: 1,
    };
    engine.replace_placement(&key("small"), &mirror).unwrap();
    engine.replace_placement(&key("striped"), &mirror).unwrap();

    // One repair cycle backfills the degraded object to full width.
    cluster.tick(SimTime::from_hours(1));
    let healed = engine.read_metadata(&key("degraded")).unwrap();
    assert_eq!(healed.striping.provider_set().len(), 5);

    // Every object still reads back.
    for cache in cluster.caches() {
        cache.clear();
    }
    for (name, len) in [
        ("empty", 0),
        ("small", 1024),
        ("mib", 1024 * 1024),
        ("striped", striped_len),
        ("retried", 4_000),
        ("degraded", 6_000),
    ] {
        assert_eq!(
            cluster.get(&key(name)).unwrap().as_ref(),
            &payload(len as u64, len)[..],
            "{name} must read back"
        );
    }

    let mut lines: Vec<String> = Vec::new();
    for backend in infra.backends() {
        let provider = backend.descriptor().id;
        for chunk_key in backend.list("").unwrap() {
            let len = backend.get(&chunk_key).unwrap().len();
            lines.push(format!("{} {chunk_key} {len}", provider.index()));
        }
    }
    lines.sort();
    lines.push(format!("next={}", infra.next_version("layout").to_hex()));
    md5_hex(lines.join("\n").as_bytes())
}

#[test]
fn provider_layout_matches_the_pin_at_every_pool_size() {
    for workers in POOL_SIZES {
        let pool = ThreadPool::new(workers);
        let digest = pool.install(layout_scenario);
        assert_eq!(
            digest, PINNED_LAYOUT_DIGEST,
            "pool of {workers}: the on-provider layout moved"
        );
    }
}
