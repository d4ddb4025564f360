//! The four benchmark workloads.
//!
//! Each workload is a pure function of the seed: the same seed yields the
//! same provider catalog, prepopulated objects, sentinels, op trace and
//! control-plane events. The program under test only ever sees the
//! generated ops. Beside each generator, the doc comment states which
//! layer the workload loads and which one it bypasses.

use scalia::frontend::{FrontendConfig, S3Op};
use scalia::providers::catalog::ProviderCatalog;
use scalia::providers::descriptor::ProviderDescriptor;
use scalia::providers::latency::LatencyModel;
use scalia::providers::pricing::PricingPolicy;
use scalia::providers::sla::ProviderSla;
use scalia::sim::scenarios::latency_catalog;
use scalia::sim::traffic::{
    fill_byte, generate_trace, object_key, ArrivalPattern, OpMix, TenantSpec, TrafficSpec,
};
use scalia::types::ids::ProviderId;
use scalia::types::object::ObjectKey;
use scalia::types::size::ByteSize;
use scalia::types::zone::{Zone, ZoneSet};

/// Seed of the synthetic providers' prices and SLAs in `adaptive_hours`.
/// The price landscape is part of the deployment under test, not of its
/// input: `--seed` varies the trace and the providers' latency jitter
/// streams, never what the providers charge.
const CATALOG_SEED: u64 = 0x005c_a11a;

/// Per-datacenter cache of every workload's cluster: the yardstick the
/// working sets are sized against.
pub const CACHE_BYTES: u64 = 4 * 1024 * 1024;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
const SECOND_US: u64 = 1_000_000;
const HOUR_US: u64 = 3_600 * SECOND_US;
const OCTET: &str = "application/octet-stream";

/// Names accepted by `--workload`.
pub const NAMES: [&str; 4] = ["hot_small", "cold_small", "large_stream", "adaptive_hours"];

/// A tenant of the front end.
pub struct Tenant {
    pub name: String,
    pub weight: u32,
    /// Latency limit the tenant states, µs (0 = none). Ops of tenants with
    /// a limit count towards `sla_miss_rate`.
    pub sla_us: u64,
}

/// An object written before the trace starts (part of set-up).
pub struct Object {
    pub tenant: usize,
    pub key: ObjectKey,
    pub size: u64,
    pub fill: u8,
    pub mime: String,
}

/// One request of the trace.
pub struct Op {
    pub at_us: u64,
    pub tenant: usize,
    pub op: S3Op,
}

/// A control-plane or provider-landscape event, applied in virtual time
/// between ops (the replay first advances the front end to its time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// `ScaliaCluster::tick` at the event time.
    Tick,
    /// `ScaliaCluster::run_optimization(false)`.
    Optimize,
    /// Provider `i` (catalog registration order) becomes unreachable.
    Down(usize),
    /// Provider `i` comes back.
    Up(usize),
    /// Active repair of provider `i`: `repair::repair_provider` queues every
    /// object with a chunk on it and drains the queue.
    Repair(usize),
    /// `catalog::cheapstor` is registered, then a forced optimisation cycle.
    PriceDrop,
}

/// A fully generated workload.
pub struct Workload {
    pub name: &'static str,
    /// The latency limit the workload states, µs.
    pub latency_limit_us: u64,
    /// Whether two replays of one seed must give the identical outcome
    /// digest (see the README on the optimiser's known nondeterminism).
    pub deterministic: bool,
    pub providers: Vec<ProviderDescriptor>,
    pub frontend: FrontendConfig,
    pub tenants: Vec<Tenant>,
    pub objects: Vec<Object>,
    /// Objects with position-dependent bytes, written after the
    /// prepopulation and never touched by the trace.
    pub sentinels: Vec<(ObjectKey, Vec<u8>)>,
    pub ops: Vec<Op>,
    /// Events sorted by time.
    pub events: Vec<(u64, Event)>,
}

/// splitmix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed handed to the repository's trace generator: `--seed` passed
/// through splitmix64 first, so neighbouring seeds give unrelated traces.
fn mix(seed: u64) -> u64 {
    Rng::new(seed, 0x7a).next_u64()
}

/// Generates workload `name` for `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "hot_small" => Some(hot_small(seed)),
        "cold_small" => Some(cold_small(seed)),
        "large_stream" => Some(large_stream(seed)),
        "adaptive_hours" => Some(adaptive_hours(seed)),
        _ => None,
    }
}

/// Sentinels: position-dependent bytes (a seeded stream), so a decode that
/// reassembles shards in the wrong order cannot go unnoticed the way it
/// would on the constant-fill payloads of `S3Op::Put`.
fn sentinels(seed: u64, sizes: &[u64]) -> Vec<(ObjectKey, Vec<u8>)> {
    let mut rng = Rng::new(seed, 0x5e47);
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let data = (0..size).map(|_| rng.next_u64() as u8).collect();
            (ObjectKey::new("sentinel", format!("s{i:02}")), data)
        })
        .collect()
}

/// Compiles a traffic spec with the repository's own seeded generator and
/// turns it into a workload skeleton (tenants, prepopulated objects, ops).
fn from_traffic(spec: &TrafficSpec) -> (Vec<Tenant>, Vec<Object>, Vec<Op>) {
    let tenants = spec
        .tenants
        .iter()
        .map(|t| Tenant {
            name: t.name.clone(),
            weight: t.weight,
            sla_us: t.sla_us,
        })
        .collect();
    let objects = spec
        .tenants
        .iter()
        .enumerate()
        .flat_map(|(ti, t)| {
            (0..t.objects).map(move |idx| Object {
                tenant: ti,
                key: object_key(t, idx),
                size: t.object_size,
                fill: fill_byte(ti, idx),
                mime: OCTET.into(),
            })
        })
        .collect();
    let ops = generate_trace(spec)
        .into_iter()
        .map(|t| Op {
            at_us: t.at_us,
            tenant: t.tenant,
            op: t.op,
        })
        .collect();
    (tenants, objects, ops)
}

fn ticks(every_us: u64, horizon_us: u64) -> Vec<(u64, Event)> {
    (1..=horizon_us / every_us)
        .map(|k| (k * every_us, Event::Tick))
        .collect()
}

/// **hot_small** — two tenants on the standard traffic cluster, read-heavy,
/// a flash crowd on `web` and a provider outage.
///
/// * Loads: front-end admission and fair scheduling, the per-datacenter
///   cache (the ~3 MiB working set fits the 4 MiB cache), and — during the
///   outage — hedged reads, degraded writes and the repair queue drained
///   by the 5-second ticks. The flash crowd (6× `web`'s base rate) is the
///   suite's only overload: it shows in queueing and virtual latency.
/// * Bypasses: erasure kernels, placement search and the optimiser barely
///   run (cache hits dominate and no sampling period ends), so this is the
///   "no change expected" workload for kernel or search work.
fn hot_small(seed: u64) -> Workload {
    let horizon_us = 240 * SECOND_US;
    let latency_limit_us = 150_000;
    let spec = TrafficSpec {
        name: "hot_small".into(),
        seed: mix(seed),
        horizon_us,
        slot_us: 10_000,
        tenants: vec![
            TenantSpec {
                name: "web".into(),
                weight: 3,
                sla_us: latency_limit_us,
                objects: 500,
                object_size: 2 * KIB,
                zipf_s: 1.1,
                mix: OpMix::read_heavy(),
                arrivals: ArrivalPattern::FlashCrowd {
                    base_ops_per_sec: 100.0,
                    burst_ops_per_sec: 600.0,
                    from_us: 60 * SECOND_US,
                    to_us: 120 * SECOND_US,
                },
            },
            TenantSpec {
                name: "batch".into(),
                weight: 1,
                sla_us: 0,
                objects: 500,
                object_size: 4 * KIB,
                zipf_s: 0.9,
                mix: OpMix::read_heavy(),
                arrivals: ArrivalPattern::Uniform { ops_per_sec: 50.0 },
            },
        ],
        events: vec![],
        tick_every_us: 0,
        frontend: FrontendConfig::default(),
        cache_capacity: ByteSize::from_bytes(CACHE_BYTES),
        prepopulate: true,
    };
    let (tenants, objects, ops) = from_traffic(&spec);
    let mut events = ticks(5 * SECOND_US, horizon_us);
    // S3(l), the cheapest-storage provider most placements include.
    events.push((150 * SECOND_US, Event::Down(1)));
    events.push((200 * SECOND_US, Event::Up(1)));
    events.sort_by_key(|&(at, _)| at);
    Workload {
        name: "hot_small",
        latency_limit_us,
        deterministic: true,
        providers: latency_catalog(mix(seed)),
        frontend: FrontendConfig {
            lanes: 4,
            max_queue_depth: 65_536,
            max_tenant_queue: 65_536,
            ..FrontendConfig::default()
        },
        tenants,
        objects,
        sentinels: sentinels(seed, &[1_000, 7 * KIB + 3, 40 * KIB + 1]),
        ops,
        events,
    }
}

/// **cold_small** — one tenant, 10 000 × 4 KiB objects (about 10× the
/// cache), uniform keys, write-heavy mix, offered rate well below lane
/// saturation.
///
/// * Loads: the fixed per-op costs of ROADMAP item 2. Most gets miss the
///   cache, so each pays the metadata read and decode, the hedged m-of-n
///   fetch and reconstruction; each put pays MD5, small-object encode,
///   placement-cache lookup, metastore commit, MVCC prune and the
///   deprecated-chunk delete. Writes sit beside reads so that a read-path
///   gain that slows writes shows.
/// * Bypasses: the cache does little and nothing queues. The trace spans
///   160 virtual seconds, well inside one sampling period, so neither the
///   optimiser nor a tick runs: at 10 000 objects one tick costs hundreds
///   of milliseconds and would bury the per-op costs this workload is for
///   (tick cost is measured on hot_small and adaptive_hours).
fn cold_small(seed: u64) -> Workload {
    let horizon_us = 160 * SECOND_US;
    let latency_limit_us = 250_000;
    let spec = TrafficSpec {
        name: "cold_small".into(),
        seed: mix(seed),
        horizon_us,
        slot_us: 10_000,
        tenants: vec![TenantSpec {
            name: "cold".into(),
            weight: 1,
            sla_us: latency_limit_us,
            objects: 10_000,
            object_size: 4 * KIB,
            zipf_s: 0.0,
            mix: OpMix {
                get: 0.505,
                get_range: 0.05,
                put: 0.40,
                delete: 0.04,
                list: 0.005,
            },
            arrivals: ArrivalPattern::Uniform { ops_per_sec: 100.0 },
        }],
        events: vec![],
        tick_every_us: 0,
        frontend: FrontendConfig::default(),
        cache_capacity: ByteSize::from_bytes(CACHE_BYTES),
        prepopulate: true,
    };
    let (tenants, objects, ops) = from_traffic(&spec);
    Workload {
        name: "cold_small",
        latency_limit_us,
        deterministic: true,
        providers: latency_catalog(mix(seed)),
        frontend: FrontendConfig {
            lanes: 8,
            ..FrontendConfig::default()
        },
        tenants,
        objects,
        sentinels: sentinels(seed, &[1_000, 4 * KIB + 5, 64 * KIB + 9]),
        ops,
        events: vec![],
    }
}

/// **large_stream** — six objects of 8–28 MiB (all above the 2 MiB
/// streaming threshold, so each is cut into 512 KiB stripes), each put once
/// and read back whole once, plus 1 000 reads of 64 KiB byte ranges. Range
/// gets are the majority of ops, so the p99 has more than ten samples
/// beyond it.
///
/// * Loads: bytes, not ops — MD5 over the object and every chunk, GF(256)
///   encode and decode, stripe-pipeline overlap on the pool, chunk fan-out,
///   and fetching only the covering stripe for a range.
/// * Bypasses: the working set (~110 MiB) is far larger than the cache,
///   and per-op admission, metadata and placement costs are negligible
///   next to the payload work.
fn large_stream(seed: u64) -> Workload {
    const OBJECTS: usize = 6;
    const RANGE_GETS: usize = 1_000;
    const RANGE_LEN: u64 = 64 * KIB;
    let mut rng = Rng::new(seed, 0x1a9e);
    // A fixed ladder of sizes (8..=28 MiB) in a seeded order, each with a
    // seeded odd tail so no object is stripe-aligned.
    let mut ladder: Vec<u64> = (0..OBJECTS as u64).map(|i| (8 + 4 * i) * MIB).collect();
    rng.shuffle(&mut ladder);
    let tenant = Tenant {
        name: "media".into(),
        weight: 1,
        sla_us: 0,
    };
    let objects: Vec<Object> = ladder
        .iter()
        .enumerate()
        .map(|(i, &base)| Object {
            tenant: 0,
            key: ObjectKey::new("media", format!("video{i:02}.bin")),
            size: base + 1 + rng.below(64 * KIB),
            fill: (rng.below(250) + 1) as u8,
            mime: "video/mp4".into(),
        })
        .collect();

    // Every object is put once and read whole once, so each seed's
    // whole-object ops cover the same size ladder; range reads pick a
    // seeded object and offset.
    let mut plan: Vec<(u8, usize)> = (0..OBJECTS)
        .flat_map(|i| [(0u8, i), (1u8, i)])
        .chain((0..RANGE_GETS).map(|_| (2u8, OBJECTS)))
        .collect();
    rng.shuffle(&mut plan);
    // One op every 50 ms of virtual time: an open loop slow enough that the
    // two lanes rarely queue behind a 28 MiB transfer.
    let ops = plan
        .into_iter()
        .enumerate()
        .map(|(i, (kind, target))| {
            let target = if target < OBJECTS {
                target
            } else {
                rng.below(OBJECTS as u64) as usize
            };
            let obj = &objects[target];
            let key = obj.key.clone();
            let op = match kind {
                0 => S3Op::Put {
                    key,
                    size: obj.size,
                    fill: (rng.below(250) + 1) as u8,
                    mime: obj.mime.clone(),
                },
                1 => S3Op::Get { key },
                _ => S3Op::GetRange {
                    key,
                    offset: rng.below(obj.size - RANGE_LEN),
                    len: RANGE_LEN,
                },
            };
            Op {
                at_us: i as u64 * 50_000,
                tenant: 0,
                op,
            }
        })
        .collect();
    Workload {
        name: "large_stream",
        latency_limit_us: 2 * SECOND_US,
        deterministic: true,
        providers: latency_catalog(mix(seed)),
        frontend: FrontendConfig {
            lanes: 2,
            ..FrontendConfig::default()
        },
        tenants: vec![tenant],
        objects,
        sentinels: sentinels(seed, &[3 * MIB + 12_345, 100 * KIB + 7]),
        ops,
        events: vec![],
    }
}

/// The paper's five providers plus six synthetic ones whose storage and
/// egress prices are anti-correlated (cheap to store ⇒ dear to read and
/// vice versa), so no provider dominates another (ROADMAP item 3). Eleven
/// providers keep one optimiser cycle in the tens of milliseconds.
fn adaptive_catalog(seed: u64) -> Vec<ProviderDescriptor> {
    let mut rng = Rng::new(CATALOG_SEED, 0xca7);
    let mut providers = latency_catalog(mix(seed));
    let zones = [Zone::EU, Zone::US, Zone::APAC];
    for i in 0..6u64 {
        // t in (0, 1): 0 = archive-like (cheap storage, dear egress),
        // 1 = CDN-like (dear storage, cheap egress).
        let t = (i as f64 + 0.25 + 0.5 * rng.unit()) / 6.0;
        let storage = 0.05 + 0.12 * t;
        let egress = 0.20 - 0.14 * t;
        let durability = [99.999, 99.9999, 99.99999][rng.below(3) as usize];
        let zone = zones[rng.below(3) as usize];
        let descriptor = ProviderDescriptor::public(
            ProviderId::new(0),
            format!("Syn{i}"),
            "synthetic provider with anti-correlated prices",
            ProviderSla::from_percent(durability, 99.9),
            PricingPolicy::from_dollars(storage, 0.10, egress, 0.01),
            ZoneSet::of(&[zone, Zone::US]),
        )
        .with_latency(LatencyModel::typical(mix(seed).wrapping_add(100 + i)));
        providers.push(descriptor);
    }
    providers
}

/// **adaptive_hours** — the paper's scenario over simulated hours: 2 400
/// objects in 32 classes, hourly demand per class with slashdot-style
/// spikes and decays over a diurnal base, one tick and one optimiser cycle
/// per simulated hour, a price drop at one third of the run and a provider
/// outage with active repair at two thirds.
///
/// * Loads: the control plane — log flush and statistics on tick, trend
///   detection, class-centric placement search, migrations and repair.
///   Only here do decisions set `cost_usd`.
/// * Bypasses: per-op data-path costs are small (reads per hour are kept
///   low so the control plane leads), and the objects (1–256 KiB) stay
///   far below the streaming threshold.
///
/// The system classifies objects by MIME type and size rounded up to whole
/// MiB, so every size band here shares one size class: the 32 classes are
/// 32 MIME types, each with its own size band inside 1–256 KiB.
fn adaptive_hours(seed: u64) -> Workload {
    const HOURS: u64 = 24;
    const CLASSES: usize = 32;
    const PER_CLASS: usize = 75;
    const BASE_READS_PER_CLASS_HOUR: f64 = 2.0;
    const SPIKE_GAIN: f64 = 10.0;
    let mut rng = Rng::new(seed, 0xada9);
    let families = ["image", "video", "audio", "text"];
    let mimes: Vec<String> = (0..CLASSES)
        .map(|c| format!("{}/x-class{c:02}", families[c % families.len()]))
        .collect();
    let mut objects = Vec::with_capacity(CLASSES * PER_CLASS);
    for (c, mime) in mimes.iter().enumerate() {
        // Class c's band: [lo, 2 lo) KiB with lo stepping from 1 to 128 KiB.
        let lo = KIB << (c % 8);
        for i in 0..PER_CLASS {
            objects.push(Object {
                tenant: 0,
                key: ObjectKey::new("assets", format!("c{c:02}-o{i:03}")),
                size: lo + rng.below(lo),
                fill: (rng.below(250) + 1) as u8,
                mime: mime.clone(),
            });
        }
    }

    // Demand: per class and hour, a diurnal base times a spike that jumps
    // ×SPIKE_GAIN at a seeded hour and halves every two hours. Every class
    // spikes once, so seeds differ in when demand moves, not in how much
    // there is; the hourly counts are error-diffused, not sampled.
    let spike_at: Vec<u64> = (0..CLASSES).map(|_| rng.below(HOURS)).collect();
    let mut carry = vec![0.0f64; CLASSES];
    let mut ops = Vec::new();
    for hour in 0..HOURS {
        let diurnal = 1.0 + 0.6 * (std::f64::consts::TAU * hour as f64 / 24.0).sin();
        let mut hour_ops: Vec<(u64, S3Op)> = Vec::new();
        for c in 0..CLASSES {
            let mut rate = BASE_READS_PER_CLASS_HOUR * diurnal;
            if hour >= spike_at[c] {
                let age = (hour - spike_at[c]) as f64;
                rate *= 1.0 + SPIKE_GAIN * 0.5f64.powf(age / 2.0);
            }
            carry[c] += rate;
            let reads = carry[c].floor();
            carry[c] -= reads;
            for _ in 0..reads as u64 {
                // Reads concentrate on the first objects of a class.
                let i = ((rng.unit().powi(2)) * PER_CLASS as f64) as usize;
                let obj = &objects[c * PER_CLASS + i.min(PER_CLASS - 1)];
                let at = hour * HOUR_US + 1 + rng.below(HOUR_US - 2);
                hour_ops.push((
                    at,
                    S3Op::Get {
                        key: obj.key.clone(),
                    },
                ));
            }
            // A trickle of overwrites per class.
            if (hour + c as u64).is_multiple_of(4) {
                let obj = &objects[c * PER_CLASS + rng.below(PER_CLASS as u64) as usize];
                let at = hour * HOUR_US + 1 + rng.below(HOUR_US - 2);
                hour_ops.push((
                    at,
                    S3Op::Put {
                        key: obj.key.clone(),
                        size: obj.size,
                        fill: (rng.below(250) + 1) as u8,
                        mime: obj.mime.clone(),
                    },
                ));
            }
        }
        hour_ops.sort_by_key(|&(at, _)| at);
        ops.extend(hour_ops.into_iter().map(|(at_us, op)| Op {
            at_us,
            tenant: 0,
            op,
        }));
    }

    let mut events: Vec<(u64, Event)> = Vec::new();
    for hour in 1..=HOURS {
        events.push((hour * HOUR_US, Event::Tick));
        events.push((hour * HOUR_US, Event::Optimize));
    }
    let victim = 1;
    events.push((HOURS / 3 * HOUR_US + HOUR_US / 2, Event::PriceDrop));
    events.push((2 * HOURS / 3 * HOUR_US + HOUR_US / 2, Event::Down(victim)));
    events.push((
        2 * HOURS / 3 * HOUR_US + HOUR_US / 2 + 1,
        Event::Repair(victim),
    ));
    events.push((
        (2 * HOURS / 3 + 3) * HOUR_US + HOUR_US / 2,
        Event::Up(victim),
    ));
    events.sort_by_key(|&(at, _)| at);

    Workload {
        name: "adaptive_hours",
        latency_limit_us: 250_000,
        deterministic: false,
        providers: adaptive_catalog(seed),
        frontend: FrontendConfig {
            lanes: 4,
            ..FrontendConfig::default()
        },
        tenants: vec![Tenant {
            name: "assets".into(),
            weight: 1,
            sla_us: 250_000,
        }],
        objects,
        sentinels: sentinels(seed, &[3 * KIB + 1, 200 * KIB + 11]),
        ops,
        events,
    }
}

/// Catalog of a workload as a shared [`ProviderCatalog`], plus the
/// registration order of provider ids (what [`Event::Down`] indexes).
pub fn register(
    providers: &[ProviderDescriptor],
) -> (std::sync::Arc<ProviderCatalog>, Vec<ProviderId>) {
    let catalog = ProviderCatalog::shared();
    let ids = providers
        .iter()
        .map(|d| catalog.register(d.clone()))
        .collect();
    (catalog, ids)
}
