//! Object keys, identifiers, metadata and striping metadata.
//!
//! Scalia exposes an S3-like key/value model: objects live in a *container*
//! under a *key*. Internally every write produces a new immutable version
//! identified by a UUID; the metadata row for `(container, key)` maps to the
//! current version(s) (MVCC), and the striping metadata records where each
//! erasure-coded chunk lives (Fig. 11 in the paper).

use crate::ids::ProviderId;
use crate::md5;
use crate::rules::StorageRule;
use crate::size::ByteSize;
use crate::time::SimTime;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The user-visible identity of an object: a container name and a key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey {
    /// Container (bucket) name.
    pub container: String,
    /// Object key within the container.
    pub key: String,
}

impl ObjectKey {
    /// Creates an object key.
    pub fn new(container: impl Into<String>, key: impl Into<String>) -> Self {
        ObjectKey {
            container: container.into(),
            key: key.into(),
        }
    }

    /// The metadata row key, `MD5(container | key)` as in §III-D1.
    pub fn row_key(&self) -> String {
        md5::md5_hex(format!("{}|{}", self.container, self.key).as_bytes())
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.container, self.key)
    }
}

/// A globally unique identifier for one written version of an object.
///
/// The paper uses a UUID so that concurrent updates never collide on the
/// chunk storage keys. The reproduction generates identifiers from a process
/// wide counter mixed with the object row key, which is unique and
/// deterministic across runs (important for reproducible simulations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectVersionId(pub u128);

static VERSION_COUNTER: AtomicU64 = AtomicU64::new(1);

impl ObjectVersionId {
    /// Generates the next unique version id. The `salt` (typically the row
    /// key hash) is mixed in so ids from different objects differ even when
    /// counters align across processes.
    pub fn next(salt: &str) -> Self {
        Self::with_counter(salt, VERSION_COUNTER.fetch_add(1, Ordering::Relaxed))
    }

    /// Builds a version id from an explicit counter draw instead of the
    /// process-global sequence. Callers that own their own counter (e.g. a
    /// cluster allocating versions from its infrastructure) use this so the
    /// ids they mint — and everything derived from them, such as storage
    /// keys — do not depend on how many versions *other* instances in the
    /// same process have allocated.
    pub fn with_counter(salt: &str, counter: u64) -> Self {
        let digest = md5::md5(salt.as_bytes());
        let mut hi = [0u8; 8];
        hi.copy_from_slice(&digest[..8]);
        ObjectVersionId(((u64::from_le_bytes(hi) as u128) << 64) | counter as u128)
    }

    /// Hex representation used in storage keys.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for ObjectVersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Location of one erasure-coded chunk: which provider holds which index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkLocation {
    /// Index of the chunk within the erasure coding (0-based).
    pub index: u32,
    /// Provider that stores the chunk.
    pub provider: ProviderId,
}

/// Placement and length of one stripe of an object.
///
/// Each stripe is erasure-coded independently (its own `m`-of-`n` chunk set,
/// possibly degraded), so the write pipeline can land, repair and range-read
/// stripes without touching the rest of the object.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeMeta {
    /// Chunk locations of this stripe, one per provider in its chosen set.
    pub chunks: Vec<ChunkLocation>,
    /// Reconstruction threshold of this stripe's erasure code.
    pub m: u32,
    /// Plaintext length of the stripe in bytes (only the last stripe may be
    /// shorter than the object's stripe size).
    pub len: u64,
    /// MD5 of the stripe plaintext. A one-stripe object's stripe checksum is
    /// its object checksum.
    pub checksum: String,
    /// Storage key of this stripe's chunks (`.{chunk index}` appended per
    /// chunk). Each landing *attempt* uses a fresh key — a rolled-back
    /// attempt may have postponed chunk deletes on flapping providers, and
    /// the retry must never land a committed chunk where a pending delete
    /// will strike.
    pub skey: String,
}

impl StripeMeta {
    /// Width of the erasure code the chunks must be decoded under: for a
    /// full stripe this is `n`; for a *degraded* stripe (landed with k < n
    /// chunks) the surviving chunks keep their original erasure indices, so
    /// the width is the highest surviving index + 1. Decoding under this
    /// width is exact — the systematic Reed–Solomon encode-matrix row of
    /// chunk `i` depends only on `(i, m)`, never on the total width it was
    /// encoded with.
    pub fn code_width(&self) -> u32 {
        self.chunks
            .iter()
            .map(|c| c.index + 1)
            .max()
            .unwrap_or(0)
            .max(self.chunks.len() as u32)
    }

    /// The providers holding chunks, in chunk-index order.
    pub fn providers(&self) -> Vec<ProviderId> {
        self.chunks.iter().map(|c| c.provider).collect()
    }

    /// The per-provider storage key of chunk `index`.
    pub fn chunk_key(&self, index: u32) -> String {
        format!("{}.{}", self.skey, index)
    }
}

/// Striping metadata of an object version (Fig. 11): the storage key, the
/// reconstruction threshold `m` and where each chunk of each stripe is.
///
/// Every object is a stripe map of one or more stripes. An object written
/// whole is one stripe whose chunks sit at `{skey}.{index}`; an object
/// streamed in stripes stores stripe `i` at `{skey}.s{i}.{index}` (salted
/// `.r{attempt}` on retried landings). Metadata lives only as long as the
/// process that wrote it, so there is no older on-disk shape to read.
#[derive(Debug, Clone, PartialEq)]
pub struct StripingMeta {
    /// Storage key `MD5(container | key | UUID)` of the object version.
    pub skey: String,
    /// Reconstruction threshold of the placement the object was written
    /// with (each stripe carries its own exact `m`).
    pub m: u32,
    /// Nominal stripe size in bytes; every stripe except possibly the last
    /// has exactly this plaintext length.
    pub stripe_size: u64,
    /// Per-stripe metadata, never empty; index `i` covers bytes
    /// `[i * stripe_size, i * stripe_size + stripes[i].len)`.
    pub stripes: Vec<StripeMeta>,
}

impl StripingMeta {
    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Total plaintext length across all stripes.
    pub fn total_len(&self) -> u64 {
        self.stripes.iter().map(|s| s.len).sum()
    }

    /// Byte offset at which stripe `i` starts.
    pub fn stripe_offset(&self, i: usize) -> u64 {
        (i as u64) * self.stripe_size
    }

    /// The half-open range of stripe indices covering object byte range
    /// `[offset, end)`. Empty when the byte range is empty or out of bounds.
    pub fn covering(&self, offset: u64, end: u64) -> std::ops::Range<usize> {
        let end = end.min(self.total_len());
        if offset >= end || self.stripe_size == 0 {
            return 0..0;
        }
        let first = (offset / self.stripe_size) as usize;
        let last = (end.div_ceil(self.stripe_size) as usize).min(self.stripes.len());
        first..last
    }

    /// Every provider storage key referenced by this striping, across all
    /// stripes — the reference set the orphan-chunk GC must preserve.
    pub fn all_chunk_keys(&self) -> Vec<String> {
        self.stripes
            .iter()
            .flat_map(|s| s.chunks.iter().map(|c| s.chunk_key(c.index)))
            .collect()
    }

    /// The distinct providers referenced anywhere in this striping, sorted.
    pub fn provider_set(&self) -> Vec<ProviderId> {
        let mut providers: Vec<ProviderId> = self
            .stripes
            .iter()
            .flat_map(|s| s.chunks.iter().map(|c| c.provider))
            .collect();
        providers.sort();
        providers.dedup();
        providers
    }

    /// Computes the storage key for an object version, as in §III-D1:
    /// `skey = MD5(container | key | UUID)`.
    pub fn storage_key(key: &ObjectKey, version: ObjectVersionId) -> String {
        md5::md5_hex(format!("{}|{}|{}", key.container, key.key, version.to_hex()).as_bytes())
    }
}

/// File-level metadata of an object version (Fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// The user-visible key.
    pub key: ObjectKey,
    /// Version id of this write.
    pub version: ObjectVersionId,
    /// MIME type supplied by the writer (used for classification).
    pub mime: String,
    /// Object size in bytes.
    pub size: ByteSize,
    /// MD5 checksum of the object contents.
    pub checksum: String,
    /// Storage rule (policy) applied to the object.
    pub rule: StorageRule,
    /// Time the version was written.
    pub written_at: SimTime,
    /// Optional time-to-live hint provided by the writer (§III-A, lifetime
    /// indication "provided by the end user at write time").
    pub ttl_hint_hours: Option<f64>,
    /// Striping metadata describing where the chunks live.
    pub striping: StripingMeta,
}

impl ObjectMeta {
    /// The metadata row key of the object.
    pub fn row_key(&self) -> String {
        self.key.row_key()
    }
}

/// The durability debt of a degraded write: `have` of the `want` chunks it
/// set out to store landed. Committed next to the metadata version it
/// belongs to; a later full-width commit settles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityDebt {
    /// Chunks that landed.
    pub have: u64,
    /// Chunks the placement called for.
    pub want: u64,
}

/// One entry of the persistent repair queue: an object that needs its
/// durability restored, with its retry state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairQueueEntry {
    /// The object needing repair.
    pub key: ObjectKey,
    /// Why it was queued (`"provider-outage"`, `"degraded-write"`, …).
    pub reason: String,
    /// Failed attempts so far.
    pub attempts: u32,
    /// Simulation second before which the entry must not be retried.
    pub not_before_secs: u64,
    /// Dead-lettered: no longer retried, surfaced in every drain report.
    pub dead: bool,
}

impl RepairQueueEntry {
    /// A fresh entry: no failed attempts, due immediately.
    pub fn new(key: ObjectKey, reason: impl Into<String>) -> Self {
        RepairQueueEntry {
            key,
            reason: reason.into(),
            attempts: 0,
            not_before_secs: 0,
            dead: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_key_is_md5_of_container_and_key() {
        let k = ObjectKey::new("pictures", "myvacation.gif");
        assert_eq!(k.row_key(), md5::md5_hex(b"pictures|myvacation.gif"));
        assert_eq!(k.row_key().len(), 32);
        // Deterministic.
        assert_eq!(
            k.row_key(),
            ObjectKey::new("pictures", "myvacation.gif").row_key()
        );
        // Different keys yield different rows.
        assert_ne!(
            k.row_key(),
            ObjectKey::new("pictures", "other.gif").row_key()
        );
    }

    #[test]
    fn version_ids_are_unique() {
        let a = ObjectVersionId::next("row");
        let b = ObjectVersionId::next("row");
        let c = ObjectVersionId::next("other-row");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_hex().len(), 32);
    }

    fn loc(index: u32, provider: u32) -> ChunkLocation {
        ChunkLocation {
            index,
            provider: ProviderId::new(provider),
        }
    }

    #[test]
    fn striping_meta_accessors() {
        let key = ObjectKey::new("c", "k");
        let version = ObjectVersionId::next(&key.row_key());
        let skey = StripingMeta::storage_key(&key, version);
        let stripe = StripeMeta {
            chunks: vec![loc(0, 2), loc(1, 5), loc(2, 7)],
            m: 2,
            len: 10,
            checksum: "c".to_string(),
            skey: skey.clone(),
        };
        let meta = StripingMeta {
            skey: skey.clone(),
            m: 2,
            stripe_size: 10,
            stripes: vec![stripe],
        };
        assert_eq!(meta.stripes[0].chunks.len(), 3);
        assert_eq!(
            meta.stripes[0].providers(),
            vec![ProviderId::new(2), ProviderId::new(5), ProviderId::new(7)]
        );
        assert_eq!(meta.stripes[0].chunk_key(1), format!("{skey}.1"));
        assert_eq!(meta.stripe_count(), 1);
        assert_eq!(
            meta.all_chunk_keys(),
            vec![
                format!("{skey}.0"),
                format!("{skey}.1"),
                format!("{skey}.2")
            ]
        );
        assert_eq!(
            meta.provider_set(),
            vec![ProviderId::new(2), ProviderId::new(5), ProviderId::new(7)]
        );
    }

    fn sample_striped() -> StripingMeta {
        StripingMeta {
            skey: "abc123".to_string(),
            m: 2,
            stripe_size: 100,
            stripes: vec![
                StripeMeta {
                    chunks: vec![loc(0, 1), loc(1, 2), loc(2, 3)],
                    m: 2,
                    len: 100,
                    checksum: "c0".to_string(),
                    skey: "abc123.s0".to_string(),
                },
                StripeMeta {
                    // Degraded stripe: chunk 1 missing, original indices
                    // kept; landed on a salted retry skey.
                    chunks: vec![loc(0, 4), loc(2, 5)],
                    m: 2,
                    len: 40,
                    checksum: "c1".to_string(),
                    skey: "abc123.s1.r1".to_string(),
                },
            ],
        }
    }

    #[test]
    fn striped_meta_views_and_keys() {
        let meta = sample_striped();
        assert_eq!(meta.stripe_count(), 2);

        let s0 = &meta.stripes[0];
        assert_eq!(s0.skey, "abc123.s0");
        assert_eq!(s0.m, 2);
        assert_eq!(s0.chunk_key(1), "abc123.s0.1");
        assert_eq!(s0.code_width(), 3);

        let s1 = &meta.stripes[1];
        assert_eq!(s1.chunks.len(), 2);
        // Degraded stripe decodes under the original width, and its chunk
        // keys come from the salted per-stripe skey it landed under.
        assert_eq!(s1.code_width(), 3);
        assert_eq!(s1.chunk_key(2), "abc123.s1.r1.2");

        assert_eq!(
            meta.all_chunk_keys(),
            vec![
                "abc123.s0.0",
                "abc123.s0.1",
                "abc123.s0.2",
                "abc123.s1.r1.0",
                "abc123.s1.r1.2"
            ]
        );
        assert_eq!(
            meta.provider_set(),
            (1..=5).map(ProviderId::new).collect::<Vec<_>>()
        );

        assert_eq!(meta.total_len(), 140);
        assert_eq!(meta.stripe_offset(1), 100);
        assert_eq!(meta.covering(0, 140), 0..2);
        assert_eq!(meta.covering(0, 100), 0..1);
        assert_eq!(meta.covering(99, 101), 0..2);
        assert_eq!(meta.covering(100, 140), 1..2);
        assert_eq!(meta.covering(140, 200), 0..0);
        assert_eq!(meta.covering(50, 50), 0..0);
    }

    #[test]
    fn storage_key_depends_on_version() {
        let key = ObjectKey::new("c", "k");
        let v1 = ObjectVersionId::next(&key.row_key());
        let v2 = ObjectVersionId::next(&key.row_key());
        assert_ne!(
            StripingMeta::storage_key(&key, v1),
            StripingMeta::storage_key(&key, v2)
        );
    }

    #[test]
    fn object_key_display() {
        assert_eq!(
            ObjectKey::new("pictures", "a.gif").to_string(),
            "pictures/a.gif"
        );
    }
}
