//! The write pipeline — one landing ladder for every object — plus range
//! reads and the multipart/append API.
//!
//! Every object is a stripe map ([`StripingMeta`]) of one or more stripes,
//! and every stripe of every write lands through one ladder
//! (`Ladder::land`):
//!
//! * **One-stripe put** — [`Engine::put`] of a payload at or below the
//!   streaming threshold
//!   ([`crate::infra::Infrastructure::streaming_threshold_bytes`]), and a
//!   multipart upload that never filled a stripe, encode the payload as a
//!   single stripe and land it.
//! * **Streaming put** — larger payloads are fed through a
//!   [`MultipartUpload`] one fixed-size stripe at a time
//!   ([`crate::infra::Infrastructure::stripe_size_bytes`]). The pipeline is
//!   staged: stripe `k + 1` is *encoded* while stripe `k`'s chunks are *in
//!   flight* ([`rayon::join`] overlaps the CPU-bound encode with the
//!   provider-bound upload), so peak transient buffering is O(stripe), never
//!   O(object). The object checksum accumulates through an incremental MD5
//!   ([`scalia_types::md5::Md5`]).
//! * **Multipart / append** — [`Engine::begin_put`], [`MultipartUpload::put_part`]
//!   and [`MultipartUpload::complete_put`] expose the same pipeline to
//!   callers that produce data incrementally. Parts may be any size; stripes
//!   seal whenever a stripe's worth of bytes has accumulated. Every put
//!   commits in **one** metastore transaction
//!   ([`Engine::commit_metadata_with_debt`]) under the row commit lock, so a
//!   crash anywhere before the commit leaves the previous object version
//!   fully intact and at most some orphaned chunks for
//!   [`crate::gc::sweep_orphan_chunks`].
//! * **Migration** — [`Engine::replace_placement`] moves an object stripe by
//!   stripe, so a migration's resident working set is O(stripe) too.
//! * **Range reads** — [`Engine::get_range`] serves `[offset, offset+len)`
//!   by fetching only the covering stripes (each still a hedged
//!   `m`-of-`n` race over the cheapest providers), via
//!   [`crate::chunk_io::fetch_range`].
//!
//! # The landing ladder
//!
//! A stripe lands by parallel upload with abort-on-first-failure and
//! rollback, bounded re-placement (capped by
//! [`crate::engine::WRITE_ATTEMPTS`]) excluding the failed provider, and —
//! once re-placement is exhausted — a *degraded* tolerant landing accepted
//! iff `k ≥ m` chunks survive **and** the surviving providers still clear
//! the rule's availability floor. Degraded stripes accumulate into one
//! durability debt recorded (with its repair-queue entry) atomically with
//! the commit; the repair path migrates the object and its full-width
//! commit settles the debt.
//!
//! # Chunk keys
//!
//! Each landing *attempt* uses a fresh storage key: a failed attempt's
//! rollback may have postponed a chunk delete on a provider that flapped
//! down mid-rollback, and that delete fires unconditionally on recovery — a
//! retry reusing the same keys could land a committed chunk exactly where
//! the pending delete will strike. `KeyScheme` names the attempts: a
//! one-stripe object mints a fresh version per attempt, a multi-stripe
//! object salts its per-stripe key. The committed key is recorded per
//! stripe in [`StripeMeta::skey`].

use crate::chunk_io::{self, HedgeConfig};
use crate::engine::{Engine, WRITE_ATTEMPTS};
use bytes::Bytes;
use scalia_core::availability::get_availability;
use scalia_core::classify::ObjectClass;
use scalia_core::cost::PredictedUsage;
use scalia_core::placement::Placement;
use scalia_erasure::codec::{decode_object, encode_object, EncodedObject};
use scalia_metastore::logagg::AccessKind;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::ProviderId;
use scalia_types::md5::{md5_hex, Md5};
use scalia_types::object::{
    ChunkLocation, ObjectKey, ObjectMeta, ObjectVersionId, StripeMeta, StripingMeta,
};
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use std::borrow::Borrow;
use std::sync::Arc;

/// Bound on metadata re-reads when a range read races MVCC garbage
/// collection (mirrors the retry bound of [`Engine::get`]).
const RANGE_READ_ATTEMPTS: usize = 3;

/// One encoded-but-not-yet-landed stripe held by the pipeline. Holds only
/// the *encoded* chunks — the plaintext is recoverable from the systematic
/// data shards ([`decode_object`]) on the rare retry that needs to
/// re-encode for a different placement, so the pipeline never holds both
/// representations at once.
struct EncodedStripe {
    /// Stripe index within the object.
    index: usize,
    /// The placement this stripe is encoded for.
    placement: Placement,
    /// The encoded chunks.
    encoded: EncodedObject,
    /// Plaintext length of the stripe.
    len: u64,
    /// MD5 of the stripe plaintext.
    checksum: String,
}

impl EncodedStripe {
    /// The record of this stripe once `chunks` landed under `skey`.
    fn landed(&self, chunks: Vec<ChunkLocation>, skey: String) -> StripeMeta {
        StripeMeta {
            chunks,
            m: self.placement.m,
            len: self.len,
            checksum: self.checksum.clone(),
            skey,
        }
    }
}

/// A stripe at its providers: its record, the version it landed under, and
/// its landed / wanted chunk counts for debt accounting.
struct Landed {
    stripe: StripeMeta,
    version: ObjectVersionId,
    have: u64,
    want: u64,
}

/// How the landing attempts of one object name their storage keys (see the
/// module docs on why every attempt needs a fresh key). Key naming is where
/// a one-stripe object differs from a multi-stripe one on the write side.
#[derive(Clone, Copy)]
enum KeyScheme<'a> {
    /// A one-stripe object: every attempt, the degraded one included, mints
    /// a fresh version and stores chunk `j` at
    /// `{MD5(container|key|version)}.{j}`.
    OneStripe,
    /// Stripe `i` of a multi-stripe object stored under one version: chunk
    /// `j` at `{base}.s{i}.{j}`, salted `{base}.s{i}.r{attempt}.{j}` on
    /// retries.
    Striped {
        version: ObjectVersionId,
        base: &'a str,
    },
}

impl KeyScheme<'_> {
    /// Names attempt `attempt` of stripe `stripe`: the version it lands
    /// under and the storage key of its chunks.
    fn name(
        self,
        engine: &Engine,
        key: &ObjectKey,
        stripe: usize,
        attempt: usize,
    ) -> (ObjectVersionId, String) {
        match self {
            KeyScheme::OneStripe => {
                let version = engine.infra().next_version(&key.row_key());
                (version, StripingMeta::storage_key(key, version))
            }
            KeyScheme::Striped { version, base } if attempt == 0 => {
                (version, format!("{base}.s{stripe}"))
            }
            KeyScheme::Striped { version, base } => {
                (version, format!("{base}.s{stripe}.r{attempt}"))
            }
        }
    }
}

/// The stripe map of an object version stored under `skey`.
fn stripe_map(skey: String, stripe_size: u64, stripes: Vec<StripeMeta>) -> StripingMeta {
    StripingMeta {
        skey,
        m: stripes.first().map_or(1, |s| s.m),
        stripe_size,
        stripes,
    }
}

/// `true` for errors produced by [`crate::infra::Infrastructure::crash_point`]:
/// an injected crash must propagate *without* cleanup (a real crash would
/// not run it) so chaos tests observe genuine crash debris.
fn is_injected_crash(err: &ScaliaError) -> bool {
    matches!(err, ScaliaError::Internal(msg) if msg.starts_with("crash injected"))
}

/// An in-progress streaming upload (see the module docs).
///
/// Obtain one with [`Engine::begin_put`], feed it with
/// [`MultipartUpload::put_part`] and finish with
/// [`MultipartUpload::complete_put`] (or discard it with
/// [`MultipartUpload::abort_put`]). Nothing is visible to readers until
/// `complete_put` commits; an upload dropped without completing leaves at
/// most orphaned chunks for the GC sweep, never a torn object.
///
/// The upload is generic over how it holds its engine: [`Engine::begin_put`]
/// borrows (`MultipartUpload<&Engine>`, the ergonomic default for inline
/// call sites), while [`Engine::begin_put_shared`] clones an [`Arc`] so the
/// upload can outlive the borrow — the front-end's upload-id registry keeps
/// sessions alive across requests this way.
pub struct MultipartUpload<E: Borrow<Engine> = Arc<Engine>> {
    engine: E,
    key: ObjectKey,
    mime: String,
    rule: StorageRule,
    ttl_hint_hours: Option<f64>,
    /// Class and usage fixed at `begin_put` (from the size hint when given):
    /// every stripe prices its placement identically.
    class: ObjectClass,
    usage: PredictedUsage,
    /// Version allocated up front; all stripe keys derive from it.
    version: ObjectVersionId,
    base_skey: String,
    stripe_size: usize,
    /// Plaintext bytes not yet sealed into a stripe (< `stripe_size`).
    buffer: Vec<u8>,
    /// Incremental whole-object checksum.
    md5: Md5,
    total_len: u64,
    /// Stripes already landed at providers, in index order.
    stripes: Vec<StripeMeta>,
    /// The placement the previous stripe sealed with — the fallback when the
    /// placement search turns infeasible mid-stream (e.g. the failure
    /// detector dropped a provider after earlier stripes landed degraded):
    /// later stripes keep targeting the original set and let the tolerant
    /// landing decide.
    last_placement: Option<Placement>,
    /// The encoded stripe whose upload overlaps the next seal.
    in_hand: Option<EncodedStripe>,
    sealed: usize,
    /// Chunks landed / wanted across all stripes; a shortfall becomes one
    /// durability debt at commit.
    have_total: u64,
    want_total: u64,
    peak_buffer_bytes: usize,
    failed: bool,
}

impl Engine {
    /// Starts a multipart upload (see [`crate::streaming`]). Parts fed via
    /// [`MultipartUpload::put_part`] may be any size; nothing becomes
    /// visible until [`MultipartUpload::complete_put`].
    pub fn begin_put(
        &self,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
    ) -> MultipartUpload<&Engine> {
        self.begin_put_with_hint(key, mime, rule, ttl_hint_hours, None)
    }

    /// [`Engine::begin_put`] with an expected total size. The hint only
    /// sharpens the class/usage prediction the per-stripe placement search
    /// prices with — the upload accepts any actual length.
    pub fn begin_put_with_hint(
        &self,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
        size_hint: Option<ByteSize>,
    ) -> MultipartUpload<&Engine> {
        Engine::multipart(self, key, mime, rule, ttl_hint_hours, size_hint)
    }

    /// [`Engine::begin_put_with_hint`] holding the engine by [`Arc`]: the
    /// returned upload is `'static`, so it can live in a session registry
    /// (the front-end keeps one per client upload id) instead of being
    /// confined to the borrow of a single call frame.
    pub fn begin_put_shared(
        self: &Arc<Self>,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
        size_hint: Option<ByteSize>,
    ) -> MultipartUpload {
        Engine::multipart(Arc::clone(self), key, mime, rule, ttl_hint_hours, size_hint)
    }

    /// Shared constructor behind both `begin_put` flavours.
    fn multipart<E: Borrow<Engine>>(
        engine: E,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
        size_hint: Option<ByteSize>,
    ) -> MultipartUpload<E> {
        let this = engine.borrow();
        let stripe_size = this.infra().stripe_size_bytes().max(1) as usize;
        let hint = size_hint.unwrap_or(ByteSize::from_bytes(stripe_size as u64));
        let class = ObjectClass::of(mime, hint);
        let usage = this.predict_usage(&class, hint, ttl_hint_hours);
        let version = this.infra().next_version(&key.row_key());
        let base_skey = StripingMeta::storage_key(key, version);
        MultipartUpload {
            engine,
            key: key.clone(),
            mime: mime.to_string(),
            rule,
            ttl_hint_hours,
            class,
            usage,
            version,
            base_skey,
            stripe_size,
            buffer: Vec::new(),
            md5: Md5::new(),
            total_len: 0,
            stripes: Vec::new(),
            last_placement: None,
            in_hand: None,
            sealed: 0,
            have_total: 0,
            want_total: 0,
            peak_buffer_bytes: 0,
            failed: false,
        }
    }

    /// The streaming write path [`Engine::put`] routes large payloads
    /// through: feeds the payload stripe by stripe into a multipart upload,
    /// so the *pipeline's* transient buffering (plaintext + encoded) stays
    /// O(stripe) regardless of object size. The object checksum is the
    /// whole-payload MD5.
    pub(crate) fn put_streaming(
        &self,
        key: &ObjectKey,
        data: Bytes,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
    ) -> Result<ObjectMeta> {
        let size_hint = ByteSize::from_bytes(data.len() as u64);
        let mut upload = self.begin_put_with_hint(key, mime, rule, ttl_hint_hours, Some(size_hint));
        let step = upload.stripe_size();
        let mut offset = 0usize;
        while offset < data.len() {
            let end = (offset + step).min(data.len());
            if let Err(err) = upload.put_part(&data[offset..end]) {
                // Roll back the landed stripes — except after an injected
                // crash, whose debris must stay for the GC sweep exactly as a
                // real crash would leave it.
                if !is_injected_crash(&err) {
                    upload.abort_put();
                }
                return Err(err);
            }
            offset = end;
        }
        upload.complete_put()
    }

    /// Reads the byte range `[offset, offset + len)` of an object, fetching
    /// only the covering stripes (each a hedged `m`-of-`n` race, a partial
    /// stripe decoded through the systematic range fast path). The result
    /// equals `get(key)[offset..offset+len]` clamped to the object's end; an
    /// empty or past-EOF range yields empty bytes. A cached object is sliced
    /// in memory without provider traffic.
    pub fn get_range(&self, key: &ObjectKey, offset: u64, len: u64) -> Result<Bytes> {
        let row_key = key.row_key();
        if let Some(data) = self.local_cache().get(&row_key) {
            let size = data.len() as u64;
            let end = offset.saturating_add(len).min(size);
            let slice = if offset >= end {
                Bytes::new()
            } else {
                Bytes::copy_from_slice(&data[offset as usize..end as usize])
            };
            self.log_access(
                key,
                AccessKind::Read,
                ByteSize::from_bytes(slice.len() as u64),
                ByteSize::from_bytes(size),
            );
            return Ok(slice);
        }

        // Same MVCC race handling as `Engine::get`: a concurrent overwrite
        // may prune the version whose chunks are in flight; re-read the
        // metadata and retry, bounded. Partial payloads never populate the
        // cache — only full reads do.
        let mut last_err = ScaliaError::ObjectNotFound(key.clone());
        for _ in 0..RANGE_READ_ATTEMPTS {
            let meta = self.read_metadata(key)?;
            match chunk_io::fetch_range(self.infra(), &meta, offset, len, &HedgeConfig::default()) {
                Ok(bytes) => {
                    self.log_access(
                        key,
                        AccessKind::Read,
                        ByteSize::from_bytes(bytes.len() as u64),
                        meta.size,
                    );
                    return Ok(bytes);
                }
                Err(err @ (ScaliaError::NotEnoughChunks { .. } | ScaliaError::DecodeFailed(_))) => {
                    last_err = err;
                }
                Err(err) => return Err(err),
            }
        }
        Err(last_err)
    }

    /// Lands `data` as a one-stripe object and commits it: the write path
    /// of a plain [`Engine::put`] at or below the streaming threshold and of
    /// a multipart upload that never filled a stripe. `checksum` is the MD5
    /// of `data`, which is both the object and the stripe checksum.
    pub(crate) fn put_one_stripe(
        &self,
        key: &ObjectKey,
        data: &[u8],
        checksum: String,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
    ) -> Result<ObjectMeta> {
        let size = ByteSize::from_bytes(data.len() as u64);
        let class = ObjectClass::of(mime, size);
        let usage = self.predict_usage(&class, size, ttl_hint_hours);
        let placement = self.place_excluding(&rule, &class, &usage, &[])?;
        let encoded = encode_object(data, placement.erasure_params())?;
        let ladder = Ladder {
            engine: self,
            key,
            rule: &rule,
            class: &class,
            usage: &usage,
            keys: KeyScheme::OneStripe,
        };
        let landed = ladder.land(EncodedStripe {
            index: 0,
            placement,
            encoded,
            len: size.bytes(),
            checksum: checksum.clone(),
        })?;
        let meta = ObjectMeta {
            key: key.clone(),
            version: landed.version,
            mime: mime.to_string(),
            size,
            checksum,
            rule,
            written_at: self.infra().now(),
            ttl_hint_hours,
            striping: stripe_map(
                landed.stripe.skey.clone(),
                size.bytes(),
                vec![landed.stripe],
            ),
        };
        self.commit_put(&meta, landed.have, landed.want)?;
        Ok(meta)
    }

    /// Moves an object to a new placement stripe by stripe: each stripe is
    /// fetched (hedged), re-encoded for the new `(m, n)` and uploaded under
    /// fresh keys, so the resident working set stays O(stripe). There is no
    /// re-placement on failure — the caller chose this placement
    /// deliberately; a failed provider fails the migration (the optimiser
    /// retries the object next cycle) after the stripes already landed are
    /// rolled back. Returns the new metadata.
    ///
    /// The commit is **conditional** (`Engine::commit_replacement`): the
    /// re-coded payload is only valid for the version that was read, so if
    /// a client write (or another migration) committed a newer version in
    /// the meantime, the new chunks are rolled back and
    /// [`ScaliaError::Conflict`] is returned. Being full-width, the commit
    /// settles any degraded-write debt atomically.
    pub fn replace_placement(
        &self,
        key: &ObjectKey,
        new_placement: &Placement,
    ) -> Result<ObjectMeta> {
        let old_meta = self.read_metadata(key)?;
        let old = &old_meta.striping;
        let config = HedgeConfig::default();
        let params = new_placement.erasure_params();
        // A multi-stripe object's stripes all land under one version, minted
        // before the first stripe moves.
        let striped = (old.stripes.len() > 1).then(|| {
            let version = self.infra().next_version(&key.row_key());
            (version, StripingMeta::storage_key(key, version))
        });
        let keys = match &striped {
            Some((version, base)) => KeyScheme::Striped {
                version: *version,
                base,
            },
            None => KeyScheme::OneStripe,
        };

        let mut version = None;
        let mut new_stripes: Vec<StripeMeta> = Vec::with_capacity(old.stripes.len());
        let moved = old
            .stripes
            .iter()
            .enumerate()
            .try_for_each(|(i, old_stripe)| {
                let plain = chunk_io::fetch_stripe(self.infra(), old, i, &config)?;
                let encoded = encode_object(&plain, params)?;
                let (landed_version, skey) = keys.name(self, key, i, 0);
                let chunks = chunk_io::upload_encoded(
                    self.infra(),
                    new_placement,
                    &skey,
                    &encoded,
                    &config,
                )?;
                version = Some(landed_version);
                new_stripes.push(StripeMeta {
                    chunks,
                    m: new_placement.m,
                    len: old_stripe.len,
                    // The plaintext is unchanged.
                    checksum: old_stripe.checksum.clone(),
                    skey,
                });
                Ok::<_, ScaliaError>(())
            });
        if let Err(err) = moved {
            // Roll back the stripes that already landed on the new
            // placement; the old version is untouched.
            chunk_io::delete_chunks(self.infra(), &new_stripes);
            return Err(err);
        }
        let Some(version) = version else {
            return Err(ScaliaError::Internal(format!("{key} has no stripes")));
        };
        let new_meta = ObjectMeta {
            version,
            striping: stripe_map(
                StripingMeta::storage_key(key, version),
                old.stripe_size,
                new_stripes,
            ),
            ..ObjectMeta::clone(&old_meta)
        };
        self.commit_replacement(key, old_meta.version, &new_meta)?;
        Ok(new_meta)
    }
}

impl<E: Borrow<Engine>> MultipartUpload<E> {
    /// The engine this upload writes through.
    fn engine(&self) -> &Engine {
        self.engine.borrow()
    }

    /// The stripe size this upload seals at, in bytes (snapshotted at
    /// [`Engine::begin_put`]).
    pub fn stripe_size(&self) -> usize {
        self.stripe_size
    }

    /// Total bytes appended so far.
    pub fn bytes_appended(&self) -> u64 {
        self.total_len
    }

    /// High-water mark of the pipeline's transient buffering: unsealed
    /// plaintext + the held encoded stripe + the seal in progress. O(stripe)
    /// by construction — the streaming bench asserts it.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer_bytes
    }

    /// Appends bytes to the object. Whenever a full stripe's worth has
    /// accumulated the stripe seals: its plaintext leaves the buffer, is
    /// encoded, and the *previously* encoded stripe's chunks are uploaded
    /// concurrently with the encode (the staged pipeline). An error means
    /// the upload is failed — [`MultipartUpload::complete_put`] will refuse;
    /// call [`MultipartUpload::abort_put`] to reclaim landed chunks (or
    /// drop the upload and let the GC sweep collect them).
    pub fn put_part(&mut self, part: &[u8]) -> Result<()> {
        if self.failed {
            return Err(ScaliaError::Internal(
                "multipart upload already failed".into(),
            ));
        }
        self.md5.update(part);
        self.total_len += part.len() as u64;
        self.buffer.extend_from_slice(part);
        self.note_buffered(0);
        while self.buffer.len() >= self.stripe_size {
            let plain: Vec<u8> = self.buffer.drain(..self.stripe_size).collect();
            if let Err(err) = self.seal_stripe(plain) {
                self.failed = true;
                return Err(err);
            }
        }
        Ok(())
    }

    /// Lands the tail, commits the assembled stripe map in one metastore
    /// transaction and returns the new metadata. An upload whose payload
    /// never filled a single stripe lands as a one-stripe object — its
    /// on-provider layout is exactly that of a plain [`Engine::put`] of the
    /// same bytes.
    pub fn complete_put(mut self) -> Result<ObjectMeta> {
        if self.failed {
            return Err(ScaliaError::Internal(
                "multipart upload already failed".into(),
            ));
        }
        if self.stripes.is_empty() && self.in_hand.is_none() {
            // Nothing sealed, nothing uploaded: the payload is one stripe.
            // `put_one_stripe`, not `put` — re-routing could recurse when
            // the stripe size exceeds the threshold.
            let data = std::mem::take(&mut self.buffer);
            return self.engine().put_one_stripe(
                &self.key,
                &data,
                self.md5.clone().finalize_hex(),
                &self.mime,
                self.rule.clone(),
                self.ttl_hint_hours,
            );
        }

        // Seal the tail (a short final stripe), then land the stripe still
        // in hand. Both go through the same pipeline step.
        let result = (|| -> Result<()> {
            let tail = std::mem::take(&mut self.buffer);
            if !tail.is_empty() {
                self.seal_stripe(tail)?;
            }
            if let Some(last) = self.in_hand.take() {
                self.land(last)?;
            }
            Ok(())
        })();
        if let Err(err) = result {
            self.failed = true;
            return Err(err);
        }

        let size = ByteSize::from_bytes(self.total_len);
        let meta = ObjectMeta {
            key: self.key.clone(),
            version: self.version,
            mime: self.mime.clone(),
            size,
            checksum: self.md5.clone().finalize_hex(),
            rule: self.rule.clone(),
            written_at: self.engine().infra().now(),
            ttl_hint_hours: self.ttl_hint_hours,
            striping: stripe_map(
                self.base_skey.clone(),
                self.stripe_size as u64,
                std::mem::take(&mut self.stripes),
            ),
        };
        self.engine()
            .commit_put(&meta, self.have_total, self.want_total)?;
        Ok(meta)
    }

    /// Abandons the upload, deleting every stripe chunk that already landed
    /// (the in-hand stripe was never uploaded). Nothing was committed, so
    /// readers never saw any of it.
    pub fn abort_put(self) {
        chunk_io::delete_chunks(self.engine().infra(), &self.stripes);
    }

    /// Folds the pipeline's current transient footprint into the high-water
    /// mark: unsealed plaintext + held encoded stripe + `extra` (the seal in
    /// progress).
    fn note_buffered(&mut self, extra: usize) {
        let now = self.buffer.len()
            + self
                .in_hand
                .as_ref()
                .map(|s| s.encoded.stored_bytes())
                .unwrap_or(0)
            + extra;
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(now);
    }

    /// One pipeline step: encode `plain` as the next stripe while the
    /// previously encoded stripe (if any) uploads — the two run concurrently
    /// under [`rayon::join`], overlapping CPU with provider I/O.
    fn seal_stripe(&mut self, plain: Vec<u8>) -> Result<()> {
        let index = self.sealed;
        self.sealed += 1;
        let placement =
            match self
                .engine()
                .place_excluding(&self.rule, &self.class, &self.usage, &[])
            {
                Ok(placement) => placement,
                Err(err) => self.last_placement.clone().ok_or(err)?,
            };
        self.last_placement = Some(placement.clone());
        // Charge the seal: plaintext being encoded + its encoded output +
        // whatever is already held.
        let encoded_estimate =
            plain.len() * placement.providers.len().max(1) / placement.m.max(1) as usize;
        self.note_buffered(plain.len() + encoded_estimate);

        let prev = self.in_hand.take();
        let ladder = self.ladder();

        let encode = |placement: Placement, plain: Vec<u8>| -> Result<EncodedStripe> {
            let checksum = md5_hex(&plain);
            let encoded = encode_object(&plain, placement.erasure_params())?;
            Ok(EncodedStripe {
                index,
                len: plain.len() as u64,
                checksum,
                placement,
                encoded,
            })
        };

        let (landed, fresh) = match prev {
            Some(prev) => {
                let (landed, fresh) =
                    rayon::join(|| ladder.land(prev), || encode(placement, plain));
                (Some(landed), fresh?)
            }
            None => (None, encode(placement, plain)?),
        };
        if let Some(landed) = landed {
            self.record(landed?)?;
        }
        self.in_hand = Some(fresh);
        self.note_buffered(0);
        Ok(())
    }

    /// Lands one encoded stripe and records it.
    fn land(&mut self, stripe: EncodedStripe) -> Result<()> {
        let landed = self.ladder().land(stripe)?;
        self.record(landed)
    }

    /// Records a landed stripe.
    fn record(&mut self, landed: Landed) -> Result<()> {
        self.have_total += landed.have;
        self.want_total += landed.want;
        self.stripes.push(landed.stripe);
        // Chaos crash point: a stripe's chunks are durable at providers but
        // the stripe map is not committed — a crash here must leave the
        // previous object version intact and only orphan bytes for the GC
        // sweep.
        self.engine().infra().crash_point("put_part::after-stripe")
    }

    /// The landing ladder of this upload's stripes.
    fn ladder(&self) -> Ladder<'_> {
        Ladder {
            engine: self.engine(),
            key: &self.key,
            rule: &self.rule,
            class: &self.class,
            usage: &self.usage,
            keys: KeyScheme::Striped {
                version: self.version,
                base: &self.base_skey,
            },
        }
    }
}

/// What every landing attempt of one object needs: the rule and predicted
/// usage the re-placement search prices with, and how attempts name their
/// storage keys.
struct Ladder<'a> {
    engine: &'a Engine,
    key: &'a ObjectKey,
    rule: &'a StorageRule,
    class: &'a ObjectClass,
    usage: &'a PredictedUsage,
    keys: KeyScheme<'a>,
}

impl Ladder<'_> {
    /// Lands one encoded stripe: parallel upload with rollback, bounded
    /// re-placement excluding the failed provider (re-encoding only when
    /// the `(m, n)` geometry changes — the systematic data shards
    /// reconstruct the plaintext in memory, no provider reads), and the
    /// degraded tolerant landing once attempts are exhausted.
    fn land(&self, mut stripe: EncodedStripe) -> Result<Landed> {
        let config = HedgeConfig::default();
        let mut excluded: Vec<ProviderId> = Vec::new();
        loop {
            let attempt = excluded.len();
            let (version, skey) = self.keys.name(self.engine, self.key, stripe.index, attempt);
            let failure = match chunk_io::upload_encoded(
                self.engine.infra(),
                &stripe.placement,
                &skey,
                &stripe.encoded,
                &config,
            ) {
                Ok(chunks) => {
                    let want = chunks.len() as u64;
                    return Ok(Landed {
                        stripe: stripe.landed(chunks, skey),
                        version,
                        have: want,
                        want,
                    });
                }
                Err(failure) => failure,
            };
            let Some(provider) = failure.provider else {
                return Err(failure.error);
            };
            if excluded.len() + 1 >= WRITE_ATTEMPTS {
                // Attempts exhausted: degrade on this placement or surface
                // the upload error.
                return self.land_degraded(&stripe, attempt + 1, failure.error);
            }
            excluded.push(provider);
            match self
                .engine
                .place_excluding(self.rule, self.class, self.usage, &excluded)
            {
                Ok(next) => {
                    if next.erasure_params() != stripe.placement.erasure_params() {
                        let plain = decode_object(
                            &stripe.encoded.chunks,
                            stripe.encoded.params,
                            stripe.encoded.original_len,
                        )?;
                        stripe.encoded = encode_object(&plain, next.erasure_params())?;
                    }
                    stripe.placement = next;
                }
                // Re-placement found nothing: degrade on the placement whose
                // upload just failed.
                Err(_) => return self.land_degraded(&stripe, attempt + 1, failure.error),
            }
        }
    }

    /// The degraded landing: every chunk attempted tolerantly, the partial
    /// landing accepted iff `k ≥ m` chunks survive and the surviving
    /// providers still meet the rule's availability floor; rolled back (and
    /// `original` surfaced) otherwise.
    fn land_degraded(
        &self,
        stripe: &EncodedStripe,
        attempt: usize,
        original: ScaliaError,
    ) -> Result<Landed> {
        let (version, skey) = self.keys.name(self.engine, self.key, stripe.index, attempt);
        let Ok(partial) = chunk_io::upload_encoded_tolerant(
            self.engine.infra(),
            &stripe.placement,
            &skey,
            &stripe.encoded,
            &HedgeConfig::default(),
        ) else {
            return Err(original);
        };
        let want = stripe.placement.providers.len() as u64;
        let have = partial.chunks.len() as u64;
        // Everything landing after all (the earlier failure was transient)
        // is a full-width stripe with no debt.
        if have < want {
            let surviving: Vec<_> = partial
                .chunks
                .iter()
                .filter_map(|c| self.engine.infra().catalog().get(c.provider))
                .collect();
            let availability = get_availability(&surviving, stripe.placement.m);
            if surviving.len() as u64 != have || !availability.meets(self.rule.availability) {
                // Not durable enough to acknowledge: roll the landing back.
                let rolled_back = stripe.landed(partial.chunks, skey);
                chunk_io::delete_chunks(self.engine.infra(), std::slice::from_ref(&rolled_back));
                return Err(original);
            }
        }
        Ok(Landed {
            stripe: stripe.landed(partial.chunks, skey),
            version,
            have,
            want,
        })
    }
}
