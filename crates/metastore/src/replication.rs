//! Multi-datacenter replication.
//!
//! The paper's database layer replicates every row in all datacenters so
//! that read requests can always be served locally and write requests
//! succeed "as long as a single database node is up and running", with the
//! datacenters becoming eventually consistent after a partition heals
//! (§III-D3). [`ReplicatedStore`] implements that behaviour over a set of
//! [`NoSqlNode`]s. Every mutation is one [`JournalOp`] applied to every
//! reachable node. A node that is down when an op is applied gets the op
//! queued (hinted handoff — for puts, deletes and prunes alike), and a node
//! with queued ops receives them in order before any newer op: the next op
//! routed to it replays its queue first, and
//! [`ReplicatedStore::anti_entropy`] replays the queues of nodes that are
//! back up. Replicas converge by replaying exactly the ops they missed, so
//! a row deleted while a node was down stays deleted, and catch-up work
//! grows with the missed ops, never with the stored cells.
//!
//! Every mutation is additionally recorded in a [`WriteAheadJournal`] so the
//! store survives a crash: [`ReplicatedStore::checkpoint`] snapshots the
//! nodes and truncates the journal's committed prefix, and
//! [`ReplicatedStore::recover`] rebuilds the nodes from a checkpoint plus a
//! journal replay. Multi-operation commits go through
//! [`ReplicatedStore::transaction`], whose write-ahead `Begin` record makes
//! the whole batch atomic across a crash (see [`crate::journal`]).

use crate::journal::{JournalOp, JournalRecord, StoreCheckpoint, WriteAheadJournal};
use crate::model::{Cell, CellValue, Timestamp};
use crate::store::NoSqlNode;
use parking_lot::Mutex;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::DatacenterId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A crash-injection hook: called with a crash-point label, returns `true`
/// when the operation must abort *right there* with no cleanup (the chaos
/// harness arms these through a fault plan).
pub type CrashHook = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// A store replicated across every datacenter's database node.
pub struct ReplicatedStore {
    nodes: Vec<Arc<NoSqlNode>>,
    /// Per node, parallel to `nodes`: the ops it has not applied yet,
    /// oldest first.
    backlogs: Vec<Mutex<VecDeque<JournalOp>>>,
    journal: WriteAheadJournal,
    crash_hook: Mutex<Option<CrashHook>>,
}

/// Replays `backlog` onto `node`, oldest first, stopping at the first op
/// the node cannot take (it is down). Returns whether the node caught up.
fn catch_up(node: &NoSqlNode, backlog: &mut VecDeque<JournalOp>) -> bool {
    while let Some(op) = backlog.front() {
        if node.apply(op).is_none() {
            return false;
        }
        backlog.pop_front();
    }
    true
}

impl ReplicatedStore {
    /// Creates a replicated store over the given nodes (one per datacenter).
    pub fn new(nodes: Vec<Arc<NoSqlNode>>) -> Self {
        ReplicatedStore {
            backlogs: nodes.iter().map(|_| Mutex::new(VecDeque::new())).collect(),
            nodes,
            journal: WriteAheadJournal::new(),
            crash_hook: Mutex::new(None),
        }
    }

    /// Creates a store with `datacenters` fresh nodes.
    pub fn with_datacenters(datacenters: u32) -> Self {
        let nodes = (0..datacenters)
            .map(|i| NoSqlNode::shared(DatacenterId::new(i)))
            .collect();
        Self::new(nodes)
    }

    /// The underlying nodes.
    pub fn nodes(&self) -> &[Arc<NoSqlNode>] {
        &self.nodes
    }

    /// The node of a specific datacenter, if it exists.
    pub fn node(&self, datacenter: DatacenterId) -> Option<&Arc<NoSqlNode>> {
        self.nodes.iter().find(|n| n.datacenter() == datacenter)
    }

    /// Number of ops queued for nodes that have not applied them yet.
    pub fn pending_hints(&self) -> usize {
        self.backlogs.iter().map(|b| b.lock().len()).sum()
    }

    /// Writes a cell to every reachable node; nodes that are down queue the
    /// write. Fails only if no node is up. Accepted writes are recorded in
    /// the write-ahead journal (as auto-committed redo records) so crash
    /// recovery can replay them.
    pub fn put(
        &self,
        row_key: &str,
        column: &str,
        value: CellValue,
        timestamp: Timestamp,
    ) -> Result<()> {
        let op = JournalOp::Put {
            row_key: row_key.to_string(),
            column: column.to_string(),
            value,
            timestamp,
        };
        self.check_writable(&op)?;
        self.apply_logged(op);
        Ok(())
    }

    /// A put needs at least one node up to take it; the other op kinds are
    /// queued for every node if need be.
    fn check_writable(&self, op: &JournalOp) -> Result<()> {
        if matches!(op, JournalOp::Put { .. }) && !self.nodes.iter().any(|n| n.is_up()) {
            return Err(ScaliaError::DatacenterUnavailable(
                self.nodes.first().map(|n| n.datacenter().0).unwrap_or(0),
            ));
        }
        Ok(())
    }

    /// Applies one op to every node without journaling it — shared by the
    /// journaling front doors and the recovery replay. Each node first
    /// replays the ops it has queued, then takes this one; a node that is
    /// down queues it instead. Returns the cells a `Prune` removed (union
    /// across nodes, deduplicated by timestamp, oldest first), empty for
    /// the other op kinds.
    fn apply_op(&self, op: &JournalOp) -> Vec<Cell> {
        let mut removed: Vec<Cell> = Vec::new();
        for (node, backlog) in self.nodes.iter().zip(&self.backlogs) {
            let mut backlog = backlog.lock();
            let applied = if catch_up(node, &mut backlog) {
                node.apply(op)
            } else {
                None
            };
            match applied {
                Some(cells) => {
                    for cell in cells {
                        if !removed.iter().any(|c| c.timestamp == cell.timestamp) {
                            removed.push(cell);
                        }
                    }
                }
                None => backlog.push_back(op.clone()),
            }
        }
        removed.sort_by_key(|c| c.timestamp);
        removed
    }

    /// Applies one auto-committed op and journals it.
    fn apply_logged(&self, op: JournalOp) -> Vec<Cell> {
        let removed = self.apply_op(&op);
        self.journal.log_apply(op);
        removed
    }

    /// Atomically applies a batch of operations under write-ahead logging:
    /// the whole op list is journaled as one `Begin` record before any node
    /// sees any of it, and a `Commit` record lands only after every op
    /// applied. A crash anywhere in between leaves a `Begin` without a
    /// `Commit`, which [`Self::recover`] redoes — so the batch is all-or-
    /// nothing across a crash (old state if the crash beat the `Begin`
    /// record, new state otherwise).
    ///
    /// Returns the cells removed by the batch's `Prune` ops, oldest first —
    /// the engine deletes the chunks of the metadata versions among them.
    ///
    /// Crash points visited (in order): `txn::before-log`, `txn::logged`,
    /// `txn::torn` (after the first op applied), `txn::applied`.
    pub fn transaction(&self, ops: Vec<JournalOp>) -> Result<Vec<Cell>> {
        self.crash_check("txn::before-log")?;
        let txid = self.journal.begin(ops.clone());
        self.crash_check("txn::logged")?;
        let mut removed: Vec<Cell> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            self.check_writable(op)?;
            removed.extend(self.apply_op(op));
            if i == 0 {
                self.crash_check("txn::torn")?;
            }
        }
        self.crash_check("txn::applied")?;
        self.journal.commit(txid);
        removed.sort_by_key(|c| c.timestamp);
        Ok(removed)
    }

    /// Installs a crash-injection hook (see [`CrashHook`]). The chaos
    /// harness uses this to abort journaled operations at named points.
    pub fn set_crash_hook(&self, hook: Option<CrashHook>) {
        *self.crash_hook.lock() = hook;
    }

    /// Visits a crash point: aborts with an internal error when the
    /// installed hook says the label is armed.
    fn crash_check(&self, label: &str) -> Result<()> {
        let hook = self.crash_hook.lock().clone();
        match hook {
            Some(hook) if hook(label) => {
                Err(ScaliaError::Internal(format!("crash injected at {label}")))
            }
            _ => Ok(()),
        }
    }

    /// The store's write-ahead journal.
    pub fn journal(&self) -> &WriteAheadJournal {
        &self.journal
    }

    /// Snapshots every node's rows and truncates the journal's committed
    /// prefix — the durable baseline [`Self::recover`] restores from. Take
    /// checkpoints at quiescent points (no in-flight transactions).
    pub fn checkpoint(&self) -> StoreCheckpoint {
        let node_rows = self.nodes.iter().map(|n| n.snapshot()).collect();
        self.journal.truncate_committed();
        StoreCheckpoint { node_rows }
    }

    /// Crash recovery: restores every node from `checkpoint` (bringing it
    /// up), drops the volatile op queues, and replays the journal in order.
    /// Committed transactions and auto-committed singles are redone as
    /// logged; a `Begin` without a `Commit` (a transaction interrupted by
    /// the crash) is **redone to completion** — its intent was durable — and
    /// then marked committed, so recovery is idempotent. After recovery the
    /// store holds either the pre-transaction or the post-transaction state
    /// for every interrupted commit, never a torn mixture.
    ///
    /// The replay cannot fail: the one error a mutation has — a put with no
    /// node up — is ruled out because every node was just brought up, so
    /// every op applies on every node.
    pub fn recover(&self, checkpoint: &StoreCheckpoint) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.set_up(true);
            let rows = checkpoint.node_rows.get(i).cloned().unwrap_or_default();
            node.restore(rows);
        }
        for backlog in &self.backlogs {
            backlog.lock().clear();
        }
        let uncommitted = self.journal.uncommitted();
        for record in self.journal.records() {
            match record {
                JournalRecord::Apply(op) => {
                    self.apply_op(&op);
                }
                JournalRecord::Begin { ops, .. } => {
                    for op in &ops {
                        self.apply_op(op);
                    }
                }
                JournalRecord::Commit { .. } => {}
            }
        }
        for txid in uncommitted {
            self.journal.commit(txid);
        }
    }

    /// The first reachable node, preferring the caller's local datacenter —
    /// the single read policy every best-effort single-replica read
    /// delegates to. Allocation-free: this sits under the hottest metadata
    /// reads.
    pub fn read_node(&self, local: DatacenterId) -> Option<&Arc<NoSqlNode>> {
        self.nodes
            .iter()
            .find(|n| n.is_up() && n.datacenter() == local)
            .or_else(|| self.nodes.iter().find(|n| n.is_up()))
    }

    /// Reads the latest version of a column from the first reachable node
    /// (preferring the caller's local datacenter).
    pub fn get_latest(&self, local: DatacenterId, row_key: &str, column: &str) -> Option<Cell> {
        self.read_node(local)
            .and_then(|n| n.get_latest(row_key, column))
    }

    /// Reads one row from **every** up replica and merges it: per column,
    /// the cell with the highest timestamp across all replicas wins (the
    /// same last-write-wins rule MVCC applies within a node).
    ///
    /// This is the replicated read for row-shaped queries (e.g. the
    /// container index behind LIST): [`Self::get_latest`] serves from a
    /// *single* node, which is correct only for the node anti-entropy has
    /// caught up — a replica that was down during writes and came back
    /// before its queued ops replayed would otherwise serve arbitrarily stale
    /// cells. Merging across replicas reads through that lag: any up node
    /// that accepted the write supplies the fresh cell.
    pub fn get_row_merged(&self, row_key: &str) -> BTreeMap<String, Cell> {
        let mut merged: BTreeMap<String, Cell> = BTreeMap::new();
        for node in self.nodes.iter().filter(|n| n.is_up()) {
            let Some(row) = node.get_row(row_key) else {
                continue;
            };
            for (column, cells) in row {
                let Some(cell) = cells.into_iter().max_by_key(|c| c.timestamp) else {
                    continue;
                };
                match merged.get(&column) {
                    Some(existing) if existing.timestamp >= cell.timestamp => {}
                    _ => {
                        merged.insert(column, cell);
                    }
                }
            }
        }
        merged
    }

    /// Applies `read` to the latest version of a column on the first
    /// reachable node (preferring `local`) without cloning the cell — see
    /// [`NoSqlNode::with_latest`].
    pub fn with_latest<T>(
        &self,
        local: DatacenterId,
        row_key: &str,
        column: &str,
        read: impl FnOnce(&Cell) -> T,
    ) -> Option<T> {
        self.read_node(local)
            .and_then(|n| n.with_latest(row_key, column, read))
    }

    /// Reads every version of a column from the first reachable node.
    pub fn get_versions(&self, local: DatacenterId, row_key: &str, column: &str) -> Vec<Cell> {
        for node in self.ordered_nodes(local) {
            if node.is_up() {
                return node.get_versions(row_key, column);
            }
        }
        Vec::new()
    }

    /// Deletes a row on every node, queueing the delete for nodes that are
    /// down. Journaled.
    pub fn delete_row(&self, row_key: &str) {
        self.apply_logged(JournalOp::DeleteRow {
            row_key: row_key.to_string(),
        });
    }

    /// Deletes a single column of a row on every node (statistics garbage
    /// collection: dropping over-retention samples), queueing the delete for
    /// nodes that are down. Journaled.
    pub fn delete_column(&self, row_key: &str, column: &str) {
        self.apply_logged(JournalOp::DeleteColumn {
            row_key: row_key.to_string(),
            column: column.to_string(),
        });
    }

    /// Prunes deprecated versions of a column on every node (queued for
    /// nodes that are down) and returns the union of cells removed from the
    /// up nodes (deduplicated by timestamp). Journaled.
    pub fn prune_old_versions(&self, row_key: &str, column: &str) -> Vec<Cell> {
        self.apply_logged(JournalOp::Prune {
            row_key: row_key.to_string(),
            column: column.to_string(),
        })
    }

    /// Row keys modified since `since` on any reachable node (deduplicated).
    pub fn modified_since(&self, since: Timestamp) -> Vec<String> {
        let mut keys: Vec<String> = self
            .nodes
            .iter()
            .flat_map(|n| n.modified_since(since))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Replays the queued ops of every node that is back up, in order,
    /// making the datacenters eventually consistent. With nothing queued it
    /// touches no row.
    pub fn anti_entropy(&self) {
        for (node, backlog) in self.nodes.iter().zip(&self.backlogs) {
            catch_up(node, &mut backlog.lock());
        }
    }

    fn ordered_nodes(&self, local: DatacenterId) -> Vec<Arc<NoSqlNode>> {
        let mut ordered: Vec<Arc<NoSqlNode>> = self.nodes.clone();
        ordered.sort_by_key(|n| if n.datacenter() == local { 0 } else { 1 });
        ordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(x: u64) -> CellValue {
        CellValue::Lifetime(x as f64)
    }

    fn tag(s: &str) -> CellValue {
        CellValue::Class(Some(s.to_string()))
    }

    fn store() -> ReplicatedStore {
        ReplicatedStore::with_datacenters(2)
    }

    #[test]
    fn writes_replicate_to_all_datacenters() {
        let s = store();
        s.put("r", "c", tag("v"), Timestamp::new(1, 0)).unwrap();
        for node in s.nodes() {
            assert_eq!(node.get_latest("r", "c").unwrap().value, tag("v"));
        }
        assert_eq!(s.pending_hints(), 0);
    }

    #[test]
    fn reads_prefer_local_datacenter_but_fail_over() {
        let s = store();
        s.put("r", "c", num(1), Timestamp::new(1, 0)).unwrap();
        // Take dc_0 down; a dc_0-local read must still succeed via dc_1.
        s.nodes()[0].set_up(false);
        let cell = s.get_latest(DatacenterId::new(0), "r", "c").unwrap();
        assert_eq!(cell.value, num(1));
    }

    #[test]
    fn write_succeeds_while_one_node_is_down_then_heals() {
        let s = store();
        s.nodes()[1].set_up(false);
        s.put("r", "c", tag("during-outage"), Timestamp::new(5, 0))
            .unwrap();
        assert_eq!(s.pending_hints(), 1);
        // The down node has nothing yet.
        s.nodes()[1].set_up(true);
        assert!(s.nodes()[1].get_latest("r", "c").is_none());
        // Anti-entropy replays the hint.
        s.anti_entropy();
        assert_eq!(s.pending_hints(), 0);
        assert_eq!(
            s.nodes()[1].get_latest("r", "c").unwrap().value,
            tag("during-outage")
        );
    }

    #[test]
    fn write_fails_only_when_all_nodes_down() {
        let s = store();
        s.nodes()[0].set_up(false);
        s.nodes()[1].set_up(false);
        let err = s.put("r", "c", num(1), Timestamp::new(1, 0)).unwrap_err();
        assert!(matches!(err, ScaliaError::DatacenterUnavailable(_)));
    }

    #[test]
    fn prune_old_versions_across_datacenters() {
        let s = store();
        s.put("r", "c", tag("old"), Timestamp::new(1, 0)).unwrap();
        s.put("r", "c", tag("new"), Timestamp::new(2, 0)).unwrap();
        let removed = s.prune_old_versions("r", "c");
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].value, tag("old"));
        for node in s.nodes() {
            assert_eq!(node.get_versions("r", "c").len(), 1);
        }
    }

    #[test]
    fn modified_since_union() {
        let s = store();
        s.put("a", "c", num(1), Timestamp::new(10, 0)).unwrap();
        // A write that only reached dc_1 (dc_0 down).
        s.nodes()[0].set_up(false);
        s.put("b", "c", num(1), Timestamp::new(20, 0)).unwrap();
        s.nodes()[0].set_up(true);
        let keys = s.modified_since(Timestamp::new(0, 0));
        assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn delete_row_everywhere() {
        let s = store();
        s.put("r", "c", num(1), Timestamp::new(1, 0)).unwrap();
        s.delete_row("r");
        for node in s.nodes() {
            assert!(node.get_latest("r", "c").is_none());
        }
    }

    #[test]
    fn transaction_applies_all_ops_and_returns_pruned_cells() {
        let s = store();
        s.put("r", "meta", tag("old"), Timestamp::new(1, 0))
            .unwrap();
        let removed = s
            .transaction(vec![
                JournalOp::Put {
                    row_key: "r".into(),
                    column: "meta".into(),
                    value: tag("new"),
                    timestamp: Timestamp::new(2, 0),
                },
                JournalOp::Put {
                    row_key: "container:c".into(),
                    column: "k".into(),
                    value: CellValue::Listed(true),
                    timestamp: Timestamp::new(2, 0),
                },
                JournalOp::Prune {
                    row_key: "r".into(),
                    column: "meta".into(),
                },
            ])
            .unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].value, tag("old"));
        for node in s.nodes() {
            assert_eq!(node.get_versions("r", "meta").len(), 1);
            assert_eq!(node.get_latest("r", "meta").unwrap().value, tag("new"));
            assert!(node.get_latest("container:c", "k").is_some());
        }
        assert!(s.journal().uncommitted().is_empty());
    }

    #[test]
    fn recovery_replays_journal_onto_checkpoint() {
        let s = store();
        s.put("a", "c", num(1), Timestamp::new(1, 0)).unwrap();
        let cp = s.checkpoint();
        // Post-checkpoint history: a put, a delete, a committed transaction.
        s.put("b", "c", num(2), Timestamp::new(2, 0)).unwrap();
        s.delete_row("a");
        s.transaction(vec![JournalOp::Put {
            row_key: "t".into(),
            column: "c".into(),
            value: num(3),
            timestamp: Timestamp::new(3, 0),
        }])
        .unwrap();
        // Crash: wipe the nodes entirely, then recover.
        for node in s.nodes() {
            node.restore(Vec::new());
        }
        s.recover(&cp);
        for node in s.nodes() {
            assert!(node.get_latest("a", "c").is_none(), "delete replayed");
            assert_eq!(node.get_latest("b", "c").unwrap().value, num(2));
            assert_eq!(node.get_latest("t", "c").unwrap().value, num(3));
        }
    }

    #[test]
    fn crash_mid_transaction_recovers_to_new_state_atomically() {
        for label in ["txn::logged", "txn::torn", "txn::applied"] {
            let s = store();
            s.put("r", "meta", tag("old"), Timestamp::new(1, 0))
                .unwrap();
            let cp = s.checkpoint();
            let fire = label.to_string();
            s.set_crash_hook(Some(Arc::new(move |l: &str| l == fire)));
            let err = s
                .transaction(vec![
                    JournalOp::Put {
                        row_key: "r".into(),
                        column: "meta".into(),
                        value: tag("new"),
                        timestamp: Timestamp::new(2, 0),
                    },
                    JournalOp::Prune {
                        row_key: "r".into(),
                        column: "meta".into(),
                    },
                ])
                .unwrap_err();
            assert!(matches!(err, ScaliaError::Internal(_)), "{label}");
            s.set_crash_hook(None);
            s.recover(&cp);
            // The Begin record was durable, so recovery redoes the whole
            // batch: exactly one version, the new one, on every node.
            for node in s.nodes() {
                assert_eq!(node.get_versions("r", "meta").len(), 1, "{label}");
                assert_eq!(
                    node.get_latest("r", "meta").unwrap().value,
                    tag("new"),
                    "{label}"
                );
            }
            assert!(s.journal().uncommitted().is_empty(), "{label}");
            // Recovery is idempotent.
            s.recover(&cp);
            for node in s.nodes() {
                assert_eq!(node.get_versions("r", "meta").len(), 1, "{label}");
            }
        }
    }

    #[test]
    fn crash_before_log_leaves_old_state() {
        let s = store();
        s.put("r", "meta", tag("old"), Timestamp::new(1, 0))
            .unwrap();
        let cp = s.checkpoint();
        s.set_crash_hook(Some(Arc::new(|l: &str| l == "txn::before-log")));
        assert!(s
            .transaction(vec![JournalOp::Put {
                row_key: "r".into(),
                column: "meta".into(),
                value: tag("new"),
                timestamp: Timestamp::new(2, 0),
            }])
            .is_err());
        s.set_crash_hook(None);
        s.recover(&cp);
        for node in s.nodes() {
            assert_eq!(node.get_latest("r", "meta").unwrap().value, tag("old"));
            assert_eq!(node.get_versions("r", "meta").len(), 1);
        }
    }

    #[test]
    fn checkpoint_truncates_committed_journal_prefix() {
        let s = store();
        for i in 0..10 {
            s.put("r", "c", num(i), Timestamp::new(i, 0)).unwrap();
        }
        assert_eq!(s.journal().len(), 10);
        let cp = s.checkpoint();
        assert_eq!(s.journal().len(), 0, "committed prefix dropped");
        // Recovery from a fresh checkpoint with an empty journal is exact.
        s.recover(&cp);
        assert_eq!(
            s.get_latest(DatacenterId::new(0), "r", "c").unwrap().value,
            num(9)
        );
    }

    #[test]
    fn down_node_catches_up_on_missed_deletes_and_prunes() {
        let s = store();
        s.put("r", "c", tag("old"), Timestamp::new(1, 0)).unwrap();
        s.put("r", "c", tag("new"), Timestamp::new(2, 0)).unwrap();
        s.put("gone", "c", num(1), Timestamp::new(3, 0)).unwrap();
        s.put("x", "a", num(1), Timestamp::new(4, 0)).unwrap();
        s.put("x", "b", num(2), Timestamp::new(5, 0)).unwrap();
        s.nodes()[1].set_up(false);
        assert_eq!(s.prune_old_versions("r", "c").len(), 1);
        s.delete_row("gone");
        s.delete_column("x", "a");
        assert_eq!(s.pending_hints(), 3, "every op kind is queued");
        s.nodes()[1].set_up(true);
        s.anti_entropy();
        assert_eq!(s.pending_hints(), 0);
        for node in s.nodes() {
            assert_eq!(node.get_versions("r", "c").len(), 1);
            assert_eq!(node.get_latest("r", "c").unwrap().value, tag("new"));
            assert!(
                node.get_row("gone").is_none(),
                "a missed delete stays deleted"
            );
            assert!(node.get_latest("x", "a").is_none());
            assert_eq!(node.get_latest("x", "b").unwrap().value, num(2));
        }
    }

    #[test]
    fn queued_delete_never_erases_a_newer_write() {
        // The newer write reaches the lagging node after it came back up,
        // or while it is still down: either way the delete replays first.
        for still_down in [false, true] {
            let s = store();
            s.put("k", "meta", tag("v1"), Timestamp::new(1, 0)).unwrap();
            s.nodes()[1].set_up(false);
            s.delete_row("k");
            s.nodes()[1].set_up(!still_down);
            s.put("k", "meta", tag("v2"), Timestamp::new(5, 0)).unwrap();
            s.nodes()[1].set_up(true);
            s.anti_entropy();
            assert_eq!(s.pending_hints(), 0);
            for node in s.nodes() {
                let versions = node.get_versions("k", "meta");
                assert_eq!(versions.len(), 1, "still_down = {still_down}");
                assert_eq!(versions[0].value, tag("v2"), "still_down = {still_down}");
            }
        }
    }

    #[test]
    fn a_lagging_node_catches_up_before_taking_a_newer_op() {
        let s = store();
        s.nodes()[1].set_up(false);
        s.put("a", "c", num(1), Timestamp::new(1, 0)).unwrap();
        // Node 1 is back but not caught up; node 0 goes down. The write
        // still succeeds on node 1, behind the op it missed.
        s.nodes()[1].set_up(true);
        s.nodes()[0].set_up(false);
        s.put("b", "c", num(2), Timestamp::new(2, 0)).unwrap();
        let lagging = &s.nodes()[1];
        assert_eq!(lagging.get_latest("a", "c").unwrap().value, num(1));
        assert_eq!(lagging.get_latest("b", "c").unwrap().value, num(2));
        s.nodes()[0].set_up(true);
        s.anti_entropy();
        assert_eq!(s.pending_hints(), 0);
        assert_eq!(s.nodes()[0].get_latest("b", "c").unwrap().value, num(2));
    }

    #[test]
    fn a_put_no_node_accepts_is_queued_nowhere() {
        let s = store();
        for node in s.nodes() {
            node.set_up(false);
        }
        assert!(s.put("r", "c", num(1), Timestamp::new(1, 0)).is_err());
        assert_eq!(s.pending_hints(), 0);
        assert!(s.journal().is_empty());
        for node in s.nodes() {
            node.set_up(true);
        }
        s.anti_entropy();
        assert!(s.nodes().iter().all(|n| n.get_row("r").is_none()));
    }

    #[test]
    fn anti_entropy_with_nothing_queued_touches_no_row() {
        let s = store();
        s.put("r", "c", num(1), Timestamp::new(1, 0)).unwrap();
        // A cell written on one node behind the store's back: only a
        // whole-store merge would copy it to the other node.
        s.nodes()[0].put("side", "c", num(2), Timestamp::new(2, 0));
        s.anti_entropy();
        assert!(s.nodes()[1].get_row("side").is_none());
        assert!(s.nodes()[1].modified_since(Timestamp::new(2, 0)).is_empty());
    }

    #[test]
    fn transaction_returns_pruned_cells_of_every_column_sharing_a_timestamp() {
        // One commit writes several columns under one timestamp; pruning
        // them later must report every removed cell, whatever the order of
        // the prunes — a version's metadata is never shadowed by a
        // same-timestamp cell of another column.
        let s = store();
        let t1 = Timestamp::new(1, 0);
        s.put("repair:r", "item", tag("old-item"), t1).unwrap();
        s.put("r", "meta", tag("old-meta"), t1).unwrap();
        let t2 = Timestamp::new(2, 0);
        let put = |row: &str, column: &str, value: &str| JournalOp::Put {
            row_key: row.into(),
            column: column.into(),
            value: tag(value),
            timestamp: t2,
        };
        let prune = |row: &str, column: &str| JournalOp::Prune {
            row_key: row.into(),
            column: column.into(),
        };
        let removed = s
            .transaction(vec![
                put("r", "meta", "new-meta"),
                put("repair:r", "item", "new-item"),
                prune("repair:r", "item"),
                prune("r", "meta"),
            ])
            .unwrap();
        let values: Vec<&CellValue> = removed.iter().map(|c| &c.value).collect();
        assert_eq!(values, vec![&tag("old-item"), &tag("old-meta")]);
    }
}
