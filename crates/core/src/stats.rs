//! Operation and lookup-path counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which mechanism resolved a node lookup — the observable face of the
/// laziness story: partial hits avoid range scans, full-index probes avoid
//  both, range scans are the fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupPath {
    /// Served by the memory-resident Partial Index.
    Partial,
    /// Served by the per-node Full Index.
    Full,
    /// Located via the Range Index plus an in-range token scan.
    RangeScan,
}

axs_obs::series! {
    /// The live store counters: every counter is an atomic so concurrent
    /// sessions (server workers, pool readers) record activity through a
    /// shared reference — no `&mut XmlStore` required.
    /// [`SharedStats::snapshot`] produces the plain [`StoreStats`] value the
    /// inspection API returns.
    #[derive(Debug, Default)]
    pub struct SharedStats => StoreStats by LookupPath {
        /// Fragments inserted (any of the four insert operations or bulk).
        inserts: Counter "store.inserts",
        /// Nodes deleted.
        deletes: Counter "store.deletes",
        /// Nodes replaced (replaceNode + replaceContent).
        replaces: Counter "store.replaces",
        /// Point reads of one node.
        node_reads: Counter "store.node_reads",
        /// Full-store sequential reads.
        full_scans: Counter "store.full_scans",
        /// Tokens written by inserts.
        tokens_inserted: Counter "store.tokens_inserted",
        /// Node lookups resolved by the partial index.
        lookups_partial: Counter "store.lookups_partial" for LookupPath::Partial,
        /// Node lookups resolved by the full index.
        lookups_full: Counter "store.lookups_full" for LookupPath::Full,
        /// Node lookups resolved via range-index + scan.
        lookups_range_scan: Counter "store.lookups_range_scan" for LookupPath::RangeScan,
        /// Tokens visited while scanning inside ranges during lookups — the
        /// price of coarse indexing the Partial Index exists to amortize.
        tokens_scanned: Counter "store.tokens_scanned",
        /// Range splits performed by inserts/deletes.
        range_splits: Counter "store.range_splits",
        /// Ranges moved to a different block by overflow handling.
        range_moves: Counter "store.range_moves",
        /// Full-index entries rewritten due to splits/moves (the paper's
        /// insert penalty for full indexing, made visible).
        full_index_rewrites: Counter "store.full_index_rewrites",
        /// WAL records appended (page images + commits) by flush.
        wal_records: Counter "store.wal_records",
        /// Recovery passes at open that replayed committed WAL batches.
        recoveries: Counter "store.recoveries",
        /// Torn tails truncated during recovery (data file and WAL combined).
        torn_tail_truncations: Counter "store.torn_tail_truncations",
    }
}

impl SharedStats {
    /// Adds `n` to a counter (relaxed; counters are advisory).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_recording() {
        let s = SharedStats::default();
        for path in [LookupPath::Partial, LookupPath::Full, LookupPath::RangeScan] {
            s.observe(path, 1);
        }
        s.observe(LookupPath::RangeScan, 1);
        let snap = s.snapshot();
        let paths = (
            snap.lookups_partial,
            snap.lookups_full,
            snap.lookups_range_scan,
        );
        assert_eq!(paths, (1, 1, 2));
    }
}
