//! # txkv-schema — typed tables and secondary indexes over `txkv`
//!
//! The service layer underneath ([`txkv`]) speaks `u64 → u64`. Real
//! workloads speak *relations*: named tables with composite primary
//! keys, multi-column rows, and secondary access paths. This crate is
//! the thin, zero-overhead mapping between the two:
//!
//! * [`keyenc`] — an order-preserving tuple → `u64` key encoding
//!   (`[place | table | payload | col]`), so `scan_range` on encoded
//!   keys IS an index-ordered relational scan;
//! * [`Schema`] — named-table namespacing: allocates the 6-bit table
//!   ids, so two tables can never collide in the key space;
//! * [`Table`] — a typed handle `Table<K, R>` (a [`TupleKey`] primary
//!   key, a [`Row`] of named columns) with get/put/delete/per-column
//!   ops and ordered scans;
//! * [`Index`] — secondary indexes (unique and multi-valued), read
//!   through [`Index::get`]/[`Index::scan`] (which count *index hits*,
//!   so tests can assert a lookup was index-served rather than scanned)
//!   and written through the same transaction as the base-table write;
//! * [`def_key!`]/[`def_row!`] — derive the key/row plumbing.
//!
//! Everything programs against [`txkv::KvTx`] — the in-transaction
//! surface implemented by both the service pipeline's procedure context
//! ([`txkv::ProcCtx`]) and the embedded [`txkv::LocalTx`]. A typed
//! transaction is therefore *one* backend transaction whatever path it
//! takes: single-shard, cross-shard 2PC (index entries may live on a
//! different shard than the row — each leg maintains its local half,
//! and the call's undo images cover both), or WAL replay at recovery.
//! Index maintenance is never deferred and never escapes the row's
//! transaction.
//!
//! ## Example
//!
//! ```
//! use txkv_schema::{def_key, def_row, Schema, TupleKey};
//!
//! def_key! { pub struct AcctKey { branch: 6, acct: 20 } }
//! def_row! { pub struct AcctRow { balance, updates } }
//!
//! let mut schema = Schema::new();
//! let accounts = schema.table::<AcctKey, AcctRow>("accounts");
//! let by_branch = schema.index::<u64>("accounts_by_branch", false);
//! // `accounts.put(&mut tx, place, key, &row)` and
//! // `by_branch.put(&mut tx, place, ik, primary)` inside one KvTx.
//! # let _ = (accounts, by_branch);
//! ```

pub mod keyenc;

pub use keyenc::{
    decode, encode, pack_str8, table_range, TupleKey, COL_BITS, PAYLOAD_BITS, PLACE_BITS,
    PLACE_SHIFT, REPLICATED_BOUNDARY, TABLE_BITS,
};

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use tm_api::Abort;
use txkv::{KvTx, ShardMap};

/// A fixed-width multi-column row: column ids are dense `0..COLS`,
/// every column is one `u64` word. Implement via [`def_row!`].
pub trait Row: Sized {
    const COLS: u64;
    /// Emit every `(col, word)` pair.
    fn to_cols(&self, out: &mut dyn FnMut(u64, u64));
    /// Rebuild from a per-column reader (absent columns read as 0).
    fn from_cols(read: &mut dyn FnMut(u64) -> Result<u64, Abort>) -> Result<Self, Abort>;
}

/// Define a [`Row`]: named `u64` columns, ids assigned in declaration
/// order starting at 0.
///
/// ```
/// txkv_schema::def_row! {
///     /// Per-customer balances (cents, two's-complement in a u64).
///     pub struct CustomerRow { balance, ytd_payment, payment_cnt }
/// }
/// use txkv_schema::Row;
/// assert_eq!(CustomerRow::COLS, 3);
/// ```
#[macro_export]
macro_rules! def_row {
    ($(#[$meta:meta])* pub struct $name:ident { $($field:ident),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(pub $field: u64,)+
        }

        impl $crate::Row for $name {
            const COLS: u64 = 0 $(+ { let _ = stringify!($field); 1 })+;

            fn to_cols(&self, out: &mut dyn FnMut(u64, u64)) {
                let mut col = 0u64;
                $(
                    out(col, self.$field);
                    #[allow(unused_assignments)]
                    { col += 1; }
                )+
            }

            fn from_cols(
                read: &mut dyn FnMut(u64) -> Result<u64, tm_api::Abort>,
            ) -> Result<Self, tm_api::Abort> {
                let mut col = 0u64;
                $(
                    let $field = read(col)?;
                    #[allow(unused_assignments)]
                    { col += 1; }
                )+
                Ok(Self { $($field,)+ })
            }
        }
    };
}

/// Allocates table/index ids within one key space: the named-table
/// namespace. Ids are dense in registration order and must stay below
/// the 6-bit [`TABLE_BITS`] budget.
#[derive(Debug, Default)]
pub struct Schema {
    names: Vec<&'static str>,
}

impl Schema {
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc(&mut self, name: &'static str) -> u64 {
        assert!(!self.names.contains(&name), "table or index named {name:?} registered twice");
        let id = self.names.len() as u64;
        assert!(id < (1 << TABLE_BITS), "schema exceeds {} tables", 1u64 << TABLE_BITS);
        self.names.push(name);
        id
    }

    /// Register a typed table.
    pub fn table<K: TupleKey, R: Row>(&mut self, name: &'static str) -> Table<K, R> {
        Table::new(self.alloc(name), name)
    }

    /// Register a secondary index. A `unique` index holds one entry per
    /// index key; a multi-valued index disambiguates by folding the
    /// primary key into the tail of its [`TupleKey`].
    pub fn index<IK: TupleKey>(&mut self, name: &'static str, unique: bool) -> Index<IK> {
        Index { id: self.alloc(name), name, unique, _ik: PhantomData }
    }

    /// The id a name was assigned, if registered.
    pub fn id_of(&self, name: &str) -> Option<u64> {
        self.names.iter().position(|n| *n == name).map(|i| i as u64)
    }

    pub fn names(&self) -> &[&'static str] {
        &self.names
    }
}

/// A typed table handle: primary key `K`, row type `R`. Stateless and
/// `Copy`-cheap — it only carries the table id, so it can live in
/// statics or inside [`txkv::Procedure`]s freely.
pub struct Table<K, R> {
    id: u64,
    name: &'static str,
    _k: PhantomData<fn(K) -> K>,
    _r: PhantomData<fn(R) -> R>,
}

impl<K, R> Clone for Table<K, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, R> Copy for Table<K, R> {}

impl<K: TupleKey, R: Row> Table<K, R> {
    /// Prefer [`Schema::table`]; direct construction is for statics
    /// with hand-assigned ids.
    pub const fn new(id: u64, name: &'static str) -> Self {
        Table { id, name, _k: PhantomData, _r: PhantomData }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The raw store key of one column of one row.
    #[inline]
    pub fn key(&self, place: u64, k: K, col: u64) -> u64 {
        encode(place, self.id, k.pack(), col)
    }

    /// Whether the row exists (column 0 is the presence column: every
    /// `put` writes it).
    pub fn exists(&self, tx: &mut dyn KvTx, place: u64, k: K) -> Result<bool, Abort> {
        Ok(tx.get(self.key(place, k, 0))?.is_some())
    }

    /// Read a whole row; `None` if it does not exist (no column 0).
    /// Absent other columns read as 0. The row's columns are contiguous
    /// keys, so this is one ordered scan over `[key(k, 0), key(k, 0) +
    /// COLS)`: one descent plus the leaf chain, not one lookup per column.
    ///
    /// A body running on inconsistent reads (Silo, before commit-time
    /// validation) can see the scan hand back a key outside the row; that
    /// attempt aborts with [`Abort::Backend`] and is retried.
    pub fn get(&self, tx: &mut dyn KvTx, place: u64, k: K) -> Result<Option<R>, Abort> {
        let lo = self.key(place, k, 0);
        let mut cols = [0u64; 1 << COL_BITS];
        let mut present = false;
        let mut stray = false;
        tx.scan_range(lo, lo + R::COLS, R::COLS, &mut |key, val| match key
            .checked_sub(lo)
            .filter(|&col| col < R::COLS)
        {
            Some(col) => {
                present |= col == 0;
                cols[col as usize] = val;
            }
            None => stray = true,
        })?;
        if stray {
            return Err(Abort::Backend);
        }
        if !present {
            return Ok(None);
        }
        R::from_cols(&mut |col| Ok(cols[col as usize])).map(Some)
    }

    /// Insert or overwrite a whole row. An existing row is rewritten in
    /// place by one [`KvTx::update_run`] over its columns; a row with any
    /// column absent falls back to one `put` per column, column 0 first
    /// so presence is established even for partially-read rows.
    pub fn put(&self, tx: &mut dyn KvTx, place: u64, k: K, row: &R) -> Result<(), Abort> {
        let lo = self.key(place, k, 0);
        let mut cols = [0u64; 1 << COL_BITS];
        row.to_cols(&mut |col, val| cols[col as usize] = val);
        if tx.update_run(lo, R::COLS, &mut |key, _| cols[(key - lo) as usize])? {
            return Ok(());
        }
        for (col, &val) in cols[..R::COLS as usize].iter().enumerate() {
            tx.put(lo + col as u64, val)?;
        }
        Ok(())
    }

    /// Delete a whole row; `true` if it existed.
    pub fn delete(&self, tx: &mut dyn KvTx, place: u64, k: K) -> Result<bool, Abort> {
        let payload = k.pack();
        let mut existed = false;
        for col in 0..R::COLS {
            existed |= tx.delete(encode(place, self.id, payload, col))?;
        }
        Ok(existed)
    }

    /// Read one column (0 when absent).
    pub fn read_col(&self, tx: &mut dyn KvTx, place: u64, k: K, col: u64) -> Result<u64, Abort> {
        Ok(tx.get(self.key(place, k, col))?.unwrap_or(0))
    }

    /// Write one column: in place when it exists (a run of one), an
    /// insert when it does not.
    pub fn write_col(
        &self,
        tx: &mut dyn KvTx,
        place: u64,
        k: K,
        col: u64,
        val: u64,
    ) -> Result<(), Abort> {
        let key = self.key(place, k, col);
        if !tx.update_run(key, 1, &mut |_, _| val)? {
            tx.put(key, val)?;
        }
        Ok(())
    }

    /// Read-modify-write one column; returns the new value. An existing
    /// column is read and rewritten by one [`KvTx::update_run`] of one
    /// key (one descent, not a lookup plus an insert). Otherwise it is a
    /// `get` (absent reads as 0) and a `put`, which inserts.
    pub fn update_col(
        &self,
        tx: &mut dyn KvTx,
        place: u64,
        k: K,
        col: u64,
        mut f: impl FnMut(u64) -> u64,
    ) -> Result<u64, Abort> {
        let key = self.key(place, k, col);
        let mut new = 0;
        if !tx.update_run(key, 1, &mut |_, old| {
            new = f(old);
            new
        })? {
            new = f(tx.get(key)?.unwrap_or(0));
            tx.put(key, new)?;
        }
        Ok(new)
    }

    /// Ordered scan over the primary keys in `[from, to)` (packed tuple
    /// order — i.e. index order), up to `limit` rows. Returns the row
    /// count.
    pub fn scan_keys(
        &self,
        tx: &mut dyn KvTx,
        place: u64,
        from: K,
        to: K,
        limit: u64,
        f: &mut dyn FnMut(K),
    ) -> Result<u64, Abort> {
        let lo = encode(place, self.id, from.pack(), 0);
        let hi = encode(place, self.id, to.pack(), 0);
        // The kv scan sees every column; only presence columns count as
        // rows, so widen the kv limit accordingly.
        let kv_limit = limit.saturating_mul(R::COLS.max(1));
        let mut rows = 0u64;
        tx.scan_range(lo, hi, kv_limit, &mut |key, _| {
            let (_, _, payload, col) = decode(key);
            if col == 0 && rows < limit {
                rows += 1;
                f(K::unpack(payload));
            }
        })?;
        Ok(rows)
    }
}

impl<K, R> std::fmt::Debug for Table<K, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table").field("id", &self.id).field("name", &self.name).finish()
    }
}

/// Lookups served through a secondary index, across all indexes in the
/// process — the counter tests assert on to prove an access path went
/// through the index rather than a base-table scan.
static INDEX_HITS: AtomicU64 = AtomicU64::new(0);

/// Total [`Index::get`]/[`Index::scan`] lookups since process start (or
/// the last [`reset_index_hits`]).
pub fn index_hits() -> u64 {
    INDEX_HITS.load(Ordering::Relaxed)
}

pub fn reset_index_hits() {
    INDEX_HITS.store(0, Ordering::Relaxed)
}

/// A secondary index: entries `IK → primary` stored in the index's own
/// table id, maintained by the *caller's* transaction — every write
/// path that touches the indexed column must update the index in the
/// same [`KvTx`], which is what keeps base and index atomic across
/// single-shard commits, cross-shard 2PC legs, and WAL replay alike.
pub struct Index<IK> {
    id: u64,
    name: &'static str,
    unique: bool,
    _ik: PhantomData<fn(IK) -> IK>,
}

impl<IK> Clone for Index<IK> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<IK> Copy for Index<IK> {}

impl<IK: TupleKey> Index<IK> {
    /// Prefer [`Schema::index`]; direct construction is for statics.
    pub const fn new(id: u64, name: &'static str, unique: bool) -> Self {
        Index { id, name, unique, _ik: PhantomData }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn unique(&self) -> bool {
        self.unique
    }

    /// The encoded store key of one index entry (bulk loaders and
    /// footprint builders use this; transactional paths go through
    /// [`Index::put`] / [`Index::get`] / [`Index::scan`]).
    #[inline]
    pub fn key(&self, place: u64, ik: IK) -> u64 {
        encode(place, self.id, ik.pack(), 0)
    }

    /// Insert (or overwrite) the entry for `ik`.
    pub fn put(&self, tx: &mut dyn KvTx, place: u64, ik: IK, primary: u64) -> Result<(), Abort> {
        tx.put(self.key(place, ik), primary)
    }

    /// Remove the entry for `ik`; `true` if it existed.
    pub fn delete(&self, tx: &mut dyn KvTx, place: u64, ik: IK) -> Result<bool, Abort> {
        tx.delete(self.key(place, ik))
    }

    /// Index maintenance for a moved indexed value: drop the old entry,
    /// insert the new — in the caller's (base-write) transaction.
    pub fn update(
        &self,
        tx: &mut dyn KvTx,
        place: u64,
        old: Option<IK>,
        new: Option<(IK, u64)>,
    ) -> Result<(), Abort> {
        if let Some(o) = old {
            tx.delete(self.key(place, o))?;
        }
        if let Some((n, primary)) = new {
            tx.put(self.key(place, n), primary)?;
        }
        Ok(())
    }

    /// Unique-index point lookup. Counts an index hit.
    pub fn get(&self, tx: &mut dyn KvTx, place: u64, ik: IK) -> Result<Option<u64>, Abort> {
        INDEX_HITS.fetch_add(1, Ordering::Relaxed);
        tx.get(self.key(place, ik))
    }

    /// Ordered scan over entries with packed keys in `[from, to)`, up
    /// to `limit`; yields `(entry key, primary)` in index order and
    /// returns the match count. Counts one index hit. This is how a
    /// multi-valued index enumerates an equal-prefix group: build
    /// `from`/`to` spanning the prefix.
    pub fn scan(
        &self,
        tx: &mut dyn KvTx,
        place: u64,
        from: IK,
        to: IK,
        limit: u64,
        f: &mut dyn FnMut(IK, u64),
    ) -> Result<u64, Abort> {
        INDEX_HITS.fetch_add(1, Ordering::Relaxed);
        let lo = encode(place, self.id, from.pack(), 0);
        let hi = encode(place, self.id, to.pack(), 0);
        tx.scan_range(lo, hi, limit, &mut |key, primary| {
            let (_, _, payload, _) = decode(key);
            f(IK::unpack(payload), primary);
        })
    }

    /// Every entry of this index at `place` (consistency checks).
    pub fn scan_all(
        &self,
        tx: &mut dyn KvTx,
        place: u64,
        f: &mut dyn FnMut(IK, u64),
    ) -> Result<u64, Abort> {
        INDEX_HITS.fetch_add(1, Ordering::Relaxed);
        let (lo, hi) = table_range(place, self.id);
        tx.scan_range(lo, hi, u64::MAX, &mut |key, primary| {
            let (_, _, payload, _) = decode(key);
            f(IK::unpack(payload), primary);
        })
    }
}

impl<IK> std::fmt::Debug for Index<IK> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("unique", &self.unique)
            .finish()
    }
}

/// Range-partition whole places across `shards`: place `p`'s entire
/// key range maps to shard `p / ceil(places / shards)`. Pass
/// `places` = highest place + 1 (including replicated place 0, which
/// lands on shard 0 but is loaded into every shard's store by the
/// domain builder).
pub fn place_sharding(places: u64, shards: usize) -> ShardMap {
    let per = places.div_ceil(shards as u64).max(1);
    ShardMap::range(shards, per << PLACE_SHIFT)
}

/// The place that owns `key` (inverse of the place field).
pub fn place_of(key: u64) -> u64 {
    key >> PLACE_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    def_key! { pub struct DK { d: 5, c: 14 } }
    def_row! { pub struct DR { a, b, c } }

    /// A transaction whose row scan hands back `stray` besides column 0,
    /// as a body on inconsistent reads can see.
    struct StrayScan {
        stray: u64,
    }

    impl KvTx for StrayScan {
        fn get(&mut self, _: u64) -> Result<Option<u64>, Abort> {
            Ok(None)
        }
        fn put(&mut self, _: u64, _: u64) -> Result<(), Abort> {
            Ok(())
        }
        fn delete(&mut self, _: u64) -> Result<bool, Abort> {
            Ok(false)
        }
        fn scan_range(
            &mut self,
            from: u64,
            _: u64,
            _: u64,
            f: &mut dyn FnMut(u64, u64),
        ) -> Result<u64, Abort> {
            f(from, 1);
            f(self.stray, 2);
            Ok(2)
        }
        fn is_local(&self, _: u64) -> bool {
            true
        }
    }

    #[test]
    fn a_row_scan_yielding_a_key_outside_the_row_aborts() {
        let t: Table<DK, DR> = Table::new(7, "t");
        let k = DK { d: 1, c: 2 };
        let lo = t.key(0, k, 0);
        for stray in [lo + DR::COLS, lo + 63, lo - 1, 0] {
            assert_eq!(t.get(&mut StrayScan { stray }, 0, k), Err(Abort::Backend), "{stray:#x}");
        }
    }

    #[test]
    fn key_encoding_is_order_preserving() {
        // Across every field, integer order == tuple order.
        let ks = [
            encode(0, 0, 0, 0),
            encode(0, 0, 0, 1),
            encode(0, 0, 1, 0),
            encode(0, 1, 0, 0),
            encode(1, 0, 0, 0),
            encode(1, 0, 0, 63),
            encode(1, 0, 1, 0),
            encode(1, 63, (1 << PAYLOAD_BITS) - 1, 63),
            encode(2, 0, 0, 0),
        ];
        for w in ks.windows(2) {
            assert!(w[0] < w[1], "{:#x} !< {:#x}", w[0], w[1]);
        }
        for &k in &ks {
            let (p, t, pl, c) = decode(k);
            assert_eq!(encode(p, t, pl, c), k);
        }
    }

    #[test]
    fn tuple_keys_round_trip_and_preserve_order() {
        let a = DK { d: 3, c: 100 };
        let b = DK { d: 3, c: 101 };
        let c = DK { d: 4, c: 0 };
        assert!(a.pack() < b.pack() && b.pack() < c.pack());
        assert_eq!(DK::unpack(a.pack()), a);
        assert_eq!(DK::BITS, 19);
    }

    #[test]
    fn str8_packing_matches_memcmp_order() {
        let names = ["ABLE", "BAR", "BARB", "BARBAR", "PRES", "PRESBAR"];
        for w in names.windows(2) {
            assert!(pack_str8(w[0]) < pack_str8(w[1]), "{} !< {} packed", w[0], w[1]);
        }
        // Truncation keeps prefix adjacency: >8 bytes share the packed
        // prefix value.
        assert_eq!(pack_str8("ABCDEFGHI"), pack_str8("ABCDEFGH"));
    }

    #[test]
    fn rows_emit_dense_columns() {
        let r = DR { a: 1, b: 2, c: 3 };
        let mut got = Vec::new();
        r.to_cols(&mut |col, v| got.push((col, v)));
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(DR::COLS, 3);
        let back = DR::from_cols(&mut |col| Ok(col + 1)).unwrap();
        assert_eq!(back, DR { a: 1, b: 2, c: 3 });
    }

    #[test]
    fn schema_allocates_unique_ids() {
        let mut s = Schema::new();
        let t: Table<DK, DR> = s.table("t");
        let i = s.index::<u64>("t_by_x", true);
        assert_eq!(t.id(), 0);
        assert_eq!(i.id(), 1);
        assert_eq!(s.id_of("t_by_x"), Some(1));
        assert_eq!(s.id_of("nope"), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn schema_rejects_duplicate_names() {
        let mut s = Schema::new();
        let _a: Table<DK, DR> = s.table("t");
        let _b: Table<DK, DR> = s.table("t");
    }

    #[test]
    fn place_sharding_keeps_places_whole() {
        let map = place_sharding(3, 2); // place 0 + two places, 2 shards
        assert_eq!(map.shard_of(encode(0, 5, 9, 1)), 0);
        assert_eq!(map.shard_of(encode(1, 5, 9, 1)), 0);
        assert_eq!(map.shard_of(encode(2, 5, 9, 1)), 1);
        // Every key of one place lands on one shard.
        let (lo, hi) = table_range(2, 7);
        assert_eq!(map.shard_of(lo), map.shard_of(hi - 1));
    }
}
