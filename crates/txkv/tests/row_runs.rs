//! Row runs (`KvTx::update_run`) change the cost of a typed row access,
//! never its effect. The same random call sequence through
//! `txkv_schema::Table` runs on three identical stores:
//!
//! * `PerColumn` over a capturing `ProcCtx` — a wrapper that forwards
//!   every `KvTx` method except `update_run`, so `Table` gets the trait
//!   default ("not done") and takes the per-column path;
//! * a capturing `ProcCtx` (WAL post-images and 2PC undo images on);
//! * a `LocalTx`.
//!
//! Store contents (and every word of simulated memory), read results,
//! post-image sequences and undo images must be identical. Rows are
//! present, absent, or missing a middle column; row widths are 1, 4 and
//! 64 columns. Bulk-loaded neighbours fill the leaves, so 4-column rows
//! straddle leaf boundaries and 64-column rows always span several leaves.

use si_htm::SiHtm;
use tm_api::{Abort, TmBackend, TmThread, TxKind};
use txkv::durability::Writes;
use txkv::shard::UndoImage;
use txkv::{KvStore, KvTx, LocalTx, ProcCtx, Scope};
use txkv_schema::{def_row, Row, Table};
use workloads::btree::NodeScratch;

const PLACE: u64 = 1;
const WORDS: u64 = 1 << 18;
/// Most operations one transaction carries.
const OPS_MAX: u64 = 4;

def_row! { pub struct One { a } }
def_row! { pub struct Quad { a, b, c, d } }

/// The widest row the 6-bit column field allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wide([u64; 64]);

impl Row for Wide {
    const COLS: u64 = 64;
    fn to_cols(&self, out: &mut dyn FnMut(u64, u64)) {
        for (col, &v) in self.0.iter().enumerate() {
            out(col as u64, v);
        }
    }
    fn from_cols(read: &mut dyn FnMut(u64) -> Result<u64, Abort>) -> Result<Self, Abort> {
        let mut row = [0; 64];
        for (col, v) in row.iter_mut().enumerate() {
            *v = read(col as u64)?;
        }
        Ok(Wide(row))
    }
}

const ONES: Table<u64, One> = Table::new(0, "ones");
const QUADS: Table<u64, Quad> = Table::new(1, "quads");
const WIDES: Table<u64, Wide> = Table::new(2, "wides");
/// `(columns, row ids)` per table, indexed like [`Op::table`].
const SHAPES: [(u64, u64); 3] = [(1, 48), (4, 24), (64, 6)];

/// Forwards everything but `update_run`, so callers see the default.
struct PerColumn<'a, T: KvTx>(&'a mut T);

impl<T: KvTx> KvTx for PerColumn<'_, T> {
    fn get(&mut self, key: u64) -> Result<Option<u64>, Abort> {
        self.0.get(key)
    }
    fn put(&mut self, key: u64, val: u64) -> Result<(), Abort> {
        self.0.put(key, val)
    }
    fn delete(&mut self, key: u64) -> Result<bool, Abort> {
        self.0.delete(key)
    }
    fn scan_range(
        &mut self,
        from: u64,
        to: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> Result<u64, Abort> {
        self.0.scan_range(from, to, limit, f)
    }
    fn is_local(&self, key: u64) -> bool {
        self.0.is_local(key)
    }
}

/// Small deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) % n
    }
}

#[derive(Debug, Clone)]
enum Kind {
    Get,
    Put(Vec<u64>),
    WriteCol(u64, u64),
    UpdateCol(u64, u64),
    /// Drop one column with a raw `KvTx::delete` (makes middle holes).
    DeleteCol(u64),
    Delete,
}

#[derive(Debug, Clone)]
struct Op {
    table: usize,
    id: u64,
    kind: Kind,
}

fn random_op(rng: &mut Rng) -> Op {
    let table = rng.below(3) as usize;
    let (cols, ids) = SHAPES[table];
    let id = rng.below(ids);
    let kind = match rng.below(20) {
        0..=5 => Kind::Put((0..cols).map(|_| rng.below(1000)).collect()),
        6..=9 => Kind::WriteCol(rng.below(cols), rng.below(1000)),
        10..=13 => Kind::UpdateCol(rng.below(cols), 1 + rng.below(9)),
        14..=16 => Kind::Get,
        17..=18 => Kind::DeleteCol(rng.below(cols)),
        _ => Kind::Delete,
    };
    Op { table, id, kind }
}

/// A row as its column words.
fn words<R: Row>(row: &R) -> Vec<u64> {
    let mut out = Vec::new();
    row.to_cols(&mut |_, v| out.push(v));
    out
}

/// What `Table::get` meant before row runs: presence from column 0,
/// then one lookup per column, absent columns reading as 0.
fn get_per_column<R: Row>(
    t: Table<u64, R>,
    tx: &mut dyn KvTx,
    id: u64,
) -> Result<Option<Vec<u64>>, Abort> {
    if tx.get(t.key(PLACE, id, 0))?.is_none() {
        return Ok(None);
    }
    (0..R::COLS)
        .map(|col| Ok(tx.get(t.key(PLACE, id, col))?.unwrap_or(0)))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// Apply one op through `t`; a `Get` returns the row and checks it
/// against [`get_per_column`] in the same transaction.
fn apply_on<R: Row>(
    t: Table<u64, R>,
    tx: &mut dyn KvTx,
    op: &Op,
) -> Result<Option<Vec<u64>>, Abort> {
    let id = op.id;
    match &op.kind {
        Kind::Get => {
            let got = t.get(tx, PLACE, id)?.map(|r| words(&r));
            assert_eq!(got, get_per_column(t, tx, id)?, "{} row {id}", t.name());
            return Ok(got);
        }
        Kind::Put(vals) => {
            t.put(tx, PLACE, id, &R::from_cols(&mut |col| Ok(vals[col as usize]))?)?
        }
        &Kind::WriteCol(col, val) => t.write_col(tx, PLACE, id, col, val)?,
        &Kind::UpdateCol(col, add) => {
            t.update_col(tx, PLACE, id, col, |x| x.wrapping_mul(3).wrapping_add(add))?;
        }
        &Kind::DeleteCol(col) => {
            tx.delete(t.key(PLACE, id, col))?;
        }
        Kind::Delete => {
            t.delete(tx, PLACE, id)?;
        }
    }
    Ok(None)
}

fn apply(tx: &mut dyn KvTx, op: &Op) -> Result<Option<Vec<u64>>, Abort> {
    match op.table {
        0 => apply_on(ONES, tx, op),
        1 => apply_on(QUADS, tx, op),
        _ => apply_on(WIDES, tx, op),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    PerColumn,
    Proc,
    Local,
}

/// One store in its own simulated memory.
struct Side {
    backend: SiHtm,
    thread: <SiHtm as TmBackend>::Thread,
    store: KvStore,
    scratch: NodeScratch,
}

/// What one committed transaction produced.
#[derive(Debug, PartialEq, Eq)]
struct Effects {
    reads: Vec<Option<Vec<u64>>>,
    writes: Writes,
    undo: UndoImage,
}

impl Side {
    fn new(entries: &[(u64, u64)]) -> Side {
        let backend = SiHtm::with_defaults(WORDS as usize);
        let store = KvStore::create_with(backend.memory(), 0, WORDS, entries.iter().copied());
        let scratch = store.new_batch_scratch((OPS_MAX * 64) as usize);
        Side { thread: backend.register_thread(), backend, store, scratch }
    }

    fn exec(&mut self, ctx: Ctx, ops: &[Op]) -> Effects {
        let (store, scratch) = (&self.store, &mut self.scratch);
        let mut fx = Effects { reads: Vec::new(), writes: Writes::new(), undo: UndoImage::new() };
        self.thread.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            fx.reads.clear();
            fx.writes.clear();
            fx.undo.clear();
            if ctx == Ctx::Local {
                let mut ltx = LocalTx { store, tx, scratch };
                for op in ops {
                    fx.reads.push(apply(&mut ltx, op)?);
                }
                return Ok(());
            }
            let (w, u) = (Some(&mut fx.writes), Some(&mut fx.undo));
            let mut pctx = ProcCtx::new(store, tx, scratch, Scope::single(0, 0), w, u);
            for op in ops {
                let read = match ctx {
                    Ctx::PerColumn => apply(&mut PerColumn(&mut pctx), op)?,
                    _ => apply(&mut pctx, op)?,
                };
                fx.reads.push(read);
            }
            Ok(())
        });
        self.scratch.refill(self.store.alloc());
        fx
    }

    fn contents(&mut self) -> Vec<(u64, u64)> {
        self.store.snapshot(&mut self.thread)
    }

    fn memory(&self) -> Vec<u64> {
        let mem = self.backend.memory();
        (0..mem.len() as u64).map(|a| mem.load(a)).collect()
    }
}

/// Initial rows: present, absent, or missing their middle column.
fn seed_entries(rng: &mut Rng) -> Vec<(u64, u64)> {
    let mut entries = Vec::new();
    for (table, &(cols, ids)) in SHAPES.iter().enumerate() {
        for id in 0..ids {
            let lo = match table {
                0 => ONES.key(PLACE, id, 0),
                1 => QUADS.key(PLACE, id, 0),
                _ => WIDES.key(PLACE, id, 0),
            };
            match rng.below(8) {
                0..=4 => entries.extend((0..cols).map(|c| (lo + c, 1 + rng.below(1000)))),
                5 if cols >= 3 => entries.extend(
                    (0..cols).filter(|&c| c != cols / 2).map(|c| (lo + c, 1 + rng.below(1000))),
                ),
                _ => {}
            }
        }
    }
    entries
}

#[test]
fn row_runs_match_the_per_column_path() {
    for seed in 1..=3u64 {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed);
        let entries = seed_entries(&mut rng);
        let mut sides: Vec<Side> = (0..3).map(|_| Side::new(&entries)).collect();
        for txn in 0..120 {
            let ops: Vec<Op> = (0..1 + rng.below(OPS_MAX)).map(|_| random_op(&mut rng)).collect();
            let reference = sides[0].exec(Ctx::PerColumn, &ops);
            let proc = sides[1].exec(Ctx::Proc, &ops);
            let local = sides[2].exec(Ctx::Local, &ops);
            assert_eq!(proc, reference, "seed {seed} txn {txn}: ProcCtx diverged on {ops:?}");
            assert_eq!(local.reads, reference.reads, "seed {seed} txn {txn}: LocalTx reads");
        }
        let contents = sides[0].contents();
        assert!(!contents.is_empty());
        for side in &mut sides[1..] {
            assert_eq!(side.contents(), contents, "seed {seed}: store contents");
        }
        let mem = sides[0].memory();
        assert!(sides[1..].iter().all(|s| s.memory() == mem), "seed {seed}: memory words");
    }
}

#[test]
fn refused_run_writes_nothing() {
    // Row 0 present, row 1 missing column 2, row 2 absent, row 3 present
    // and the last row in the store.
    let present = |id: u64| (0..4).map(move |c| (QUADS.key(PLACE, id, c), 10 * id + c));
    let entries: Vec<(u64, u64)> = present(0)
        .chain(present(1).filter(|&(k, _)| k != QUADS.key(PLACE, 1, 2)))
        .chain(present(3))
        .collect();
    let holes = [
        (QUADS.key(PLACE, 1, 0), 4), // missing middle column
        (QUADS.key(PLACE, 2, 0), 4), // absent row
        (QUADS.key(PLACE, 0, 2), 4), // runs into row 1's missing column
        (QUADS.key(PLACE, 3, 1), 4), // runs off the end of the store
        (QUADS.key(PLACE, 1, 2), 1), // the missing column alone
    ];
    for ctx in [Ctx::Proc, Ctx::Local] {
        let mut side = Side::new(&entries);
        let before = side.memory();
        let (store, scratch) = (&side.store, &mut side.scratch);
        let mut writes: Writes = vec![(1, Some(1))];
        let mut undo: UndoImage = vec![(2, None)];
        let mut results = Vec::new();
        side.thread.exec(TxKind::Update, &mut |tx| {
            results.clear();
            let mut local;
            let mut pctx;
            let kv: &mut dyn KvTx = if ctx == Ctx::Local {
                local = LocalTx { store, tx, scratch };
                &mut local
            } else {
                let (w, u) = (Some(&mut writes), Some(&mut undo));
                pctx = ProcCtx::new(store, tx, scratch, Scope::single(0, 0), w, u);
                &mut pctx
            };
            for &(from, n) in &holes {
                let mut called = false;
                let done = kv.update_run(from, n, &mut |_, old| {
                    called = true;
                    old + 1
                })?;
                results.push((done, called));
            }
            Ok(())
        });
        assert_eq!(results, vec![(false, false); holes.len()], "{ctx:?}");
        assert!(side.memory() == before, "{ctx:?}: a refused run wrote memory");
        assert_eq!((writes, undo), (vec![(1, Some(1))], vec![(2, None)]), "{ctx:?}: images");
        // The present row itself is a run, and it does write.
        let lo = QUADS.key(PLACE, 0, 0);
        let mut done = false;
        let (store, scratch) = (&side.store, &mut side.scratch);
        side.thread.exec(TxKind::Update, &mut |tx| {
            done = LocalTx { store, tx, scratch }.update_run(lo, 4, &mut |_, old| old + 1)?;
            Ok(())
        });
        assert!(done);
        assert_eq!(side.store.load_raw(side.backend.memory(), lo + 3), Some(4));
    }
}

/// One leg reads a row, writes it, then inserts the absent neighbouring
/// rows — sixteen fresh keys in the one leaf that covers the gap, so it
/// must split — and reads and writes the first row again after the
/// split. The capturing `ProcCtx` shares one finger across all of it;
/// its reads, WAL post-images and 2PC undo images must equal the
/// per-column reference, and every memory word must match.
#[test]
fn row_write_then_splitting_neighbours_match_the_per_column_path() {
    let quad = |id: u64| (0..4).map(move |c| (QUADS.key(PLACE, id, c), 10 * id + c));
    let entries: Vec<(u64, u64)> =
        (0..24).filter(|id| !(10..14).contains(id)).flat_map(quad).collect();
    let op = |id, kind| Op { table: 1, id, kind };
    let mut ops = vec![op(9, Kind::Get), op(9, Kind::Put(vec![1, 2, 3, 4]))];
    ops.extend((10..14).map(|id| op(id, Kind::Put(vec![id, id + 1, id + 2, id + 3]))));
    ops.extend([
        op(9, Kind::Get),
        op(9, Kind::UpdateCol(2, 5)),
        op(13, Kind::Get),
        op(14, Kind::WriteCol(0, 7)),
        op(12, Kind::Get),
    ]);
    let mut sides: Vec<Side> = (0..3).map(|_| Side::new(&entries)).collect();
    let used = sides[0].store.alloc().used();
    let reference = sides[0].exec(Ctx::PerColumn, &ops);
    assert!(sides[0].store.alloc().used() > used, "the neighbours did not split a leaf");
    let proc = sides[1].exec(Ctx::Proc, &ops);
    let local = sides[2].exec(Ctx::Local, &ops);
    assert_eq!(proc, reference, "ProcCtx diverged");
    assert_eq!(local.reads, reference.reads, "LocalTx reads");
    assert_eq!(reference.undo.len(), 4 + 16 + 1, "row 9, the new rows, row 14's column");
    let mem = sides[0].memory();
    assert!(sides[1..].iter().all(|s| s.memory() == mem), "memory words");
}
